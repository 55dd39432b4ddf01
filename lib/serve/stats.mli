(** Serving-engine statistics: admission counters, batch-size histogram,
    latency percentiles. Thread-safe recorders; [summary] freezes a
    consistent snapshot and [summary_to_json] renders the [server]
    section of [nimble-profile/v1] (see [docs/OBSERVABILITY.md]). *)

type t

(** A zeroed recorder with its own mutex. *)
val create : unit -> t

(** One request submitted (counted whether or not it is admitted). *)
val record_submit : t -> unit

(** One request refused at admission (pending queue full). *)
val record_reject : t -> unit

(** One request whose deadline passed inside a taken batch, while
    earlier members ran (it reached a worker but was not executed). *)
val record_timeout : t -> unit

(** One request refused by SLO-aware admission control: its deadline
    provably could not be met, so it was never queued
    ([docs/SERVING.md]). *)
val record_shed_admission : t -> unit

(** One request whose deadline passed while queued, found when a worker
    formed its batch (it never ran). *)
val record_shed_flush : t -> unit

(** One request completed with a non-VM error (no typed failure). *)
val record_error : t -> unit

(** One transient failure retried by a worker (with backoff). *)
val record_retry : t -> unit

(** One worker domain resurrected by the supervisor after dying. *)
val record_worker_restart : t -> unit

(** One request failed with a typed VM failure: bumps the error count and
    the per-kind tally ([kind] is [Nimble_vm.Interp.kind_name]). *)
val record_failure : t -> kind:string -> unit

(** One completed request with its submit-to-complete latency (µs). *)
val record_complete : t -> latency_us:float -> unit

(** One formed batch of [size] requests. *)
val record_batch : t -> size:int -> unit

(** Fold a submission-queue depth observation into the high-water mark. *)
val observe_queue_depth : t -> int -> unit

(** Accumulate a worker's per-batch VM warm-state counters:
    register-frame reuses, storage-pool hits, storage allocations
    actually performed, and symbolic-plan arena rebinds (persistent
    arenas reused instead of allocated). All arguments are deltas over
    one batch. *)
val record_reuse :
  t -> frame_reuses:int -> arena_hits:int -> allocs:int -> arena_reuses:int -> unit

type summary = {
  s_submitted : int;
  s_completed : int;
  s_rejected : int;  (** refused at admission (queue full) *)
  s_shed_admission : int;
      (** refused by SLO-aware admission control (deadline provably
          unmeetable; never queued) *)
  s_shed_flush : int;
      (** deadline passed while queued; found when a worker formed its
          batch, so the request never ran *)
  s_timeouts : int;
      (** deadline passed inside a taken batch, while earlier members
          ran *)
  s_errors : int;  (** VM faults surfaced to clients *)
  s_batches : int;
  s_queue_depth_hwm : int;
  s_batch_hist : (int * int) list;  (** (batch size, count), ascending *)
  s_mean_batch : float;
  s_p50_ms : float;  (** 0 when nothing completed *)
  s_p99_ms : float;
  s_mean_ms : float;
  s_frame_reuses : int;  (** VM register-frame reuses across workers *)
  s_arena_hits : int;  (** storage-pool hits across workers *)
  s_allocs_per_request : float;
      (** storage allocations per completed request across workers — the
          headline number symbolic planning collapses (near zero once the
          persistent arenas are warm) *)
  s_arena_reuses : int;
      (** symbolic-plan arena rebinds across workers: [BindArena]
          executions that reused a persistent arena instead of
          allocating one (see [docs/MEMORY.md]) *)
  s_retries : int;  (** transient failures retried by workers *)
  s_worker_restarts : int;  (** worker domains resurrected after dying *)
  s_failure_kinds : (string * int) list;
      (** (typed-failure kind, count), sorted by kind; sums to at most
          [s_errors] *)
}

(** Freeze a consistent snapshot (percentiles computed at call time). *)
val summary : t -> summary

(** The [server] JSON section embedded in [nimble-profile/v1]. *)
val summary_to_json : summary -> Nimble_vm.Json.t

(** Human-readable dump (CLI output). *)
val pp_summary : Format.formatter -> summary -> unit
