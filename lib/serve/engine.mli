(** The serving engine: shape-bucketed dynamic batching over a pool of
    VM workers (architecture and tuning guide: [docs/SERVING.md]).

    Requests are admitted through a bounded queue (full = immediate
    reject, never blocking) and executed by worker domains that each own
    a warm {!Nimble_vm.Interp.t} (reused storage arenas) and
    {!Nimble_vm.Interp.ctx} (reused register frame). An idle worker
    takes the oldest queued request plus up to [max_batch - 1] queued
    requests of the same {!Bucket} key; it never waits for a batch to
    fill, so no request waits while a worker is idle. Every request runs
    at its exact shape, so batched results are bitwise-identical to
    unbatched runs.

    Execution is supervised (failure taxonomy and retry policy:
    [docs/ROBUSTNESS.md]): a failing request completes with
    [Error (Failed failure)] instead of killing its worker, transient
    failures are retried with deadline-aware exponential backoff, and a
    worker whose batch dies outside the typed channel is restarted with
    a fresh interpreter after answering its stranded requests. *)

type error =
  | Rejected  (** admission refused: the submission queue was full *)
  | Timed_out
      (** the deadline passed before execution started (checked when a
          worker takes the request's batch and again just before it
          runs) *)
  | Shed
      (** SLO-aware admission refused the request: given current queue
          depth and the observed service-time estimate its deadline
          provably could not be met ({!Admission}; only with an
          admission controller attached) *)
  | Tripped
      (** the (model, bucket) circuit breaker is open and shedding this
          lane while it recovers ({!Breaker}; produced by {!Fleet},
          never by a bare engine) *)
  | Failed of Nimble_vm.Interp.failure
      (** the VM failed; the typed failure says what, where, and whether
          it was transient (retries, if any, were already spent) *)

type outcome = (Nimble_vm.Obj.t, error) result

type config = {
  workers : int;  (** VM worker domains (each owns an interpreter) *)
  queue_capacity : int;  (** pending-queue bound; beyond it, reject *)
  max_batch : int;  (** most same-bucket requests one worker takes at once *)
  policy : Bucket.policy;  (** shape-bucketing policy *)
  default_timeout_us : float option;
      (** deadline applied to requests submitted without one *)
  max_retries : int;
      (** per-request retries of {e transient} failures; persistent
          failures are never retried *)
  retry_backoff_us : float;
      (** base backoff before the first retry; doubles per attempt, with
          a small deterministic jitter, and never past the deadline *)
  pool_cap_bytes : int option;
      (** per-worker cap on VM storage retained across requests; an
          allocation that would exceed it fails as [Alloc] *)
  warm_hints : int array list;
      (** bucket-bound shapes each worker pre-binds its plan arenas at
          before serving (a restored snapshot's arena hints, so a warm
          restart reaches steady-state memory behaviour on its first
          batch) *)
}

(** 2 workers, capacity 64, batches of up to 8 queued requests,
    {!Bucket.default} padding, no default deadline; up to 3 transient
    retries starting at 200 µs backoff, no pool cap, no warm hints. *)
val default_config : config

type t

(** A claim on one submitted request's eventual {!outcome}. *)
type ticket

(** Start an engine over a linked executable: spawns exactly
    [config.workers] VM worker domains.
    @param func the VM function served (default ["main"]).
    @param trace record [serve.*] spans into this recorder.
    @param autotune attach an online shape specializer
    ([Nimble_codegen.Autotune]): the engine observes it once per executed
    batch with the executable's dispatchers — driving its hotness scans —
    and records a [vm.retune] span for every live install. The caller
    keeps ownership and should
    drain/shutdown it after {!shutdown}.
    @param admission attach an SLO-aware admission controller
    ({!Admission}): deadline-bearing requests that provably cannot meet
    their deadline are refused as [Error Shed] at submission, and the
    engine feeds the controller per-request service observations.
    @raise Invalid_argument on a non-positive worker or batch count. *)
val create :
  ?config:config -> ?trace:Nimble_vm.Trace.t ->
  ?autotune:Nimble_codegen.Autotune.t -> ?admission:Admission.t ->
  ?func:string -> Nimble_vm.Exe.t -> t

(** Submit one request: [shape] is the bucketing shape, [input] the VM
    argument (executed as-is, never padded). [Error Rejected] when the
    pending queue is full.
    @param timeout_us per-request deadline from now, overriding
    [config.default_timeout_us]. *)
val submit :
  ?timeout_us:float -> t -> shape:int array -> Nimble_vm.Obj.t -> (ticket, error) result

(** Block until the engine completes the ticket's request. *)
val wait : ticket -> outcome

(** {!submit} then {!wait}. *)
val run :
  ?timeout_us:float -> t -> shape:int array -> Nimble_vm.Obj.t -> outcome

(** Stop workers from taking requests (admission keeps queueing, then
    rejecting when the queue fills). For tests and drain drills. *)
val pause : t -> unit

(** Let workers take requests again after {!pause}. *)
val resume : t -> unit

(** Close admission, drain in-flight work (even when paused), join the
    worker domains. Idempotent. *)
val shutdown : t -> unit

(** Frozen statistics snapshot (callable while serving). *)
val stats : t -> Stats.summary

(** {!stats} rendered as the [server] section for [nimble-profile/v1]. *)
val server_json : t -> Nimble_vm.Json.t

(** The engine's configuration (as given to {!create}). *)
val config : t -> config
