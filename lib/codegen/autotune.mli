(** Online profile-guided shape specialization: a hotness tracker over the
    exact-extent histograms of the dispatchers it is handed (the serving
    engine passes its executable's) queues background
    {!Tuner.tune} runs for hot extents and installs the winners into live
    dispatch tables by atomic swap — serving never pauses and outputs stay
    bitwise-equal. Tune decisions persist via the NMBLEXE4 tune table
    ([Serve.Cache.persist_tunes]) so warm restarts relink pre-specialized.
    Protocol and policy are documented in [docs/TUNING.md]. *)

(** Hotness/tuning policy knobs. *)
type config = {
  hot_threshold : int;  (** dispatch count at which an extent is hot *)
  scan_interval : int;  (** {!observe} calls between hotness scans *)
  max_exact : int;  (** live tuned-entry cap per dispatcher *)
  synchronous : bool;  (** run tuning inline on the calling domain (tests) *)
  repeats : int;  (** {!Tuner.measure} timed runs per point *)
  warmup : int;  (** {!Tuner.measure} priming runs per point *)
}

(** threshold 32, interval 64, cap 16, background, 3 repeats / 1 warmup. *)
val default_config : config

(** One completed specialization: which kernel/extent was tuned, the chosen
    tile width, the specialized-call fraction when the task was queued, and
    how long tuning took. *)
type install = {
  in_kernel : string;
  in_extent : int;
  in_tile_m : int;
  in_hit_rate_before : float;  (** specialized-call fraction at queue time *)
  in_seconds : float;  (** tuning wall time (monotonic) *)
}

(** Lifetime counters for the profiler's [autotune] report section. *)
type summary = {
  au_observations : int;
  au_scans : int;
  au_queued : int;
  au_installs : install list;  (** oldest first *)
  au_evictions : int;
  au_pending : int;  (** queued or running tasks not yet installed *)
}

type t

(** A tracker with no background domain yet — the tuning domain is spawned
    lazily on the first queued task and joined by {!shutdown}. *)
val create : ?config:config -> unit -> t

(** The policy the tracker was created with. *)
val config : t -> config

(** Count one serving step over [dispatchers] (the engine calls this per
    executed batch with its executable's dispatchers); every
    [scan_interval] observations triggers {!scan} of them. *)
val observe : t -> Dispatch.t list -> unit

(** Scan each given dispatcher's extent histogram now and queue a tuning
    task for each hot extent that is not already tuned or pending. Pending
    work is de-duplicated by dispatcher, not by kernel name, since names
    repeat across models. Dispatchers that have never run are skipped
    (their weight dims are unknown). *)
val scan : t -> Dispatch.t list -> unit

(** Fraction of [d]'s dispatch calls served by a specialized body (residue
    or tuned) rather than the guarded fallback, this measurement window. *)
val hit_rate : Dispatch.t -> float

(** Block until the queue is empty and no task is in flight. *)
val drain : t -> unit

(** Stop accepting tasks, finish the queue, and join the tuning domain.
    Idempotent. *)
val shutdown : t -> unit

(** Completed installs, oldest first. *)
val installs : t -> install list

(** Register a callback invoked (on the tuning domain) after each install —
    the serve engine uses this to record [vm.retune] trace spans. *)
val set_notify : t -> (install -> unit) -> unit

(** Lifetime counters and installs at this instant (callable any time). *)
val summary : t -> summary
