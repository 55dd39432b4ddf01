(** The fleet tier: many models side by side, each with its own shard
    pool (weighted worker share), SLO {!Admission} controller, and lazy
    per-(model, bucket) {!Breaker} lanes; plus fleet-wide
    checkpoint/warm-restart through {!Cache}. Admission math, the
    breaker state diagram, and the snapshot format are documented in
    [docs/SERVING.md]. *)

type spec = {
  name : string;  (** model identifier (unique within the fleet) *)
  build : unit -> Nimble_ir.Irmod.t;  (** IR builder for the cold load *)
  weight : int;  (** fair-share weight (>= 1) *)
}

type config = {
  total_workers : int;  (** worker budget split across models by weight *)
  engine : Engine.config;
      (** per-model engine template; its [workers] field is replaced by
          the model's weighted share *)
  admission : Admission.config option;
      (** SLO admission per model; [None] disables shedding *)
  breaker : Breaker.config option;
      (** circuit breaking per (model, bucket); [None] disables *)
}

(** 4 workers total, the engine defaults, admission and breakers on with
    their default configs. *)
val default_config : config

type t

(** Bring up a fleet: cold-load every spec through one shared cache and
    start one engine per model with its weighted worker share
    (largest-remainder split, at least one worker each).
    @param options compiler options for the cold loads.
    @param trace shared span recorder handed to every engine.
    @param func the VM function served by every model (default ["main"]).
    @raise Invalid_argument on an empty spec list, a duplicate name, a
    non-positive weight, or a non-positive worker budget. *)
val create :
  ?options:Nimble_compiler.Nimble.options ->
  ?trace:Nimble_vm.Trace.t ->
  ?config:config -> ?func:string -> spec list -> t

(** A claim on one fleet request; resolve with {!wait}. *)
type ticket

(** Submit one request to [model]. The (model, bucket) breaker is
    consulted first: an open lane answers [Error Tripped] without
    touching the engine. A HalfOpen probe the engine refuses is recorded
    as a failed trial so the probe budget cannot leak.
    @param timeout_us per-request deadline from now.
    @raise Invalid_argument on an unknown model. *)
val submit :
  ?timeout_us:float -> t -> model:string -> shape:int array ->
  Nimble_vm.Obj.t -> (ticket, Engine.error) result

(** Block for the outcome and feed it to the lane's breaker (VM failures
    count against the lane; timeouts and queue pressure do not, except
    for probes, which must actually succeed). Safe to call repeatedly;
    the breaker sees exactly one record. *)
val wait : ticket -> Engine.outcome

(** {!submit} then {!wait}. *)
val run :
  ?timeout_us:float -> t -> model:string -> shape:int array ->
  Nimble_vm.Obj.t -> Engine.outcome

(** The model's live engine (stats, direct submission in tests); the
    handle goes stale across {!warm_restart}.
    @raise Invalid_argument on an unknown model. *)
val engine : t -> model:string -> Engine.t

(** Model names in {!create} order. *)
val models : t -> string list

(** (weight, workers) for a model.
    @raise Invalid_argument on an unknown model. *)
val share : t -> model:string -> int * int

(** The shared executable cache (snapshot plumbing, hit/miss counters). *)
val cache : t -> Cache.t

(** Per-model frozen statistics, in {!create} order. *)
val model_stats : t -> (string * Stats.summary) list

(** A model's breaker counters summed across its bucket lanes, plus
    (lane count, lanes currently not Closed).
    @raise Invalid_argument on an unknown model. *)
val breaker_totals : t -> model:string -> Breaker.counters * int * int

(** Checkpoint the fleet to [dir]: every model's executable, live tune
    table, and observed-bucket arena hints, under a versioned manifest
    in a fresh [gen-N] generation subdirectory with the newest [keep]
    (default 2) generations retained ({!Cache.snapshot}). Returns the
    model count written. *)
val snapshot : ?keep:int -> t -> dir:string -> int

(** Warm-restart one model from the snapshot in [dir]: shut its pool
    down, relink from the model's cached compile without recompiling,
    replay tunes, and start a fresh pool pre-warmed at the snapshotted
    arena hints. Admission estimates and breaker lanes survive; engine
    counters start fresh.
    @raise Invalid_argument on an unknown model; {!Cache.restore}
    failures propagate. *)
val warm_restart : t -> dir:string -> model:string -> Cache.restored

(** Drain and stop every model's engine. Idempotent. *)
val shutdown : t -> unit

(** The [fleet] JSON section for [nimble-profile/v1]
    ([docs/OBSERVABILITY.md]): per-model weight/worker share, restarts,
    [server] stats, and summed breaker counters. *)
val fleet_json : t -> Nimble_vm.Json.t
