(** The fleet tier: many models served side by side, each with its own
    shard pool, admission controller, and per-bucket circuit breakers
    (architecture: [docs/SERVING.md]; failure policy:
    [docs/ROBUSTNESS.md]).

    A fleet owns one {!Cache} (compile-once, snapshot/restore) and one
    {!Engine} per model. Weighted fair scheduling is capacity
    partitioning: the fleet's worker budget is split across models
    proportionally to their weights (largest-remainder rounding, at
    least one worker each), so under saturation each model's throughput
    tracks its share without a central scheduler domain. Each model gets
    its own SLO {!Admission} controller — service-time estimates never
    leak between models — and a lazy {!Breaker} per (model, bucket)
    lane, consulted before the engine sees the request: an open lane
    answers [Error Tripped] immediately.

    Checkpoint/warm-restart: {!snapshot} persists every model's
    executable, live tune table, and observed arena-bound hints through
    {!Cache.snapshot}; {!warm_restart} shuts one model's shard pool
    down, relinks its executable from disk {e without recompiling}, and
    brings up a fresh pool whose workers pre-bind their arenas at the
    snapshotted hints. *)

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
let default_config =
  {
    total_workers = 4;
    engine = Engine.default_config;
    admission = Some Admission.default_config;
    breaker = Some Breaker.default_config;
  }

type model = {
  m_weight : int;
  m_workers : int;
  mutable m_engine : Engine.t;
  m_admission : Admission.t option;
  m_mux : Mutex.t;  (** guards breakers, observed buckets, engine swap *)
  m_breakers : (string, Breaker.t) Hashtbl.t;  (** bucket key -> breaker *)
  m_observed : (string, int array) Hashtbl.t;
      (** bucket key -> bucket dims, for snapshot arena hints *)
  mutable m_restarts : int;  (** {!warm_restart}s performed *)
}

type t = {
  cfg : config;
  func : string;
  cache : Cache.t;
  order : string list;  (** model names in {!create} order *)
  models : (string, model) Hashtbl.t;
  trace : Nimble_vm.Trace.t option;
}

(** Split [total] workers across [weights] proportionally
    (largest-remainder rounding), guaranteeing one worker per model. *)
let allocate_workers ~total weights =
  let n = Array.length weights in
  let sum = Array.fold_left ( + ) 0 weights in
  if sum <= 0 then Array.make n 1
  else begin
    let exact =
      Array.map
        (fun w -> float_of_int (w * Stdlib.max n total) /. float_of_int sum)
        weights
    in
    let alloc = Array.map (fun e -> Stdlib.max 1 (int_of_float e)) exact in
    let used = Array.fold_left ( + ) 0 alloc in
    (* hand leftover workers to the largest fractional remainders *)
    let order =
      List.sort
        (fun a b ->
          Float.compare
            (exact.(b) -. Float.of_int alloc.(b))
            (exact.(a) -. Float.of_int alloc.(a)))
        (List.init n Fun.id)
    in
    let leftover = ref (Stdlib.max 0 (Stdlib.max n total - used)) in
    List.iter
      (fun i ->
        if !leftover > 0 then begin
          alloc.(i) <- alloc.(i) + 1;
          decr leftover
        end)
      order;
    alloc
  end

(** Bring up a fleet: cold-load every spec through the shared cache (the
    serialize/verify/relink deployment path) and start one engine per
    model with its weighted worker share.
    @param options compiler options for the cold loads.
    @param func the VM function served by every model (default ["main"]).
    @param trace shared span recorder handed to every engine.
    @raise Invalid_argument on an empty spec list, a duplicate name, a
    non-positive weight, or a non-positive worker budget. *)
let create ?options ?trace ?(config = default_config) ?(func = "main")
    (specs : spec list) : t =
  if specs = [] then Fmt.invalid_arg "Fleet.create: no models";
  if config.total_workers < 1 then
    Fmt.invalid_arg "Fleet.create: total_workers %d" config.total_workers;
  List.iter
    (fun s ->
      if s.weight < 1 then
        Fmt.invalid_arg "Fleet.create: model %s weight %d" s.name s.weight)
    specs;
  let cache = Cache.create () in
  let weights = Array.of_list (List.map (fun s -> s.weight) specs) in
  let shares = allocate_workers ~total:config.total_workers weights in
  let models = Hashtbl.create (List.length specs) in
  List.iteri
    (fun i (s : spec) ->
      if Hashtbl.mem models s.name then
        Fmt.invalid_arg "Fleet.create: duplicate model %s" s.name;
      let exe = Cache.load ?options cache ~name:s.name ~build:s.build in
      let admission =
        Option.map (fun c -> Admission.create ~config:c ()) config.admission
      in
      let engine_cfg = { config.engine with Engine.workers = shares.(i) } in
      let engine =
        Engine.create ~config:engine_cfg ?trace ?admission ~func exe
      in
      Hashtbl.replace models s.name
        {
          m_weight = s.weight;
          m_workers = shares.(i);
          m_engine = engine;
          m_admission = admission;
          m_mux = Mutex.create ();
          m_breakers = Hashtbl.create 4;
          m_observed = Hashtbl.create 4;
          m_restarts = 0;
        })
    specs;
  {
    cfg = config;
    func;
    cache;
    order = List.map (fun s -> s.name) specs;
    models;
    trace;
  }

let find t name =
  match Hashtbl.find_opt t.models name with
  | Some m -> m
  | None -> Fmt.invalid_arg "Fleet: unknown model %s" name

let with_mutex mux f =
  Mutex.lock mux;
  Fun.protect ~finally:(fun () -> Mutex.unlock mux) f

(** A claim on one fleet request; resolve with {!wait}. *)
type ticket = {
  tk_eng : Engine.ticket;
  tk_breaker : Breaker.t option;
  tk_probe : bool;
  tk_recorded : bool Atomic.t;  (** breaker outcome recorded exactly once *)
}

(** Submit one request to [model]. The (model, bucket) breaker is
    consulted first — an open lane answers [Error Tripped] without
    touching the engine (and without counting against the model's
    queue). A HalfOpen probe that the engine refuses ([Rejected] /
    [Shed]) is recorded as a failed trial, so the breaker can never
    wedge waiting on a probe that never ran.
    @raise Invalid_argument on an unknown model. *)
let submit ?timeout_us t ~model ~shape input :
    (ticket, Engine.error) result =
  let m = find t model in
  let key = Bucket.key_string t.cfg.engine.Engine.policy shape in
  let breaker =
    with_mutex m.m_mux (fun () ->
        if not (Hashtbl.mem m.m_observed key) then
          Hashtbl.replace m.m_observed key
            (Bucket.key t.cfg.engine.Engine.policy shape);
        match t.cfg.breaker with
        | None -> None
        | Some bcfg -> (
            match Hashtbl.find_opt m.m_breakers key with
            | Some b -> Some b
            | None ->
                let b = Breaker.create ~config:bcfg () in
                Hashtbl.replace m.m_breakers key b;
                Some b))
  in
  let decision =
    match breaker with None -> Breaker.Allow | Some b -> Breaker.admit b
  in
  match decision with
  | Breaker.Shed -> Error Engine.Tripped
  | Breaker.Allow | Breaker.Probe -> (
      let probe = decision = Breaker.Probe in
      match Engine.submit ?timeout_us m.m_engine ~shape input with
      | Ok tk ->
          Ok
            {
              tk_eng = tk;
              tk_breaker = breaker;
              tk_probe = probe;
              tk_recorded = Atomic.make false;
            }
      | Error e ->
          (* the engine refused at admission; a probe must still resolve
             or the HalfOpen budget leaks *)
          (if probe then
             match breaker with
             | Some b -> Breaker.record ~probe:true b ~ok:false
             | None -> ());
          Error e)

(** Block for the request's outcome and feed it to the lane's breaker:
    VM failures ([Error (Failed _)]) count against the lane; timeouts
    and queue pressure do not (they are load, which admission owns) —
    except for a probe, which must actually succeed to vouch for the
    lane. Safe to call multiple times; the breaker sees one record. *)
let wait (tk : ticket) : Engine.outcome =
  let outcome = Engine.wait tk.tk_eng in
  (match tk.tk_breaker with
  | Some b when not (Atomic.exchange tk.tk_recorded true) ->
      let ok =
        match outcome with
        | Ok _ -> true
        | Error (Engine.Failed _) -> false
        | Error _ -> not tk.tk_probe
      in
      Breaker.record ~probe:tk.tk_probe b ~ok
  | _ -> ());
  outcome

(** {!submit} then {!wait}. *)
let run ?timeout_us t ~model ~shape input : Engine.outcome =
  match submit ?timeout_us t ~model ~shape input with
  | Ok tk -> wait tk
  | Error e -> Error e

(** The model's live engine (stats, direct submission in tests). The
    handle goes stale across {!warm_restart}.
    @raise Invalid_argument on an unknown model. *)
let engine t ~model = (find t model).m_engine

(** Model names in {!create} order. *)
let models t = t.order

(** (weight, workers) for a model.
    @raise Invalid_argument on an unknown model. *)
let share t ~model =
  let m = find t model in
  (m.m_weight, m.m_workers)

(** The shared executable cache (snapshot plumbing, hit/miss counters). *)
let cache t = t.cache

(** Per-model frozen statistics, in {!create} order. *)
let model_stats t =
  List.map (fun name -> (name, Engine.stats (find t name).m_engine)) t.order

(** Sum a model's breaker counters across its (bucket) lanes, plus how
    many lanes exist and how many are currently not Closed. *)
let breaker_totals t ~model =
  let m = find t model in
  with_mutex m.m_mux (fun () ->
      Hashtbl.fold
        (fun _key b (acc, lanes, open_lanes) ->
          let c = Breaker.counters b in
          ( {
              Breaker.c_trips = acc.Breaker.c_trips + c.Breaker.c_trips;
              c_shed = acc.Breaker.c_shed + c.Breaker.c_shed;
              c_reopens = acc.Breaker.c_reopens + c.Breaker.c_reopens;
              c_closes = acc.Breaker.c_closes + c.Breaker.c_closes;
            },
            lanes + 1,
            open_lanes + (if Breaker.state b = Breaker.Closed then 0 else 1) ))
        m.m_breakers
        ({ Breaker.c_trips = 0; c_shed = 0; c_reopens = 0; c_closes = 0 }, 0, 0))

(** Checkpoint the whole fleet to [dir]: every model's executable and
    live tune table, plus the bucket shapes each model has actually
    served (the arena hints a restarted shard pre-warms at). Each
    checkpoint lands in a fresh [gen-N] subdirectory; [keep] (default 2)
    generations are retained — see {!Cache.snapshot}. Returns the model
    count written. I/O passes the ["snapshot_io"] fault point. *)
let snapshot ?keep t ~dir : int =
  let hints =
    List.map
      (fun name ->
        let m = find t name in
        let dims =
          with_mutex m.m_mux (fun () ->
              Hashtbl.fold (fun _k d acc -> d :: acc) m.m_observed [])
          |> List.sort compare
        in
        (name, dims))
      t.order
  in
  Cache.snapshot ~hints ?keep t.cache ~dir

(** Warm-restart one model from the snapshot in [dir]: shut its shard
    pool down, relink the snapshotted executable from the model's cached
    compile ({e no recompilation}), replay its tune table, and start a
    fresh pool whose workers pre-bind plan arenas at the snapshotted
    hints before taking traffic. The model's admission estimate and
    breaker lanes survive the restart; the engine's counters start
    fresh. Returns the {!Cache.restored} record for the model.
    @raise Invalid_argument on an unknown model; {!Cache.restore}
    failures propagate. *)
let warm_restart t ~dir ~model : Cache.restored =
  let m = find t model in
  Engine.shutdown m.m_engine;
  let restored = Cache.restore t.cache ~dir in
  match List.find_opt (fun r -> r.Cache.r_name = model) restored with
  | None -> Fmt.failwith "snapshot at %s does not contain model %s" dir model
  | Some r ->
      with_mutex m.m_mux (fun () ->
          let engine_cfg =
            {
              t.cfg.engine with
              Engine.workers = m.m_workers;
              warm_hints = r.Cache.r_arena_hints;
            }
          in
          m.m_engine <-
            Engine.create ~config:engine_cfg ?trace:t.trace
              ?admission:m.m_admission ~func:t.func r.Cache.r_exe;
          m.m_restarts <- m.m_restarts + 1);
      r

(** Drain and stop every model's engine. Idempotent. *)
let shutdown t =
  List.iter (fun name -> Engine.shutdown (find t name).m_engine) t.order

(** The [fleet] JSON section for [nimble-profile/v1] (see
    [docs/OBSERVABILITY.md]): per-model weight/worker share, restarts,
    the model's [server] stats, and its summed breaker counters. *)
let fleet_json t : Nimble_vm.Json.t =
  let open Nimble_vm.Json in
  let per_model =
    List.map
      (fun name ->
        let m = find t name in
        let c, lanes, open_lanes = breaker_totals t ~model:name in
        ( name,
          Obj
            [
              ("weight", Int m.m_weight);
              ("workers", Int m.m_workers);
              ("restarts", Int m.m_restarts);
              ("server", Stats.summary_to_json (Engine.stats m.m_engine));
              ( "breakers",
                Obj
                  [
                    ("lanes", Int lanes);
                    ("open_lanes", Int open_lanes);
                    ("trips", Int c.Breaker.c_trips);
                    ("shed", Int c.Breaker.c_shed);
                    ("reopens", Int c.Breaker.c_reopens);
                    ("closes", Int c.Breaker.c_closes);
                  ] );
            ] ))
      t.order
  in
  let totals =
    List.fold_left
      (fun (trips, shed) name ->
        let c, _, _ = breaker_totals t ~model:name in
        (trips + c.Breaker.c_trips, shed + c.Breaker.c_shed))
      (0, 0) t.order
  in
  Obj
    [
      ("total_workers", Int t.cfg.total_workers);
      ("trips", Int (fst totals));
      ("breaker_shed", Int (snd totals));
      ("models", Obj per_model);
    ]
