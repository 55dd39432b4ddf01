(** The serving engine: shape-bucketed dynamic batching over a pool of
    VM workers.

    {v
      clients --submit--> [pending queue] --pop_batch--> workers
                 (bounded: full = reject)  (oldest request  (one Interp + ctx
                                            + bucket-mates)  each, warm arenas
                                                             and frames)
    v}

    - {b Admission}: {!submit} never blocks. A full pending queue is an
      immediate [Error Rejected] — backpressure by refusal, so a stalled
      server sheds load instead of queueing unboundedly.
    - {b Batching}: an idle worker takes the oldest pending request plus
      up to [max_batch - 1] queued requests of the same {!Bucket} key,
      in submission order; every other request stays queued in order.
      A worker never waits for a batch to fill: batches form only from a
      real backlog, so no request waits while a worker is idle.
    - {b Execution}: each worker owns one {!Nimble_vm.Interp.t} over the
      shared executable plus a reusable {!Nimble_vm.Interp.ctx}, so a
      steady-state request allocates neither a register frame nor (after
      warmup, per distinct shape) storage. Every request runs at its
      {e exact} shape — bucketing affects scheduling and memory reuse
      only — so batched results are bitwise-identical to unbatched runs.
    - {b Deadlines}: a request whose deadline passes before execution —
      checked when a worker takes its batch and again just before the
      request runs — is completed with [Error Timed_out] without running
      (admission control for stale work); one that started executing
      runs to the end.
    - {b Failures}: a request whose execution fails completes with
      [Error (Failed failure)] carrying the VM's typed failure; the
      worker survives. Transient failures (injected faults in transient
      mode) are retried up to [max_retries] times with deadline-aware
      exponential backoff before surfacing. A worker whose batch escapes
      the typed channel entirely is supervised: stranded requests are
      answered, the interpreter is rebuilt, and the worker keeps
      consuming (see [docs/ROBUSTNESS.md]).
    - {b Shutdown}: {!shutdown} closes admission, drains every queued
      request through the workers, then joins the worker domains.

    When more than one worker runs, workers execute kernels under
    {!Nimble_parallel.Parallel.pinned_sequential}: request-level
    parallelism owns the cores and the single-slot kernel pool is never
    contended (results are identical either way). With one worker,
    kernels keep fanning out over the domain pool, so [--domains]
    composes with serving in both regimes. *)

module Interp = Nimble_vm.Interp
module Obj = Nimble_vm.Obj
module Trace = Nimble_vm.Trace
module Parallel = Nimble_parallel.Parallel
module Fault = Nimble_fault.Fault

type error =
  | Rejected  (** admission refused: the submission queue was full *)
  | Timed_out  (** the deadline passed before execution started *)
  | Shed
      (** SLO-aware admission refused the request: given the current
          queue depth and the observed service-time estimate, its
          deadline provably could not be met (see {!Admission}) *)
  | Tripped
      (** the (model, bucket) circuit breaker is open: the fleet is
          shedding this lane while it recovers (see {!Breaker}; never
          produced by a bare engine) *)
  | Failed of Interp.failure
      (** the VM failed; the typed failure says what, where, and whether
          it was transient (retries, if any, were already spent) *)

type outcome = (Obj.t, error) result

type config = {
  workers : int;  (** VM worker domains (each owns an interpreter) *)
  queue_capacity : int;  (** pending-queue bound; beyond it, reject *)
  max_batch : int;  (** most same-bucket requests one worker takes at once *)
  policy : Bucket.policy;  (** shape-bucketing policy *)
  default_timeout_us : float option;
      (** deadline applied to requests submitted without one *)
  max_retries : int;
      (** per-request retries of {e transient} failures (injected faults
          in transient mode); persistent failures are never retried *)
  retry_backoff_us : float;
      (** base backoff before the first retry; doubles per attempt, with
          a small deterministic jitter *)
  pool_cap_bytes : int option;
      (** per-worker cap on VM storage retained across requests; an
          allocation that would exceed it fails as [Alloc] (see
          [Interp.create]'s [max_pool_bytes]) *)
  warm_hints : int array list;
      (** bucket-bound shapes each worker pre-binds its plan arenas at
          before serving (a restored snapshot's arena hints, so a warm
          restart reaches steady-state memory behaviour on its first
          batch; see [docs/SERVING.md]) *)
}

let default_config =
  {
    workers = 2;
    queue_capacity = 64;
    max_batch = 8;
    policy = Bucket.default;
    default_timeout_us = None;
    max_retries = 3;
    retry_backoff_us = 200.0;
    pool_cap_bytes = None;
    warm_hints = [];
  }

(* A one-shot result cell (ivar): filled exactly once by the engine,
   awaited by the submitting client. *)
type cell = {
  cm : Mutex.t;
  cc : Condition.t;
  mutable value : outcome option;
}

type request = {
  input : Obj.t;
  bucket : string;
  bucket_dims : int array;  (** the bucket's upper-bound shape, {!Bucket.key} *)
  submit_s : float;  (** Unix time at submission *)
  deadline_s : float option;
  cell : cell;
}

type ticket = cell

type t = {
  cfg : config;
  exe : Nimble_vm.Exe.t;
  func : string;
  stats : Stats.t;
  trace : Trace.t option;
  trace_mux : Mutex.t;  (** Trace.t is single-writer; serialize serve spans *)
  autotune : Nimble_codegen.Autotune.t option;
      (** online shape specializer; observed once per executed batch *)
  dispatchers : Nimble_codegen.Dispatch.t list;
      (** the executable's dense dispatchers, the ones the tuner scans *)
  admission : Admission.t option;
      (** SLO-aware admission controller: consulted (and fed service
          observations) only when the caller attached one *)
  pending : request Squeue.t;
  form_mux : Mutex.t;  (** held by the one worker forming a batch *)
  mutable workers : unit Domain.t list;
  mutable stopped : bool;  (** set by [shutdown]; guarded by [stop_mux] *)
  stop_mux : Mutex.t;
}

let now () = Unix.gettimeofday ()

(* Fill the one-shot cell; [true] iff this call was the one that filled
   it. The supervisor uses the return to count only requests it actually
   answered (a cell may already hold a result from before the crash). *)
let try_fill (c : cell) (v : outcome) : bool =
  Mutex.lock c.cm;
  let filled =
    if c.value = None then begin
      c.value <- Some v;
      true
    end
    else false
  in
  Condition.broadcast c.cc;
  Mutex.unlock c.cm;
  filled

let fill (c : cell) (v : outcome) = ignore (try_fill c v)

(** Block until the engine completes the ticket's request. *)
let wait (tk : ticket) : outcome =
  Mutex.lock tk.cm;
  while tk.value = None do
    Condition.wait tk.cc tk.cm
  done;
  let v = Option.get tk.value in
  Mutex.unlock tk.cm;
  v

let record_span t ~name ~ts_us ~dur_us args =
  match t.trace with
  | None -> ()
  | Some tr ->
      Mutex.lock t.trace_mux;
      Trace.record tr ~name ~cat:Trace.cat_serve ~ts_us ~dur_us args;
      Mutex.unlock t.trace_mux

let trace_now t =
  match t.trace with
  | None -> 0.0
  | Some tr ->
      Mutex.lock t.trace_mux;
      let v = Trace.now_us tr in
      Mutex.unlock t.trace_mux;
      v

(* ------------------------------ workers ------------------------------ *)

let expired r t_now = match r.deadline_s with Some d -> t_now > d | None -> false

(* Deterministic backoff before retry [attempt] (0-based): exponential in
   the attempt with a small per-worker jitter, so colliding workers
   desynchronize without any global randomness (chaos runs replay). *)
let retry_delay_s t ~attempt ~worker_id =
  let base = t.cfg.retry_backoff_us /. 1e6 in
  let d = base *. float_of_int (1 lsl Stdlib.min attempt 16) in
  let jitter =
    float_of_int (((worker_id * 31) + (attempt * 7)) mod 10) /. 20.0
  in
  d *. (0.9 +. jitter)

let exec_request t vm ctx ~worker_id (r : request) =
  let t_now = now () in
  if expired r t_now then begin
    Stats.record_timeout t.stats;
    fill r.cell (Error Timed_out);
    record_span t ~name:"serve.exec" ~ts_us:(trace_now t) ~dur_us:0.0
      [
        ("bucket", Trace.Str r.bucket);
        ("worker", Trace.Int worker_id);
        ("outcome", Trace.Str "timeout");
      ]
  end
  else begin
    let ts_us = trace_now t in
    (* retry transiently-failed invocations with bounded, deadline-aware
       exponential backoff; persistent and undiagnosed failures surface
       immediately. Exceptions (Preempted, configuration errors) escape
       to the worker supervisor. *)
    let rec attempt_exec attempt =
      match Interp.invoke_result ~func:t.func ~ctx vm [ r.input ] with
      | Ok result -> Ok result
      | Error fl
        when fl.Interp.fail_transient && attempt < t.cfg.max_retries ->
          let delay = retry_delay_s t ~attempt ~worker_id in
          let fits_deadline =
            match r.deadline_s with
            | Some d -> now () +. delay <= d
            | None -> true
          in
          if not fits_deadline then Error fl
          else begin
            Stats.record_retry t.stats;
            record_span t ~name:"serve.retry" ~ts_us:(trace_now t)
              ~dur_us:(delay *. 1e6)
              [
                ("bucket", Trace.Str r.bucket);
                ("worker", Trace.Int worker_id);
                ("attempt", Trace.Int (attempt + 1));
                ("kind", Trace.Str (Interp.kind_name fl.Interp.fail_kind));
              ];
            Unix.sleepf delay;
            attempt_exec (attempt + 1)
          end
      | Error fl -> Error fl
    in
    let outcome =
      match attempt_exec 0 with
      | Ok result -> Ok result
      | Error fl -> Error (Failed fl)
    in
    let done_s = now () in
    (match outcome with
    | Ok _ ->
        Stats.record_complete t.stats ~latency_us:((done_s -. r.submit_s) *. 1e6);
        (* feed the SLO admission estimator with this request's worker
           occupancy (execution only, not queueing: the estimator scales
           it by queue depth itself) *)
        Option.iter
          (fun adm -> Admission.observe adm ~service_us:((done_s -. t_now) *. 1e6))
          t.admission
    | Error (Failed fl) ->
        Stats.record_failure t.stats ~kind:(Interp.kind_name fl.Interp.fail_kind);
        record_span t ~name:"serve.fail" ~ts_us:(trace_now t) ~dur_us:0.0
          [
            ("bucket", Trace.Str r.bucket);
            ("worker", Trace.Int worker_id);
            ("kind", Trace.Str (Interp.kind_name fl.Interp.fail_kind));
            ("transient", Trace.Bool fl.Interp.fail_transient);
            ("msg", Trace.Str fl.Interp.fail_msg);
          ]
    | Error _ -> Stats.record_error t.stats);
    fill r.cell outcome;
    record_span t ~name:"serve.exec" ~ts_us ~dur_us:(trace_now t -. ts_us)
      [
        ("bucket", Trace.Str r.bucket);
        ("worker", Trace.Int worker_id);
        ( "outcome",
          Trace.Str (match outcome with Ok _ -> "ok" | Error _ -> "error") );
      ]
  end

(* Deadline check on a batch a worker just took: members whose deadline
   passed while queued are answered [Timed_out] here and never run
   ([shed_flush]); the live rest, if any, is counted and traced as one
   [serve.batch]. A member that expires later, while an earlier member
   runs, is a [timeouts] at execution instead: separate counters, same
   client-visible outcome. *)
let form_batch t reqs =
  let t_now = now () in
  let live, dead = List.partition (fun r -> not (expired r t_now)) reqs in
  List.iter
    (fun r ->
      Stats.record_shed_flush t.stats;
      fill r.cell (Error Timed_out))
    dead;
  (match live with
  | [] -> ()
  | r :: _ ->
      Stats.record_batch t.stats ~size:(List.length live);
      record_span t ~name:"serve.batch" ~ts_us:(trace_now t) ~dur_us:0.0
        [ ("bucket", Trace.Str r.bucket); ("size", Trace.Int (List.length live)) ]);
  live

(* Block until the pending queue yields a batch ([None] once it is closed
   and drained). Workers take turns under [form_mux], so the [serve.batch]
   spans of a bucket are recorded in queue order: a trace reader joins a
   bucket's k-th accepted request to the k-th member of its batches. *)
let next_batch t =
  Mutex.protect t.form_mux (fun () ->
      Squeue.pop_batch t.pending ~max:t.cfg.max_batch
        ~same:(fun a b -> String.equal a.bucket b.bucket)
      |> Option.map (form_batch t))

let worker_main t worker_id () =
  (* one interpreter and one execution context per worker: private
     storage arenas and a private register frame, both reused across
     every request this worker ever runs *)
  let fresh_state () =
    (Interp.create ?max_pool_bytes:t.cfg.pool_cap_bytes t.exe,
     Interp.context ())
  in
  let state = ref (fresh_state ()) in
  let pin = t.cfg.workers > 1 in
  (* pre-bind plan arenas at every snapshot-restored bucket bound, so the
     first served batch already reuses a warm arena instead of growing one *)
  let warm_from_hints vm =
    List.iter
      (fun dims ->
        ignore
          (Interp.warm_arenas ~func:t.func vm (fun i ->
               if i = 0 then Some dims else None)))
      t.cfg.warm_hints
  in
  warm_from_hints (fst !state);
  (* warm the persistent plan arenas at the bucket's upper-bound shape
     before the batch runs *)
  let warm_bucket vm r =
    let ts_us = trace_now t in
    let bound =
      Interp.warm_arenas ~func:t.func vm (fun i ->
          if i = 0 then Some r.bucket_dims else None)
    in
    if bound > 0 then
      record_span t ~name:"serve.arena_bind" ~ts_us
        ~dur_us:(trace_now t -. ts_us)
        [
          ("bucket", Trace.Str r.bucket);
          ("worker", Trace.Int worker_id);
          ("plans", Trace.Int bound);
        ]
  in
  let run_batch r reqs =
    Fault.check "worker_loop";
    let vm, ctx = !state in
    let ts_us = trace_now t in
    let frames0 = Interp.frame_reuses ctx in
    let prof = Interp.profiler vm in
    let hits0 = prof.Nimble_vm.Profiler.pool_hits in
    let allocs0 = Nimble_vm.Profiler.allocs prof in
    let rebinds0 = prof.Nimble_vm.Profiler.arena_rebinds in
    warm_bucket vm r;
    List.iter (exec_request t vm ctx ~worker_id) reqs;
    (* one hotness observation per executed batch: cheap (an atomic
       increment), and every [scan_interval]-th call walks this
       executable's dispatchers for hot extents to re-tune in the
       background *)
    Option.iter
      (fun au -> Nimble_codegen.Autotune.observe au t.dispatchers)
      t.autotune;
    Stats.record_reuse t.stats
      ~frame_reuses:(Interp.frame_reuses ctx - frames0)
      ~arena_hits:(prof.Nimble_vm.Profiler.pool_hits - hits0)
      ~allocs:(Nimble_vm.Profiler.allocs prof - allocs0)
      ~arena_reuses:(prof.Nimble_vm.Profiler.arena_rebinds - rebinds0);
    record_span t ~name:"serve.batch_exec" ~ts_us ~dur_us:(trace_now t -. ts_us)
      [
        ("bucket", Trace.Str r.bucket);
        ("size", Trace.Int (List.length reqs));
        ("worker", Trace.Int worker_id);
      ]
  in
  (* supervisor: a batch whose execution escapes the typed channel (an
     injected worker_loop fault, Preempted, a configuration error) would
     otherwise kill this domain and strand its batch — and, with it, every
     client blocked in [wait]. Answer whatever the dead run left unfilled,
     rebuild the interpreter (its pool may be mid-mutation), and keep
     consuming. *)
  let supervise_batch r reqs =
    try
      if pin then Parallel.pinned_sequential (fun () -> run_batch r reqs)
      else run_batch r reqs
    with e ->
      let msg =
        match e with
        | Fault.Injected { point; _ } -> Fmt.str "injected fault at %s" point
        | e -> Printexc.to_string e
      in
      let fl = Interp.internal_failure ~func:t.func msg in
      List.iter
        (fun r ->
          if try_fill r.cell (Error (Failed fl)) then
            Stats.record_failure t.stats
              ~kind:(Interp.kind_name fl.Interp.fail_kind))
        reqs;
      Stats.record_worker_restart t.stats;
      record_span t ~name:"serve.worker_restart" ~ts_us:(trace_now t)
        ~dur_us:0.0
        [ ("worker", Trace.Int worker_id); ("reason", Trace.Str msg) ];
      state := fresh_state ();
      warm_from_hints (fst !state)
  in
  let rec loop () =
    match next_batch t with
    | None -> ()
    | Some [] -> loop ()
    | Some (r :: _ as reqs) ->
        supervise_batch r reqs;
        loop ()
  in
  loop ()

(* ------------------------------ lifecycle ----------------------------- *)

(** Start an engine over a linked executable: spawns exactly
    [config.workers] VM worker domains. @param func the VM function
    served (default ["main"]). @param trace record [serve.*] spans into
    this recorder (shared with nothing else; the engine serializes its
    own writes). @param autotune attach an online shape specializer: the
    engine observes it once per executed batch with the executable's
    dispatchers (driving its hotness scans) and records a [vm.retune]
    span for every live install. The caller keeps ownership —
    drain/shutdown it after {!shutdown}.
    @param admission attach an SLO-aware admission controller: requests
    whose deadline provably cannot be met are refused as [Error Shed] at
    submission, and the engine feeds the controller its per-request
    service-time observations. *)
let create ?(config = default_config) ?trace ?autotune ?admission
    ?(func = "main") exe =
  if config.workers < 1 then Fmt.invalid_arg "Engine.create: workers %d" config.workers;
  if config.max_batch < 1 then Fmt.invalid_arg "Engine.create: max_batch %d" config.max_batch;
  let t =
    {
      cfg = config;
      exe;
      func;
      stats = Stats.create ();
      trace;
      trace_mux = Mutex.create ();
      autotune;
      dispatchers = List.map snd (Nimble_vm.Exe.dispatchers exe);
      admission;
      pending = Squeue.create ~capacity:config.queue_capacity;
      form_mux = Mutex.create ();
      workers = [];
      stopped = false;
      stop_mux = Mutex.create ();
    }
  in
  (* every completed install becomes a [vm.retune] span: the swap itself
     is invisible to clients (outputs are bitwise-equal), so the trace is
     the only place a re-tune shows up *)
  Option.iter
    (fun au ->
      Nimble_codegen.Autotune.set_notify au (fun (i : Nimble_codegen.Autotune.install) ->
          record_span t ~name:"vm.retune" ~ts_us:(trace_now t)
            ~dur_us:(i.Nimble_codegen.Autotune.in_seconds *. 1e6)
            [
              ("kernel", Trace.Str i.Nimble_codegen.Autotune.in_kernel);
              ("extent", Trace.Int i.Nimble_codegen.Autotune.in_extent);
              ("tile_m", Trace.Int i.Nimble_codegen.Autotune.in_tile_m);
              ( "hit_rate_before",
                Trace.Str
                  (Fmt.str "%.3f" i.Nimble_codegen.Autotune.in_hit_rate_before) );
            ]))
    autotune;
  t.workers <-
    List.init config.workers (fun i -> Domain.spawn (worker_main t i));
  t

(** Submit one request. [shape] is the bucketing shape (for a sequence
    model, [[| seq |]]); [input] is the VM argument executed {e as is} —
    it is never padded. Returns a ticket to {!wait} on, or
    [Error Rejected] when the pending queue is full (backpressure).
    @param timeout_us per-request deadline from now, overriding
    [config.default_timeout_us]. *)
let submit ?timeout_us t ~shape (input : Obj.t) : (ticket, error) result =
  Stats.record_submit t.stats;
  let submit_s = now () in
  let timeout =
    match timeout_us with Some _ -> timeout_us | None -> t.cfg.default_timeout_us
  in
  (* SLO-aware admission: refuse work that provably cannot meet its
     deadline given the queue ahead of it and the observed service-time
     estimate — before it costs a queue slot or a worker pickup *)
  let slo_ok =
    match t.admission with
    | None -> true
    | Some adm ->
        Admission.admit adm ~queue_depth:(Squeue.length t.pending)
          ~workers:t.cfg.workers ~deadline_us:timeout
  in
  if not slo_ok then begin
    Stats.record_shed_admission t.stats;
    Error Shed
  end
  else
  let r =
    {
      input;
      bucket = Bucket.key_string t.cfg.policy shape;
      bucket_dims = Bucket.key t.cfg.policy shape;
      submit_s;
      deadline_s = Option.map (fun us -> submit_s +. (us /. 1e6)) timeout;
      cell = { cm = Mutex.create (); cc = Condition.create (); value = None };
    }
  in
  (* an injected queue_push fault is a refusal, not a crash: the request
     was never accepted, so it surfaces exactly like a full queue *)
  let accepted =
    match Squeue.try_push t.pending r with
    | ok -> ok
    | exception Fault.Injected _ -> false
  in
  if accepted then Ok r.cell
  else begin
    Stats.record_reject t.stats;
    Error Rejected
  end

(** {!submit} then {!wait}: the blocking convenience for clients that
    want one in-flight request. *)
let run ?timeout_us t ~shape input =
  match submit ?timeout_us t ~shape input with
  | Error e -> Error e
  | Ok tk -> wait tk

(** Stop workers from taking requests (the pending queue keeps filling —
    admission starts rejecting once it is full). For tests and drain
    drills. *)
let pause t = Squeue.hold t.pending

(** Let workers take requests again after {!pause}. *)
let resume t = Squeue.release t.pending

(** Close admission, drain all in-flight work through the workers (even
    when paused), join the worker domains. Idempotent; concurrent calls
    are serialized. *)
let shutdown t =
  Mutex.lock t.stop_mux;
  let first = not t.stopped in
  t.stopped <- true;
  Mutex.unlock t.stop_mux;
  if first then begin
    Squeue.close t.pending;
    Stats.observe_queue_depth t.stats (Squeue.high_water t.pending);
    List.iter Domain.join t.workers;
    t.workers <- []
  end

(** Frozen statistics snapshot (callable while serving). *)
let stats t =
  Stats.observe_queue_depth t.stats (Squeue.high_water t.pending);
  Stats.summary t.stats

(** {!stats} as the [server] JSON section for [nimble-profile/v1]. *)
let server_json t = Stats.summary_to_json (stats t)

(** The engine's configuration (as given to {!create}). *)
let config t = t.cfg
