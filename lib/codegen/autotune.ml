(** Online profile-guided shape specialization — closes the loop from
    hot-shape profiling to live dispatch-table re-tuning (paper §4.5's
    workload-distribution extension; DyCL-style serve-time recompilation).

    A hotness tracker scans the exact-extent histograms of the dispatchers
    it is handed (the serving engine passes those of its executable); when
    an extent's dispatch count crosses [hot_threshold], a tuning task is
    queued to a single background domain (off the serve hot path — at pool
    width 1 the shared pool has no worker domains, so the tuner owns its
    own; its kernel measurements run under [Parallel.pinned_sequential] so
    they never contend for pool workers).
    The task runs {!Tuner.tune} with [shape_weights] from the observed
    distribution and the hot extent as stand-in, then installs the winner
    into the live table via {!Dispatch.install_tuned} — one CAS, no pause;
    in-flight requests keep the old kernel and outputs stay bitwise-equal
    because every dense kernel computes identical results. *)

type config = {
  hot_threshold : int;  (** dispatch count at which an extent is hot *)
  scan_interval : int;  (** {!observe} calls between hotness scans *)
  max_exact : int;  (** live tuned-entry cap per dispatcher *)
  synchronous : bool;  (** run tuning inline on the calling domain (tests) *)
  repeats : int;  (** {!Tuner.measure} timed runs per point *)
  warmup : int;  (** {!Tuner.measure} priming runs per point *)
}

let default_config =
  { hot_threshold = 32; scan_interval = 64; max_exact = 16;
    synchronous = false; repeats = 3; warmup = 1 }

type install = {
  in_kernel : string;
  in_extent : int;
  in_tile_m : int;
  in_hit_rate_before : float;  (** specialized-call fraction at queue time *)
  in_seconds : float;  (** tuning wall time (monotonic) *)
}

type summary = {
  au_observations : int;
  au_scans : int;
  au_queued : int;
  au_installs : install list;  (** oldest first *)
  au_evictions : int;
  au_pending : int;  (** queued or running tasks not yet installed *)
}

type task = { tk_dispatch : Dispatch.t; tk_extent : int; tk_hit_rate_before : float }

type t = {
  cfg : config;
  mux : Mutex.t;
  cond : Condition.t;
  queue : task Queue.t;
  mutable pending : (Dispatch.t * int) list;
      (** (dispatcher, extent) queued or in flight; dispatchers compare
          physically, since kernel names repeat across models *)
  mutable in_flight : int;
  mutable worker : unit Domain.t option;
  mutable stopped : bool;
  mutable installs : install list;  (** newest first *)
  mutable evictions : int;
  mutable scans : int;
  mutable queued : int;
  mutable notify : install -> unit;
  observations : int Atomic.t;
}

let create ?(config = default_config) () =
  {
    cfg = config;
    mux = Mutex.create ();
    cond = Condition.create ();
    queue = Queue.create ();
    pending = [];
    in_flight = 0;
    worker = None;
    stopped = false;
    installs = [];
    evictions = 0;
    scans = 0;
    queued = 0;
    notify = (fun _ -> ());
    observations = Atomic.make 0;
  }

let config t = t.cfg

let set_notify t f =
  Mutex.lock t.mux;
  t.notify <- f;
  Mutex.unlock t.mux

(* The fraction of dispatch calls served by a specialized body (residue or
   tuned) rather than the guarded fallback — the hit-rate the bench/report
   compares before vs after specialization. *)
let hit_rate d =
  let hits, misses = Dispatch.stats d in
  let tuned = Dispatch.tuned_calls d in
  let total = hits + misses + tuned in
  if total = 0 then 0.0 else float_of_int (hits + tuned) /. float_of_int total

(* Run one tuning task to completion on the calling domain. Measurements
   are pinned sequential so a tuning run never fans out onto pool workers
   that serve traffic. *)
let run_task t task =
  let d = task.tk_dispatch in
  match Dispatch.observed_dims d with
  | None -> None
  | Some (n, k) ->
      let hist = Dispatch.extent_histogram d in
      let total = List.fold_left (fun acc (_, c) -> acc + c) 0 hist in
      let weights =
        if total = 0 then [ (task.tk_extent, 1.0) ]
        else List.map (fun (m, c) -> (m, float_of_int c /. float_of_int total)) hist
      in
      let eval_extents =
        let es = List.map fst hist in
        if List.mem task.tk_extent es then es else task.tk_extent :: es
      in
      let t0 = Monotonic_clock.now () in
      let r =
        Nimble_parallel.Parallel.pinned_sequential (fun () ->
            Tuner.tune ~static_stand_in:task.tk_extent ~eval_extents
              ~shape_weights:weights ~repeats:t.cfg.repeats ~warmup:t.cfg.warmup
              ~n ~k ())
      in
      let seconds =
        Int64.to_float (Int64.sub (Monotonic_clock.now ()) t0) /. 1e9
      in
      let snap = Dispatch.snapshot_of d in
      Dispatch.install_tuned ~max_exact:t.cfg.max_exact d ~extent:task.tk_extent
        ~tile_m:r.Tuner.best.tile_m;
      let evicted = (Dispatch.snapshot_of d).Dispatch.snap_evictions - snap.Dispatch.snap_evictions in
      Some
        ( {
            in_kernel = Dispatch.name d;
            in_extent = task.tk_extent;
            in_tile_m = r.Tuner.best.tile_m;
            in_hit_rate_before = task.tk_hit_rate_before;
            in_seconds = seconds;
          },
          max 0 evicted )

let same_task task (d, extent) = d == task.tk_dispatch && extent = task.tk_extent

let finish t task outcome =
  Mutex.lock t.mux;
  t.pending <- List.filter (fun p -> not (same_task task p)) t.pending;
  t.in_flight <- t.in_flight - 1;
  let notify = t.notify in
  (match outcome with
  | Some (inst, evicted) ->
      t.installs <- inst :: t.installs;
      t.evictions <- t.evictions + evicted
  | None -> ());
  Condition.broadcast t.cond;
  Mutex.unlock t.mux;
  match outcome with Some (inst, _) -> notify inst | None -> ()

let worker_main t =
  let rec loop () =
    Mutex.lock t.mux;
    while Queue.is_empty t.queue && not t.stopped do
      Condition.wait t.cond t.mux
    done;
    if t.stopped && Queue.is_empty t.queue then (
      Mutex.unlock t.mux)
    else begin
      let task = Queue.pop t.queue in
      t.in_flight <- t.in_flight + 1;
      Mutex.unlock t.mux;
      let outcome = try run_task t task with _ -> None in
      finish t task outcome;
      loop ()
    end
  in
  loop ()

(* Queue a task, lazily spawning the background domain; in synchronous mode
   run it inline instead. Caller holds no lock. *)
let enqueue t task =
  let is_new () = not (List.exists (same_task task) t.pending) in
  if t.cfg.synchronous then begin
    Mutex.lock t.mux;
    let fresh = is_new () in
    if fresh then begin
      t.pending <- (task.tk_dispatch, task.tk_extent) :: t.pending;
      t.queued <- t.queued + 1;
      t.in_flight <- t.in_flight + 1
    end;
    Mutex.unlock t.mux;
    if fresh then finish t task (try run_task t task with _ -> None)
  end
  else begin
    Mutex.lock t.mux;
    if (not t.stopped) && is_new () then begin
      t.pending <- (task.tk_dispatch, task.tk_extent) :: t.pending;
      t.queued <- t.queued + 1;
      Queue.push task t.queue;
      if t.worker = None then t.worker <- Some (Domain.spawn (fun () -> worker_main t));
      Condition.broadcast t.cond
    end;
    Mutex.unlock t.mux
  end

let scan t dispatchers =
  Mutex.lock t.mux;
  t.scans <- t.scans + 1;
  Mutex.unlock t.mux;
  List.iter
    (fun d ->
      match Dispatch.observed_dims d with
      | None -> ()
      | Some _ ->
          let rate = hit_rate d in
          Dispatch.extent_histogram d
          |> List.iter (fun (extent, count) ->
                 if count >= t.cfg.hot_threshold
                    && Dispatch.pretuned d ~extent = None
                 then
                   enqueue t
                     { tk_dispatch = d; tk_extent = extent; tk_hit_rate_before = rate }))
    dispatchers

let observe t dispatchers =
  let n = Atomic.fetch_and_add t.observations 1 + 1 in
  if n mod t.cfg.scan_interval = 0 then scan t dispatchers

let drain t =
  Mutex.lock t.mux;
  while not (Queue.is_empty t.queue && t.in_flight = 0) do
    Condition.wait t.cond t.mux
  done;
  Mutex.unlock t.mux

let shutdown t =
  Mutex.lock t.mux;
  t.stopped <- true;
  Condition.broadcast t.cond;
  let w = t.worker in
  t.worker <- None;
  Mutex.unlock t.mux;
  Option.iter Domain.join w

let summary t =
  Mutex.lock t.mux;
  let s =
    {
      au_observations = Atomic.get t.observations;
      au_scans = t.scans;
      au_queued = t.queued;
      au_installs = List.rev t.installs;
      au_evictions = t.evictions;
      au_pending = Queue.length t.queue + t.in_flight;
    }
  in
  Mutex.unlock t.mux;
  s

let installs t = (summary t).au_installs
