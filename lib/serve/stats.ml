(** Serving-engine statistics: admission counters, batch-size histogram,
    and a latency reservoir summarized as p50/p99.

    All recorders take the engine-wide mutex, so any domain (submitters,
    VM workers) can report. [summary] freezes a
    consistent snapshot; [summary_to_json] renders the [server] section
    embedded in [nimble-profile/v1] documents (see
    [docs/OBSERVABILITY.md]). *)

type t = {
  mux : Mutex.t;
  mutable submitted : int;
  mutable completed : int;
  mutable rejected : int;  (** refused at admission (queue full) *)
  mutable shed_admission : int;
      (** refused at admission by SLO control: the deadline provably
          could not be met, so the request never entered the queue *)
  mutable shed_flush : int;
      (** deadline passed while queued; found when a worker formed its
          batch, so the request never ran *)
  mutable timeouts : int;
      (** deadline passed inside a taken batch, while earlier members
          ran; the request reached a worker but was not executed *)
  mutable errors : int;  (** VM faults surfaced to the client *)
  mutable batches : int;
  mutable queue_depth_hwm : int;
  batch_hist : (int, int) Hashtbl.t;  (** batch size -> count *)
  mutable latencies_us : float array;  (** submit-to-complete, growable *)
  mutable n_latencies : int;
  mutable frame_reuses : int;  (** VM register-frame reuses across workers *)
  mutable arena_hits : int;  (** storage-pool hits across workers *)
  mutable allocs : int;  (** storage allocations performed across workers *)
  mutable arena_reuses : int;
      (** symbolic-plan arena rebinds (persistent arena reused instead of
          allocated) across workers *)
  mutable retries : int;  (** transient failures retried by workers *)
  mutable worker_restarts : int;  (** worker domains resurrected after dying *)
  failure_kinds : (string, int) Hashtbl.t;
      (** typed-failure kind name -> count (subset sum of [errors]) *)
}

let create () =
  {
    mux = Mutex.create ();
    submitted = 0;
    completed = 0;
    rejected = 0;
    shed_admission = 0;
    shed_flush = 0;
    timeouts = 0;
    errors = 0;
    batches = 0;
    queue_depth_hwm = 0;
    batch_hist = Hashtbl.create 8;
    latencies_us = Array.make 1024 0.0;
    n_latencies = 0;
    frame_reuses = 0;
    arena_hits = 0;
    allocs = 0;
    arena_reuses = 0;
    retries = 0;
    worker_restarts = 0;
    failure_kinds = Hashtbl.create 8;
  }

let locked t f =
  Mutex.lock t.mux;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.mux) f

let record_submit t = locked t (fun () -> t.submitted <- t.submitted + 1)
let record_reject t = locked t (fun () -> t.rejected <- t.rejected + 1)
let record_timeout t = locked t (fun () -> t.timeouts <- t.timeouts + 1)

(** One request refused by SLO-aware admission control (deadline
    provably unmeetable; never queued). *)
let record_shed_admission t =
  locked t (fun () -> t.shed_admission <- t.shed_admission + 1)

(** One request whose deadline passed while queued, found when a worker
    formed its batch (it never ran). *)
let record_shed_flush t =
  locked t (fun () -> t.shed_flush <- t.shed_flush + 1)
let record_error t = locked t (fun () -> t.errors <- t.errors + 1)
let record_retry t = locked t (fun () -> t.retries <- t.retries + 1)

let record_worker_restart t =
  locked t (fun () -> t.worker_restarts <- t.worker_restarts + 1)

(** One request completed with [Error (Failed _)]: bumps [errors] and the
    per-kind tally ([kind] is [Interp.kind_name] of the failure). *)
let record_failure t ~kind =
  locked t (fun () ->
      t.errors <- t.errors + 1;
      Hashtbl.replace t.failure_kinds kind
        (1 + Option.value ~default:0 (Hashtbl.find_opt t.failure_kinds kind)))

(** One completed request with its submit-to-complete latency. *)
let record_complete t ~latency_us =
  locked t (fun () ->
      t.completed <- t.completed + 1;
      if t.n_latencies = Array.length t.latencies_us then begin
        let bigger = Array.make (2 * t.n_latencies) 0.0 in
        Array.blit t.latencies_us 0 bigger 0 t.n_latencies;
        t.latencies_us <- bigger
      end;
      t.latencies_us.(t.n_latencies) <- latency_us;
      t.n_latencies <- t.n_latencies + 1)

(** One formed batch of [size] requests. *)
let record_batch t ~size =
  locked t (fun () ->
      t.batches <- t.batches + 1;
      Hashtbl.replace t.batch_hist size
        (1 + Option.value ~default:0 (Hashtbl.find_opt t.batch_hist size)))

(** Fold the submission queue's high-water mark into the stats. *)
let observe_queue_depth t depth =
  locked t (fun () -> t.queue_depth_hwm <- Stdlib.max t.queue_depth_hwm depth)

(** Accumulate a worker's per-batch VM reuse counters: frame reuses,
    pool hits, storage allocations performed, and symbolic-plan arena
    rebinds (all deltas over the batch). *)
let record_reuse t ~frame_reuses ~arena_hits ~allocs ~arena_reuses =
  locked t (fun () ->
      t.frame_reuses <- t.frame_reuses + frame_reuses;
      t.arena_hits <- t.arena_hits + arena_hits;
      t.allocs <- t.allocs + allocs;
      t.arena_reuses <- t.arena_reuses + arena_reuses)

(* ------------------------------ summary ------------------------------ *)

type summary = {
  s_submitted : int;
  s_completed : int;
  s_rejected : int;
  s_shed_admission : int;
  s_shed_flush : int;
  s_timeouts : int;
  s_errors : int;
  s_batches : int;
  s_queue_depth_hwm : int;
  s_batch_hist : (int * int) list;  (** (size, count), ascending size *)
  s_mean_batch : float;
  s_p50_ms : float;  (** 0 when nothing completed *)
  s_p99_ms : float;
  s_mean_ms : float;
  s_frame_reuses : int;
  s_arena_hits : int;
  s_allocs_per_request : float;  (** storage allocations / completed request *)
  s_arena_reuses : int;  (** symbolic-plan arena rebinds across workers *)
  s_retries : int;
  s_worker_restarts : int;
  s_failure_kinds : (string * int) list;  (** (kind, count), sorted by kind *)
}

let percentile sorted n p =
  if n = 0 then 0.0
  else
    let idx = int_of_float (ceil (p *. float_of_int n)) - 1 in
    sorted.(Stdlib.max 0 (Stdlib.min (n - 1) idx))

(** Freeze a consistent snapshot (percentiles computed here, not online). *)
let summary t : summary =
  locked t (fun () ->
      let n = t.n_latencies in
      let sorted = Array.sub t.latencies_us 0 n in
      Array.sort Float.compare sorted;
      let hist =
        List.sort
          (fun (a, _) (b, _) -> compare a b)
          (Hashtbl.fold (fun k v acc -> (k, v) :: acc) t.batch_hist [])
      in
      let batched = List.fold_left (fun acc (s, c) -> acc + (s * c)) 0 hist in
      let mean_lat =
        if n = 0 then 0.0
        else Array.fold_left ( +. ) 0.0 sorted /. float_of_int n
      in
      {
        s_submitted = t.submitted;
        s_completed = t.completed;
        s_rejected = t.rejected;
        s_shed_admission = t.shed_admission;
        s_shed_flush = t.shed_flush;
        s_timeouts = t.timeouts;
        s_errors = t.errors;
        s_batches = t.batches;
        s_queue_depth_hwm = t.queue_depth_hwm;
        s_batch_hist = hist;
        s_mean_batch =
          (if t.batches = 0 then 0.0
           else float_of_int batched /. float_of_int t.batches);
        s_p50_ms = percentile sorted n 0.50 /. 1e3;
        s_p99_ms = percentile sorted n 0.99 /. 1e3;
        s_mean_ms = mean_lat /. 1e3;
        s_frame_reuses = t.frame_reuses;
        s_arena_hits = t.arena_hits;
        s_allocs_per_request =
          float_of_int t.allocs /. float_of_int (Stdlib.max 1 t.completed);
        s_arena_reuses = t.arena_reuses;
        s_retries = t.retries;
        s_worker_restarts = t.worker_restarts;
        s_failure_kinds =
          List.sort
            (fun (a, _) (b, _) -> String.compare a b)
            (Hashtbl.fold (fun k v acc -> (k, v) :: acc) t.failure_kinds []);
      })

(** The [server] JSON section ([nimble-profile/v1]; see
    [docs/OBSERVABILITY.md]). *)
let summary_to_json (s : summary) : Nimble_vm.Json.t =
  let open Nimble_vm.Json in
  Obj
    [
      ("submitted", Int s.s_submitted);
      ("completed", Int s.s_completed);
      ("rejected", Int s.s_rejected);
      ("shed_admission", Int s.s_shed_admission);
      ("shed_flush", Int s.s_shed_flush);
      ("timeouts", Int s.s_timeouts);
      ("errors", Int s.s_errors);
      ("batches", Int s.s_batches);
      ("queue_depth_hwm", Int s.s_queue_depth_hwm);
      ( "batch_hist",
        Obj (List.map (fun (k, v) -> (string_of_int k, Int v)) s.s_batch_hist) );
      ("mean_batch", Float s.s_mean_batch);
      ("p50_ms", Float s.s_p50_ms);
      ("p99_ms", Float s.s_p99_ms);
      ("mean_ms", Float s.s_mean_ms);
      ("frame_reuses", Int s.s_frame_reuses);
      ("arena_hits", Int s.s_arena_hits);
      ("allocs_per_request", Float s.s_allocs_per_request);
      ("arena_reuses", Int s.s_arena_reuses);
      ("retries", Int s.s_retries);
      ("worker_restarts", Int s.s_worker_restarts);
      ( "failure_kinds",
        Obj (List.map (fun (k, v) -> (k, Int v)) s.s_failure_kinds) );
    ]

let pp_summary ppf (s : summary) =
  Fmt.pf ppf
    "@[<v>submitted %d  completed %d  rejected %d  shed %d+%d  timeouts %d  \
     errors %d@,\
     batches %d (mean size %.2f)  queue hwm %d@,\
     latency ms: p50 %.3f  p99 %.3f  mean %.3f@,\
     warm state: frame reuses %d, arena hits %d, arena rebinds %d, \
     allocs/request %.3f@,\
     resilience: retries %d, worker restarts %d%a@]"
    s.s_submitted s.s_completed s.s_rejected s.s_shed_admission s.s_shed_flush
    s.s_timeouts s.s_errors s.s_batches
    s.s_mean_batch s.s_queue_depth_hwm s.s_p50_ms s.s_p99_ms s.s_mean_ms
    s.s_frame_reuses s.s_arena_hits s.s_arena_reuses s.s_allocs_per_request
    s.s_retries s.s_worker_restarts
    (fun ppf kinds ->
      if kinds <> [] then
        Fmt.pf ppf ", failures:%a"
          (fun ppf -> List.iter (fun (k, v) -> Fmt.pf ppf " %s=%d" k v))
          kinds)
    s.s_failure_kinds
