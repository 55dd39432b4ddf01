(** Served workloads: a two-layer MLP behind [Serve.Engine] with its
    default configuration, driven by one sender (the main domain) and one
    collector domain.

    Open loop: requests are due on a seeded Poisson schedule and each is
    timed from when it was due to when [Engine.wait] returns on the
    collector, so a stall also delays the requests queued behind it.
    Closed loop: the sender keeps a fixed number of requests outstanding
    and each is timed from submit to the collector seeing it.

    The traced phase joins the bench's timestamps to the engine's
    [serve.*] spans without program changes: the batch former is FIFO
    per bucket, so the k-th request sent to a bucket is the k-th member
    flushed by that bucket's [serve.batch] spans. *)

open Nimble_tensor
open Nimble_ir
module Engine = Nimble_serve.Engine
module Cache = Nimble_serve.Cache
module Squeue = Nimble_serve.Squeue
module Stats = Nimble_serve.Stats
module Trace = Nimble_vm.Trace
module Obj = Nimble_vm.Obj

type load =
  | Open_loop of float  (** Poisson arrivals at this many requests/s *)
  | Closed_loop of int  (** this many requests outstanding *)

(* ------------------------------- model -------------------------------- *)

let feature_dim = 64
let hidden_dim = 64
let out_dim = 32

(* Leading dims, drawn uniformly: they span four batch-former buckets
   that pad and two that stay exact. *)
let row_sizes = [| 1; 2; 4; 8; 12; 16; 24; 32 |]
let inputs_per_size = 8

let weights ~seed =
  let rng = Rng.create ~seed in
  let w1 = Tensor.randn ~scale:0.125 rng [| hidden_dim; feature_dim |] in
  (w1, Tensor.randn ~scale:0.125 rng [| out_dim; hidden_dim |])

(** [dense -> relu -> dense -> relu] over [Any x 64], built in IR. *)
let build ~seed () =
  let w1, w2 = weights ~seed in
  let x = Expr.fresh_var ~ty:(Ty.tensor [ Dim.Any; Dim.static feature_dim ]) "x" in
  let layer x w = Expr.op_call "relu" [ Expr.op_call "dense" [ x; Expr.Const w ] ] in
  Irmod.of_main (Expr.fn_def [ x ] (layer (layer (Expr.Var x) w1) w2))

(** The same MLP computed directly with tensor ops. *)
let reference ~seed x =
  let w1, w2 = weights ~seed in
  Ops_elem.relu (Ops_matmul.dense (Ops_elem.relu (Ops_matmul.dense x w1)) w2)

type item = { input : Obj.t; shape : int array; expected : Tensor.t }

let items ~seed =
  let rng = Rng.create ~seed:(seed + 1) in
  Array.concat
    (Array.to_list
       (Array.map
          (fun rows ->
            Array.init inputs_per_size (fun _ ->
                let x = Tensor.randn rng [| rows; feature_dim |] in
                { input = Obj.tensor x; shape = [| rows; feature_dim |]; expected = reference ~seed x }))
          row_sizes))

(** Request [k]'s item: every block of [row_sizes] requests holds each
    size once, in a seeded order, so every run serves the same rows. *)
let item_stream ~seed =
  let rng = Rng.create ~seed:(seed + 2) in
  let block = Array.make (Array.length row_sizes) 0 in
  fun k ->
    let j = k mod Array.length row_sizes in
    if j = 0 then begin
      Array.iteri (fun i _ -> block.(i) <- i) block;
      for i = Array.length block - 1 downto 1 do
        let r = Rng.int rng (i + 1) in
        let t = block.(i) in
        block.(i) <- block.(r);
        block.(r) <- t
      done
    end;
    (block.(j) * inputs_per_size) + Rng.int rng inputs_per_size

(* ------------------------------ requests ------------------------------ *)

(** One phase's requests, indexed in submission order; times are µs on
    {!Spans.now_us}. *)
type reqs = {
  item : int array;
  due : float array;
  sub0 : float array;  (** [Engine.submit] called *)
  sub1 : float array;  (** [Engine.submit] returned *)
  fin : float array;  (** [Engine.wait] returned on the collector *)
  accepted : bool array;  (** [Engine.submit] gave a ticket *)
  ok : bool array;  (** completed with a correct output *)
  mutable sent : int;
}

let make_reqs n =
  let f () = Array.make n 0.0 in
  {
    item = Array.make n 0;
    due = f ();
    sub0 = f ();
    sub1 = f ();
    fin = f ();
    accepted = Array.make n false;
    ok = Array.make n false;
    sent = 0;
  }

(* Closed-loop request cap per phase, far above what two cores reach. *)
let closed_loop_cap = 1 lsl 18

type server = {
  items : item array;
  outputs : Tensor.t option array;  (** first output per item *)
  next_item : int -> int;
}

let error_name = function
  | Engine.Rejected -> "rejected"
  | Engine.Timed_out -> "timed out"
  | Engine.Shed -> "shed"
  | Engine.Tripped -> "tripped"
  | Engine.Failed fl -> Fmt.str "%a" Nimble_vm.Interp.pp_failure fl

(** Check one response ({!Run.check_output}). *)
let check srv it outcome =
  match outcome with
  | Error e -> Error (error_name e)
  | Ok obj ->
      Result.map_error (Fmt.str "item %d: %s" it)
        (Run.check_output srv.outputs it ~reference:srv.items.(it).expected (Obj.to_tensor obj))

(** Drive [engine] for [seconds]: the main domain sends, one collector
    domain waits on the tickets in submission order and checks outputs.
    [schedule_seed] draws the open-loop arrival times. *)
let phase (run : Run.t) srv engine load ~seconds ~schedule_seed =
  Run.calibrate ~every:0.0 run;
  let clock () = Spans.now_us run.Run.spans in
  let n =
    match load with
    | Open_loop rate -> Stdlib.max 1 (int_of_float (Float.round (rate *. seconds)))
    | Closed_loop _ -> closed_loop_cap
  in
  let reqs = make_reqs n in
  let chan = Squeue.create ~capacity:(n + 1) in
  let slots =
    match load with
    | Closed_loop k -> Some (Semaphore.Counting.make k)
    | Open_loop _ -> None
  in
  let collector () =
    let failures = ref [] in
    let rec loop () =
      match Squeue.pop chan with
      | None -> List.rev !failures
      | Some (i, ticket) ->
          let outcome =
            match ticket with
            | Error e -> Error (error_name e)
            | Ok tk ->
                let outcome = Engine.wait tk in
                reqs.fin.(i) <- clock ();
                check srv reqs.item.(i) outcome
          in
          (match outcome with
          | Ok () -> reqs.ok.(i) <- true
          | Error msg -> failures := Fmt.str "request %d: %s" i msg :: !failures);
          Option.iter Semaphore.Counting.release slots;
          loop ()
    in
    loop ()
  in
  let collecting = Domain.spawn collector in
  let send i =
    reqs.item.(i) <- srv.next_item i;
    let it = srv.items.(reqs.item.(i)) in
    reqs.sub0.(i) <- clock ();
    let ticket = Engine.submit engine ~shape:it.shape it.input in
    reqs.sub1.(i) <- clock ();
    reqs.accepted.(i) <- Result.is_ok ticket;
    reqs.sent <- i + 1;
    ignore (Squeue.push chan (i, ticket))
  in
  Fun.protect
    ~finally:(fun () -> Squeue.close chan)
    (fun () ->
      match load with
      | Open_loop _ ->
          (* a Poisson process conditioned on its count: n sorted uniform
             arrival times, so every run offers exactly n requests *)
          let rng = Rng.create ~seed:schedule_seed in
          let offsets = Array.init n (fun _ -> 1e6 *. seconds *. Rng.float rng) in
          Array.sort Float.compare offsets;
          let start = clock () +. 1000.0 in
          Array.iteri
            (fun i off ->
              let due = start +. off in
              let ahead = due -. clock () in
              if ahead > 0.0 then Unix.sleepf (ahead /. 1e6);
              reqs.due.(i) <- due;
              send i)
            offsets
      | Closed_loop _ ->
          let deadline = clock () +. (1e6 *. seconds) in
          let i = ref 0 in
          while clock () < deadline && !i < n do
            Option.iter Semaphore.Counting.acquire slots;
            send !i;
            incr i
          done);
  let failures = Domain.join collecting in
  run.Run.attempted <- run.Run.attempted + reqs.sent;
  List.iter (fun msg -> Run.fail run "%s" msg) failures;
  reqs

(** Per-request latency in µs: from the due time (open loop) or the
    submit (closed loop) to the collector seeing the response. *)
let latency load reqs i =
  reqs.fin.(i) -. (match load with Open_loop _ -> reqs.due.(i) | Closed_loop _ -> reqs.sub0.(i))

(** [f i] over the requests that completed correctly. *)
let over_ok reqs f =
  let s = Sample.create () in
  for i = 0 to reqs.sent - 1 do
    if reqs.ok.(i) then Sample.add s (f i)
  done;
  s

(* ---------------------------- stage join ------------------------------ *)

let arg k (s : Trace.span) = List.assoc_opt k s.Trace.args

let str_arg k s = match arg k s with Some (Trace.Str v) -> v | _ -> ""
let int_arg k s = match arg k s with Some (Trace.Int v) -> v | _ -> -1

let find_or_add tbl k make =
  match Hashtbl.find_opt tbl k with
  | Some v -> v
  | None ->
      let v = make () in
      Hashtbl.replace tbl k v;
      v

let stage_names = [ "admit"; "batch_form"; "queue_wait"; "in_batch"; "exec"; "wake" ]

(** Split each correct request's latency into stages by joining the
    bench's timestamps to the engine's spans, using only the engine's
    ordering guarantees:
    - the k-th accepted request of a bucket is the k-th member of that
      bucket's [serve.batch] flushes;
    - a worker records each member's [serve.exec] span, then the
      batch's [serve.batch_exec] span, so in record order a batch's
      members are the worker's [serve.exec] spans since its previous
      batch;
    - a flush is matched to the earliest-started unmatched execution of
      its bucket and size.
    Consecutive stages share their boundary timestamps, so they add up
    to the latency from the submit call. Returns stage samples in µs
    and the number of requests that could not be joined. *)
let stages ~policy srv reqs spans =
  let members = Hashtbl.create 8 in
  for i = 0 to reqs.sent - 1 do
    if reqs.accepted.(i) then
      Queue.push i
        (find_or_add members
           (Nimble_serve.Bucket.key_string policy srv.items.(reqs.item.(i)).shape)
           Queue.create)
  done;
  let serve = List.filter (fun (s : Trace.span) -> s.Trace.cat = Trace.cat_serve) spans in
  let pending = Hashtbl.create 4 in
  let executed = Hashtbl.create 8 in
  List.iter
    (fun (s : Trace.span) ->
      let execs = find_or_add pending (int_arg "worker" s) (fun () -> ref []) in
      match s.Trace.name with
      | "serve.exec" -> execs := s :: !execs
      | "serve.batch_exec" ->
          let l = find_or_add executed (str_arg "bucket" s) (fun () -> ref []) in
          l := (s, List.rev !execs) :: !l;
          execs := []
      | _ -> ())
    serve;
  Hashtbl.iter
    (fun _ l ->
      l := List.stable_sort (fun ((a : Trace.span), _) (b, _) -> Float.compare a.Trace.ts_us b.Trace.ts_us) !l)
    executed;
  let take_batch bucket size =
    let l = find_or_add executed bucket (fun () -> ref []) in
    let rec go = function
      | [] -> (None, [])
      | ((be, _) as b) :: rest when int_arg "size" be = size -> (Some b, rest)
      | b :: rest ->
          let found, rest = go rest in
          (found, b :: rest)
    in
    let found, rest = go !l in
    l := rest;
    found
  in
  let samples = List.map (fun n -> (n, Sample.create ())) stage_names in
  let add n v = Sample.add (List.assoc n samples) v in
  let unjoined = ref 0 in
  List.iter
    (fun (flush : Trace.span) ->
      let bucket = str_arg "bucket" flush and size = int_arg "size" flush in
      let q = find_or_add members bucket Queue.create in
      let ids = List.init (Stdlib.min size (Queue.length q)) (fun _ -> Queue.pop q) in
      match take_batch bucket size with
      | Some (be, execs) when List.length ids = size && List.length execs = size ->
          List.iter2
            (fun i (e : Trace.span) ->
              if reqs.ok.(i) then begin
                add "admit" (reqs.sub1.(i) -. reqs.sub0.(i));
                add "batch_form" (flush.Trace.ts_us -. reqs.sub1.(i));
                add "queue_wait" (be.Trace.ts_us -. flush.Trace.ts_us);
                add "in_batch" (e.Trace.ts_us -. be.Trace.ts_us);
                add "exec" e.Trace.dur_us;
                add "wake" (reqs.fin.(i) -. (e.Trace.ts_us +. e.Trace.dur_us))
              end)
            ids execs
      | _ -> unjoined := !unjoined + size)
    (List.filter (fun (s : Trace.span) -> s.Trace.name = "serve.batch") serve);
  (samples, !unjoined)

(* ------------------------------ workload ------------------------------ *)

let run (run : Run.t) load : Run.result =
  let seed = run.Run.seed in
  let items = items ~seed in
  let srv = { items; outputs = Array.make (Array.length items) None; next_item = item_stream ~seed } in
  let setup () =
    let exe = Cache.load (Cache.create ()) ~name:"mlp" ~build:(build ~seed) in
    let engine = Engine.create exe in
    (match Engine.run engine ~shape:items.(0).shape items.(0).input with
    | Ok _ -> ()
    | Error e -> failwith ("first request " ^ error_name e));
    (exe, engine)
  in
  let setup_s, (exe, engine) =
    Run.time_setup
      ~dispose:(fun (_, e) -> Engine.shutdown e)
      (fun () -> Spans.span run.Run.spans "setup" setup)
  in
  ignore
    (phase run srv engine load
       ~seconds:(Float.min 1.0 (run.Run.seconds /. 10.0))
       ~schedule_seed:(seed + 10));
  let peak_rss_mb = Run.peak_rss_mb () in
  Nimble_codegen.Dispatch.reset_counters ();
  let s0 = Engine.stats engine in
  let reqs = phase run srv engine load ~seconds:(Run.phase_seconds run) ~schedule_seed:(seed + 11) in
  let s1 = Engine.stats engine in
  Engine.shutdown engine;
  let lat = over_ok reqs (latency load reqs) in
  let completed = float_of_int (Sample.count lat) in
  let rows = Sample.sum (over_ok reqs (fun i -> float_of_int items.(reqs.item.(i)).shape.(0))) in
  let wall_us =
    Sample.percentile (over_ok reqs (fun i -> reqs.fin.(i))) 100.0
    -. Sample.percentile (over_ok reqs (fun i -> reqs.sub0.(i))) 0.0
  in
  let end_to_end =
    [
      ("setup_s", setup_s);
      ("latency_p50_ms", Sample.median lat /. 1e3);
      ("us_per_token", wall_us /. rows);
      ("throughput_ops_s", completed /. (wall_us /. 1e6));
      ("peak_rss_mb", peak_rss_mb);
      ("exe_bytes", float_of_int (String.length (Nimble_vm.Serialize.to_bytes exe)));
    ]
  in
  if not run.Run.traced then { Run.end_to_end; per_layer = [] }
  else begin
    let d f = float_of_int (f s1 - f s0) in
    let batches = d (fun s -> s.Stats.s_batches) in
    let served = d (fun s -> s.Stats.s_completed) in
    let allocs (s : Stats.summary) =
      Float.round (s.Stats.s_allocs_per_request *. float_of_int s.Stats.s_completed)
    in
    let late =
      match load with
      | Open_loop _ -> Sample.percentile (over_ok reqs (fun i -> reqs.sub0.(i) -. reqs.due.(i))) 99.0 /. 1e3
      | Closed_loop _ -> 0.0
    in
    let untraced =
      [
        ("latency_p90_ms", Sample.percentile lat 90.0 /. 1e3);
        ("latency_p99_ms", Sample.percentile lat 99.0 /. 1e3);
        ("loadgen.late_p99_ms", late);
        ("serve.batches", batches);
        ("serve.mean_batch", Run.ratio served batches);
        ("serve.queue_depth_hwm", float_of_int s1.Stats.s_queue_depth_hwm);
        ("serve.allocs_per_request", Run.ratio (allocs s1 -. allocs s0) served);
        ("serve.rejected", d (fun s -> s.Stats.s_rejected));
        ("serve.timeouts", d (fun s -> s.Stats.s_timeouts + s.Stats.s_shed_flush));
        ("codegen.dispatch_hit_frac", Vm_loop.dispatch_hit_frac ());
      ]
    in
    let tr = Option.get run.Run.spans.Spans.program in
    let traced_engine = Engine.create ~trace:tr exe in
    let treqs =
      phase run srv traced_engine load ~seconds:(Run.phase_seconds run) ~schedule_seed:(seed + 12)
    in
    Engine.shutdown traced_engine;
    for i = 0 to treqs.sent - 1 do
      Spans.record run.Run.spans ~name:"submit" ~ts_us:treqs.sub0.(i)
        ~dur_us:(treqs.sub1.(i) -. treqs.sub0.(i)) [];
      if treqs.ok.(i) then
        Spans.record run.Run.spans ~name:"wait" ~ts_us:treqs.sub1.(i)
          ~dur_us:(treqs.fin.(i) -. treqs.sub1.(i)) []
    done;
    let samples, unjoined =
      stages ~policy:(Engine.config traced_engine).Engine.policy srv treqs (Trace.spans tr)
    in
    let stage n p = Sample.percentile (List.assoc n samples) p in
    let traced =
      [
        ("serve.admit_us_p50", stage "admit" 50.0);
        ("serve.admit_us_p99", stage "admit" 99.0);
        ("serve.batch_form_ms_p50", stage "batch_form" 50.0 /. 1e3);
        ("serve.batch_form_ms_p99", stage "batch_form" 99.0 /. 1e3);
        ("serve.queue_wait_ms_p50", stage "queue_wait" 50.0 /. 1e3);
        ("serve.queue_wait_ms_p99", stage "queue_wait" 99.0 /. 1e3);
        ("serve.in_batch_ms_p50", stage "in_batch" 50.0 /. 1e3);
        ("serve.exec_ms_p50", stage "exec" 50.0 /. 1e3);
        ("serve.exec_ms_p99", stage "exec" 99.0 /. 1e3);
        ("serve.wake_ms_p50", stage "wake" 50.0 /. 1e3);
        ("serve.unjoined", float_of_int unjoined);
        ("trace.dropped", float_of_int (Trace.dropped tr));
        ( "trace.overhead_frac",
          (Sample.median (over_ok treqs (latency load treqs)) /. Sample.median lat) -. 1.0 );
      ]
    in
    let compile = Compile_layers.profile run ~models:[ ("mlp", build ~seed) ] in
    { Run.end_to_end; per_layer = untraced @ traced @ compile }
  end
