(* Serving-engine tests: bucket policy, queue backpressure, the warm
   executable cache's serialize→link round trip, deadline timeouts,
   graceful-shutdown draining, and the headline guarantee — results
   served through the concurrent batching engine are bitwise-equal
   (Tensor.equal) to sequential single-request runs. *)

open Nimble_tensor
open Nimble_ir
open Nimble_serve
module Nimble = Nimble_compiler.Nimble
module Interp = Nimble_vm.Interp
module Obj = Nimble_vm.Obj

let tensor_bitwise = Alcotest.testable Tensor.pp Tensor.equal
let rng = Rng.create ~seed:97

(* dense(x, w) |> relu with a dynamic leading dimension: the smallest
   model that still exercises kernels, shape funcs and allocation *)
let feature_dim = 6
let out_dim = 4

let make_module w =
  let x = Expr.fresh_var ~ty:(Ty.tensor [ Dim.Any; Dim.static feature_dim ]) "x" in
  let body = Expr.op_call "relu" [ Expr.op_call "dense" [ Expr.Var x; Expr.Const w ] ] in
  Irmod.of_main (Expr.fn_def [ x ] body)

let shared_w = Tensor.randn rng [| out_dim; feature_dim |]
let shared_exe () = Nimble.compile (make_module shared_w)

(* ------------------------------ bucket ------------------------------ *)

let test_bucket_exact () =
  Alcotest.(check string) "identity" "7x6" (Bucket.key_string Bucket.Exact [| 7; 6 |]);
  Alcotest.(check string) "distinct" "8x6" (Bucket.key_string Bucket.Exact [| 8; 6 |])

let test_bucket_pad () =
  let p = Bucket.Pad { multiple = 8; max_over = 4.0 } in
  Alcotest.(check string) "rounds up" "8x8" (Bucket.key_string p [| 7; 6 |]);
  Alcotest.(check string) "exact multiple kept" "16x8" (Bucket.key_string p [| 16; 8 |]);
  Alcotest.(check string) "shares a bucket" (Bucket.key_string p [| 6; 7 |])
    (Bucket.key_string p [| 8; 8 |])

let test_bucket_cap () =
  (* padding 1x1 to 8x8 is a 64x blowup: the cap must fall back to exact *)
  let p = Bucket.Pad { multiple = 8; max_over = 2.0 } in
  Alcotest.(check string) "cap falls back to exact" "1x1" (Bucket.key_string p [| 1; 1 |]);
  (* 7x6=42 -> 8x8=64 is 1.52x: under the cap, padded *)
  Alcotest.(check string) "under cap pads" "8x8" (Bucket.key_string p [| 7; 6 |])

(* ------------------------------ squeue ------------------------------ *)

let test_squeue_backpressure () =
  let q = Squeue.create ~capacity:2 in
  Alcotest.(check bool) "push 1" true (Squeue.try_push q 1);
  Alcotest.(check bool) "push 2" true (Squeue.try_push q 2);
  Alcotest.(check bool) "full rejects" false (Squeue.try_push q 3);
  Alcotest.(check int) "high water" 2 (Squeue.high_water q);
  Squeue.close q;
  Alcotest.(check bool) "closed rejects" false (Squeue.try_push q 4);
  Alcotest.(check (option int)) "drains 1" (Some 1) (Squeue.pop q);
  Alcotest.(check (option int)) "drains 2" (Some 2) (Squeue.pop q);
  Alcotest.(check (option int)) "then None" None (Squeue.pop q)

(* Close semantics under concurrent producers: domains race try_push
   against a close landing mid-stream. Every element a producer saw
   accepted must be drained by the consumer — close refuses new pushes
   but never drops accepted ones — and nothing deadlocks. *)
let test_squeue_close_race () =
  let producers = 4 and per_producer = 200 in
  let q = Squeue.create ~capacity:32 in
  let accepted = Atomic.make 0 in
  let producer _ =
    Domain.spawn (fun () ->
        for i = 1 to per_producer do
          if Squeue.try_push q i then ignore (Atomic.fetch_and_add accepted 1)
        done)
  in
  let drained = ref 0 in
  let consumer =
    Domain.spawn (fun () ->
        let rec loop () =
          match Squeue.pop q with
          | Some _ ->
              incr drained;
              loop ()
          | None -> ()
        in
        loop ())
  in
  let doms = List.init producers producer in
  (* close races the producers mid-stream *)
  Unix.sleepf 0.002;
  Squeue.close q;
  List.iter Domain.join doms;
  Domain.join consumer;
  Alcotest.(check bool) "closed" true (Squeue.closed q);
  Alcotest.(check int) "accepted == drained" (Atomic.get accepted) !drained;
  Alcotest.(check int) "queue empty after drain" 0 (Squeue.length q);
  (* closed queue keeps refusing; pop keeps returning None *)
  Alcotest.(check bool) "closed rejects" false (Squeue.try_push q 0);
  Alcotest.(check (option int)) "closed pop" None (Squeue.pop q)

(* pop_batch takes the oldest element plus its later matches, in order,
   up to [max], and leaves everything else queued in order; a hold stops
   consumers while producers fill the queue, and close overrides it. *)
let test_squeue_pop_batch_hold () =
  let opt_list = Alcotest.(option (list int)) in
  (* the bucket of [x] is its last digit *)
  let same a b = a mod 10 = b mod 10 in
  let q = Squeue.create ~capacity:8 in
  List.iter
    (fun x -> Alcotest.(check bool) "push" true (Squeue.try_push q x))
    [ 11; 12; 21; 31; 22; 41; 13; 51 ];
  Alcotest.check opt_list "oldest + matches, capped by max" (Some [ 11; 21; 31 ])
    (Squeue.pop_batch q ~max:3 ~same);
  Alcotest.check opt_list "non-matching kept their order" (Some [ 12; 22 ])
    (Squeue.pop_batch q ~max:8 ~same);
  Alcotest.check opt_list "matches skip over others" (Some [ 41; 51 ])
    (Squeue.pop_batch q ~max:8 ~same);
  Alcotest.check opt_list "a lone element" (Some [ 13 ]) (Squeue.pop_batch q ~max:8 ~same);
  Alcotest.(check int) "empty" 0 (Squeue.length q);
  (* a hold blocks consumers while producers fill the queue *)
  Squeue.hold q;
  let taken = Atomic.make 0 in
  let consumer =
    Domain.spawn (fun () ->
        let b = Squeue.pop_batch q ~max:8 ~same:(fun _ _ -> true) in
        Atomic.set taken (match b with Some l -> List.length l | None -> -1);
        b)
  in
  for i = 1 to 8 do
    Alcotest.(check bool) "push while held" true (Squeue.try_push q i)
  done;
  Alcotest.(check bool) "held queue still refuses at capacity" false (Squeue.try_push q 9);
  Unix.sleepf 0.02;
  Alcotest.(check int) "held: nothing taken" 0 (Atomic.get taken);
  Alcotest.(check int) "held: queue full" 8 (Squeue.length q);
  Squeue.release q;
  Alcotest.check opt_list "release wakes the consumer" (Some [ 1; 2; 3; 4; 5; 6; 7; 8 ])
    (Domain.join consumer);
  (* close overrides a hold: a blocked consumer drains, then sees None *)
  List.iter (fun x -> ignore (Squeue.try_push q x)) [ 1; 2; 3 ];
  Squeue.hold q;
  let drainer =
    Domain.spawn (fun () ->
        let rec drain acc =
          match Squeue.pop_batch q ~max:2 ~same:(fun _ _ -> true) with
          | Some b -> drain (acc @ [ b ])
          | None -> acc
        in
        drain [])
  in
  Unix.sleepf 0.01;
  Squeue.close q;
  Alcotest.(check (list (list int))) "close drains a held queue" [ [ 1; 2 ]; [ 3 ] ]
    (Domain.join drainer);
  Alcotest.(check (option int)) "then pop sees None" None (Squeue.pop q)

(* --------------------------- warm exe cache --------------------------- *)

let test_cache_roundtrip () =
  let cache = Cache.create () in
  let build () = make_module shared_w in
  let exe1 = Cache.load cache ~name:"dense_relu" ~build in
  Alcotest.(check int) "one cold load" 1 (Cache.misses cache);
  let exe2 = Cache.load cache ~name:"dense_relu" ~build in
  Alcotest.(check int) "one warm load" 1 (Cache.hits cache);
  Alcotest.(check bool) "same linked instance" true (exe1 == exe2);
  Alcotest.(check bool) "linked after round trip" true (Nimble_vm.Exe.linked exe1);
  Alcotest.(check bool) "serialized size recorded" true
    (match Cache.serialized_bytes cache ~name:"dense_relu" with
    | Some n -> n > 0
    | None -> false);
  (* the round-tripped executable computes the same function as a
     directly compiled one (to f32 precision — constants are stored as
     float32, matching test_serialize), and is deterministic across
     interpreter instances (bitwise) *)
  let input = Tensor.randn rng [| 5; feature_dim |] in
  let direct = Interp.run_tensors (Nimble.vm (shared_exe ())) [ input ] in
  let via_cache = Interp.run_tensors (Interp.create exe1) [ input ] in
  Alcotest.(check bool) "cold-load result (f32-close to direct compile)" true
    (Tensor.approx_equal ~atol:1e-5 ~rtol:1e-5 direct via_cache);
  let again = Interp.run_tensors (Interp.create exe1) [ input ] in
  Alcotest.check tensor_bitwise "deterministic across interpreters" via_cache again

(* ----------------- concurrency: batched == sequential ----------------- *)

let n_clients = 4
let shapes_per_client = [ 1; 3; 5; 7; 8; 13 ]

let test_concurrent_bitwise () =
  let exe = shared_exe () in
  (* distinct input per (client, shape), pre-generated on one domain so
     the reference and the served run see the very same tensors *)
  let inputs =
    Array.init n_clients (fun _c ->
        List.map
          (fun rows ->
            (rows, Tensor.randn rng [| rows; feature_dim |]))
          shapes_per_client)
  in
  let reference =
    let vm = Interp.create exe in
    Array.map
      (fun per_client ->
        List.map (fun (_, x) -> Interp.run_tensors vm [ x ]) per_client)
      inputs
  in
  let engine =
    Engine.create
      ~config:
        {
          Engine.default_config with
          workers = 2;
          max_batch = 4;
          queue_capacity = 256;
        }
      exe
  in
  let client c () =
    List.map
      (fun (rows, x) ->
        match Engine.submit engine ~shape:[| rows |] (Obj.tensor x) with
        | Ok tk -> tk
        | Error _ -> Alcotest.fail "unexpected reject")
      inputs.(c)
    |> List.map Engine.wait
  in
  let domains = List.init n_clients (fun c -> Domain.spawn (client c)) in
  let outcomes = List.map Domain.join domains in
  Engine.shutdown engine;
  List.iteri
    (fun c per_client ->
      List.iteri
        (fun i outcome ->
          match outcome with
          | Ok (Obj.Tensor p) ->
              Alcotest.check tensor_bitwise
                (Printf.sprintf "client %d shape %d" c i)
                (List.nth reference.(c) i)
                p.Obj.data
          | Ok _ -> Alcotest.fail "non-tensor result"
          | Error _ -> Alcotest.fail "request failed")
        per_client)
    outcomes;
  let s = Engine.stats engine in
  Alcotest.(check int) "all submitted" (n_clients * List.length shapes_per_client)
    s.Stats.s_submitted;
  Alcotest.(check int) "all completed" (n_clients * List.length shapes_per_client)
    s.Stats.s_completed;
  Alcotest.(check int) "none rejected" 0 s.Stats.s_rejected;
  Alcotest.(check bool) "batches formed" true (s.Stats.s_batches > 0);
  Alcotest.(check bool) "histogram populated" true (s.Stats.s_batch_hist <> []);
  Alcotest.(check bool) "frames reused" true (s.Stats.s_frame_reuses > 0)

(* ------------- one executable on several domains at once ------------- *)

(* Serve workers share one executable's packed functions across domains.
   Three domains, each with its own interpreter over every shared
   executable, run zoo bert, treelstm and posenc sample inputs over and
   over, each domain starting at a different input so that different
   and identical packed functions overlap; every output must be bitwise
   what a sequential run gives. posenc's proven shape function evaluates
   values at shape-function time, so it is among them. *)
let test_shared_exe_domains () =
  let cases =
    List.concat_map
      (fun name ->
        let m = Option.get (Nimble_workloads.Zoo.find name) in
        let exe = Nimble.compile (m.build ()) in
        List.map (fun seq -> (Fmt.str "%s seq=%d" name seq, exe, m.sample_input ~seq)) [ 3; 12 ])
      [ "bert"; "treelstm"; "posenc" ]
  in
  let run vm x = Obj.to_tensor (Interp.invoke vm [ x ]) in
  let reference = List.map (fun (_, exe, x) -> run (Interp.create exe) x) cases in
  let n = List.length cases and rounds = 4 in
  let worker d () =
    let vms = Array.of_list (List.map (fun (_, exe, _) -> Interp.create exe) cases) in
    let xs = Array.of_list cases in
    List.init (rounds * n) (fun k ->
        let i = (k + (d * 2)) mod n in
        let _, _, x = xs.(i) in
        (i, run vms.(i) x))
  in
  let domains = List.init 3 (fun d -> Domain.spawn (worker d)) in
  List.iteri
    (fun d results ->
      List.iter
        (fun (i, out) ->
          let label, _, _ = List.nth cases i in
          Alcotest.check tensor_bitwise
            (Fmt.str "domain %d: %s" d label)
            (List.nth reference i) out)
        results)
    (List.map Domain.join domains)

(* -------------------- backpressure and timeouts -------------------- *)

let test_engine_backpressure () =
  let exe = shared_exe () in
  let engine =
    Engine.create
      ~config:
        {
          Engine.default_config with
          workers = 1;
          queue_capacity = 4;
          max_batch = 64;
        }
      exe
  in
  Engine.pause engine;
  let x = Tensor.randn rng [| 2; feature_dim |] in
  (* a paused engine takes nothing from the queue: exactly the 4 submits
     beyond its capacity are refused *)
  let results =
    List.init 8 (fun _ -> Engine.submit engine ~shape:[| 2 |] (Obj.tensor x))
  in
  let rejected = List.length (List.filter Result.is_error results) in
  Alcotest.(check int) "full queue rejects the overflow" (8 - 4) rejected;
  Engine.resume engine;
  List.iter
    (function Ok tk -> (match Engine.wait tk with
       | Ok _ -> ()
       | Error _ -> Alcotest.fail "accepted request failed")
      | Error Engine.Rejected -> ()
      | Error _ -> Alcotest.fail "unexpected error kind")
    results;
  Engine.shutdown engine;
  let s = Engine.stats engine in
  Alcotest.(check int) "rejects counted" rejected s.Stats.s_rejected;
  Alcotest.(check int) "the rest completed" (8 - rejected) s.Stats.s_completed

let test_engine_timeout () =
  let exe = shared_exe () in
  let engine =
    Engine.create
      ~config:{ Engine.default_config with workers = 1; queue_capacity = 16 }
      exe
  in
  Engine.pause engine;
  let x = Tensor.randn rng [| 2; feature_dim |] in
  let tickets =
    List.init 3 (fun _ ->
        match Engine.submit ~timeout_us:1_000.0 engine ~shape:[| 2 |] (Obj.tensor x) with
        | Ok tk -> tk
        | Error _ -> Alcotest.fail "unexpected reject")
  in
  Unix.sleepf 0.05;
  (* deadlines long gone *)
  Engine.resume engine;
  List.iter
    (fun tk ->
      match Engine.wait tk with
      | Error Engine.Timed_out -> ()
      | Ok _ -> Alcotest.fail "expired request still ran"
      | Error _ -> Alcotest.fail "wrong error kind")
    tickets;
  Engine.shutdown engine;
  let s = Engine.stats engine in
  (* paused-then-expired requests die when a worker takes their batch,
     before any of them runs: they land in shed_flush, not in the
     timeouts counter of requests that expired inside a running batch
     (the client-visible error is Timed_out either way) *)
  Alcotest.(check int) "shed when the batch formed" 3 s.Stats.s_shed_flush;
  Alcotest.(check int) "no in-batch timeouts" 0 s.Stats.s_timeouts;
  Alcotest.(check int) "none completed" 0 s.Stats.s_completed

(* One worker takes the oldest queued request plus up to max_batch - 1
   queued requests of its bucket, in order: A A B A A B A queued behind a
   pause forms A×4, then B×2, then A×1 — and every output is bitwise what
   a sequential run gives. *)
let test_engine_batches_from_backlog () =
  let exe = shared_exe () in
  let tr = Nimble_vm.Trace.create () in
  let engine =
    Engine.create ~trace:tr
      ~config:{ Engine.default_config with workers = 1; max_batch = 4 }
      exe
  in
  (* rows 6..8 pad to bucket A = "8", rows 15..16 to bucket B = "16" *)
  let rows = [ 7; 8; 16; 6; 8; 15; 7 ] in
  let inputs = List.map (fun r -> Tensor.randn rng [| r; feature_dim |]) rows in
  let vm = Interp.create exe in
  let reference = List.map (fun x -> Interp.run_tensors vm [ x ]) inputs in
  Engine.pause engine;
  let tickets =
    List.map2
      (fun r x ->
        match Engine.submit engine ~shape:[| r |] (Obj.tensor x) with
        | Ok tk -> tk
        | Error _ -> Alcotest.fail "unexpected reject")
      rows inputs
  in
  Engine.resume engine;
  List.iteri
    (fun i (tk, want) ->
      match Engine.wait tk with
      | Ok (Obj.Tensor p) ->
          Alcotest.check tensor_bitwise (Printf.sprintf "request %d" i) want p.Obj.data
      | _ -> Alcotest.fail "request failed")
    (List.combine tickets reference);
  Engine.shutdown engine;
  let s = Engine.stats engine in
  Alcotest.(check int) "three batches" 3 s.Stats.s_batches;
  Alcotest.(check (list (pair int int))) "batch sizes 4, 2, 1" [ (1, 1); (2, 1); (4, 1) ]
    s.Stats.s_batch_hist;
  let formed =
    List.filter_map
      (fun (sp : Nimble_vm.Trace.span) ->
        if sp.Nimble_vm.Trace.name <> "serve.batch" then None
        else
          match
            ( List.assoc_opt "bucket" sp.Nimble_vm.Trace.args,
              List.assoc_opt "size" sp.Nimble_vm.Trace.args )
          with
          | Some (Nimble_vm.Trace.Str b), Some (Nimble_vm.Trace.Int n) -> Some (b, n)
          | _ -> None)
      (Nimble_vm.Trace.spans tr)
  in
  Alcotest.(check (list (pair string int))) "batches in queue order"
    [ ("8", 4); ("16", 2); ("8", 1) ]
    formed

let test_shutdown_drains () =
  let exe = shared_exe () in
  let engine =
    Engine.create
      ~config:{ Engine.default_config with workers = 2; queue_capacity = 64 }
      exe
  in
  let x = Tensor.randn rng [| 3; feature_dim |] in
  let tickets =
    List.init 12 (fun _ ->
        match Engine.submit engine ~shape:[| 3 |] (Obj.tensor x) with
        | Ok tk -> tk
        | Error _ -> Alcotest.fail "unexpected reject")
  in
  (* shutdown must drain every queued request, not drop it *)
  Engine.shutdown engine;
  List.iter
    (fun tk ->
      match Engine.wait tk with
      | Ok _ -> ()
      | Error _ -> Alcotest.fail "queued request dropped at shutdown")
    tickets;
  let s = Engine.stats engine in
  Alcotest.(check int) "all completed" 12 s.Stats.s_completed;
  (* shutdown is idempotent *)
  Engine.shutdown engine

(* ------------------------------ loadgen ------------------------------ *)

let test_loadgen_smoke () =
  let exe = shared_exe () in
  let engine =
    Engine.create
      ~config:{ Engine.default_config with workers = 2; queue_capacity = 128 }
      exe
  in
  let inputs = Hashtbl.create 4 in
  let make_input ~shape =
    let rows = shape.(0) in
    match Hashtbl.find_opt inputs rows with
    | Some x -> Obj.tensor x
    | None ->
        let x = Tensor.ones [| rows; feature_dim |] in
        Hashtbl.replace inputs rows x;
        Obj.tensor x
  in
  let r =
    Loadgen.run
      ~config:
        {
          Loadgen.default_config with
          rate_rps = 500.0;
          duration_s = 0.2;
          clients = 2;
          mix = [ ([| 2 |], 0.5); ([| 5 |], 0.3); ([| 9 |], 0.2) ];
        }
      engine ~make_input
  in
  Engine.shutdown engine;
  Alcotest.(check bool) "offered some load" true (r.Loadgen.offered > 0);
  Alcotest.(check bool) "completed what was accepted" true
    (r.Loadgen.summary.Stats.s_completed
     = r.Loadgen.summary.Stats.s_submitted - r.Loadgen.summary.Stats.s_rejected
       - r.Loadgen.summary.Stats.s_timeouts - r.Loadgen.summary.Stats.s_errors);
  Alcotest.(check bool) "latencies measured" true
    (r.Loadgen.summary.Stats.s_completed = 0
     || r.Loadgen.summary.Stats.s_p99_ms >= r.Loadgen.summary.Stats.s_p50_ms)

let () =
  Alcotest.run "serve"
    [
      ( "bucket",
        [
          Alcotest.test_case "exact" `Quick test_bucket_exact;
          Alcotest.test_case "pad rounds up" `Quick test_bucket_pad;
          Alcotest.test_case "cap falls back" `Quick test_bucket_cap;
        ] );
      ( "squeue",
        [
          Alcotest.test_case "backpressure + drain" `Quick test_squeue_backpressure;
          Alcotest.test_case "close race with producers" `Quick test_squeue_close_race;
          Alcotest.test_case "pop_batch, hold and release" `Quick test_squeue_pop_batch_hold;
        ] );
      ("cache", [ Alcotest.test_case "serialize->link round trip" `Quick test_cache_roundtrip ]);
      ( "engine",
        [
          Alcotest.test_case "concurrent batched == sequential (bitwise)" `Quick
            test_concurrent_bitwise;
          Alcotest.test_case "one executable on three domains (bitwise)" `Quick
            test_shared_exe_domains;
          Alcotest.test_case "full queue rejects" `Quick test_engine_backpressure;
          Alcotest.test_case "deadline timeouts" `Quick test_engine_timeout;
          Alcotest.test_case "batches form from the backlog" `Quick
            test_engine_batches_from_backlog;
          Alcotest.test_case "shutdown drains" `Quick test_shutdown_drains;
        ] );
      ("loadgen", [ Alcotest.test_case "open-loop smoke" `Quick test_loadgen_smoke ]);
    ]
