(* Chaos suite: drive the stack with deterministic fault injection
   (fixed NIMBLE_FAULT_SPEC-style specs, seeded) and check the
   resilience contract end to end — the engine drains every request with
   no hang, every failure arrives through the typed channel, successful
   responses stay bitwise-equal to a fault-free sequential reference,
   transient faults are retried, persistent ones surface immediately,
   and the warm cache survives flaky deserializes. *)

open Nimble_tensor
open Nimble_ir
open Nimble_serve
module Fault = Nimble_fault.Fault
module Nimble = Nimble_compiler.Nimble
module Interp = Nimble_vm.Interp
module Obj = Nimble_vm.Obj

let tensor_bitwise = Alcotest.testable Tensor.pp Tensor.equal
let rng = Rng.create ~seed:131

(* the same minimal dynamic model as test_serve: dense + relu over a
   dynamic leading dimension *)
let feature_dim = 6
let out_dim = 4

let make_module w =
  let x = Expr.fresh_var ~ty:(Ty.tensor [ Dim.Any; Dim.static feature_dim ]) "x" in
  let body = Expr.op_call "relu" [ Expr.op_call "dense" [ Expr.Var x; Expr.Const w ] ] in
  Irmod.of_main (Expr.fn_def [ x ] body)

let shared_w = Tensor.randn rng [| out_dim; feature_dim |]
let shared_exe () = Nimble.compile (make_module shared_w)

(* every test leaves injection off, whatever happens *)
let with_fault spec f =
  Fun.protect ~finally:Fault.disable (fun () ->
      Fault.configure spec;
      f ())

(* ------------------------- drain under chaos ------------------------- *)

let test_chaos_drain () =
  let exe = shared_exe () in
  let shapes = [ 1; 2; 3; 5; 7; 8 ] in
  let requests = 60 in
  let jobs =
    Array.init requests (fun i ->
        let rows = List.nth shapes (i mod List.length shapes) in
        (rows, Tensor.randn rng [| rows; feature_dim |]))
  in
  (* fault-free sequential reference, computed before any injection *)
  let reference =
    let vm = Interp.create exe in
    Array.map (fun (_, x) -> Interp.run_tensors vm [ x ]) jobs
  in
  with_fault "seed=11;*=0.05" (fun () ->
      let engine =
        Engine.create
          ~config:
            {
              Engine.default_config with
              workers = 2;
              queue_capacity = 256;
              max_batch = 4;
            }
          exe
      in
      let tickets =
        Array.map
          (fun (rows, x) -> Engine.submit engine ~shape:[| rows |] (Obj.tensor x))
          jobs
      in
      let completed = ref 0 and failed = ref 0 and rejected = ref 0 in
      Array.iteri
        (fun i tk ->
          match tk with
          | Error Engine.Rejected -> incr rejected
          | Error _ -> Alcotest.fail "submit produced a non-reject error"
          | Ok tk -> (
              (* the hard guarantee: every accepted request completes *)
              match Engine.wait tk with
              | Ok (Obj.Tensor p) ->
                  incr completed;
                  Alcotest.check tensor_bitwise
                    (Printf.sprintf "request %d bitwise vs reference" i)
                    reference.(i) p.Obj.data
              | Ok _ -> Alcotest.fail "non-tensor result"
              | Error (Engine.Failed fl) ->
                  (* failures must come through the typed channel, with a
                     classified kind *)
                  incr failed;
                  Alcotest.(check bool)
                    (Printf.sprintf "typed kind for %S" fl.Interp.fail_msg)
                    true
                    (List.mem
                       (Interp.kind_name fl.Interp.fail_kind)
                       [ "shape_guard"; "alloc"; "kernel_trap"; "shape_func"; "internal" ])
              | Error Engine.Rejected | Error Engine.Timed_out ->
                  Alcotest.fail "no deadline was set: only Failed is acceptable"))
        tickets;
      Engine.shutdown engine;
      let s = Engine.stats engine in
      Alcotest.(check int) "every ticket accounted" requests
        (!completed + !failed + !rejected);
      Alcotest.(check int) "stats drain" s.Stats.s_submitted
        (s.Stats.s_completed + s.Stats.s_errors + s.Stats.s_rejected
       + s.Stats.s_timeouts);
      Alcotest.(check int) "completions agree" !completed s.Stats.s_completed;
      Alcotest.(check bool) "faults actually fired" true
        (List.exists (fun (_, h) -> h > 0) (Fault.hits ()));
      Alcotest.(check bool) "some requests survived the chaos" true (!completed > 0))

(* ------------------------- transient retries ------------------------- *)

let test_retry_transient () =
  let exe = shared_exe () in
  with_fault "seed=3;kernel_launch=0.4:transient" (fun () ->
      let engine =
        Engine.create
          ~config:
            {
              Engine.default_config with
              workers = 1;
              max_batch = 1;
              max_retries = 10;
              retry_backoff_us = 50.0;
            }
          exe
      in
      (* one request at a time on one worker: the attempt stream, and so
         every injection decision, is fully deterministic *)
      let x = Tensor.randn rng [| 3; feature_dim |] in
      for i = 1 to 8 do
        match Engine.run engine ~shape:[| 3 |] (Obj.tensor x) with
        | Ok _ -> ()
        | Error (Engine.Failed fl) ->
            Alcotest.failf "request %d exhausted retries: %a" i Interp.pp_failure fl
        | Error _ -> Alcotest.failf "request %d: unexpected error kind" i
      done;
      Engine.shutdown engine;
      let s = Engine.stats engine in
      Alcotest.(check int) "all completed" 8 s.Stats.s_completed;
      Alcotest.(check bool)
        (Printf.sprintf "retries absorbed the faults (retries=%d)" s.Stats.s_retries)
        true (s.Stats.s_retries > 0);
      Alcotest.(check bool) "kernel_launch faults fired" true
        (match List.assoc_opt "kernel_launch" (Fault.hits ()) with
        | Some h -> h > 0
        | None -> false))

(* ------------------------- persistent faults ------------------------- *)

let test_persistent_not_retried () =
  let exe = shared_exe () in
  with_fault "seed=1;kernel_launch=1.0:persistent" (fun () ->
      let engine =
        Engine.create
          ~config:{ Engine.default_config with workers = 1; max_retries = 5 }
          exe
      in
      let x = Tensor.randn rng [| 2; feature_dim |] in
      (match Engine.run engine ~shape:[| 2 |] (Obj.tensor x) with
      | Error (Engine.Failed fl) ->
          Alcotest.(check string) "classified as a kernel trap" "kernel_trap"
            (Interp.kind_name fl.Interp.fail_kind);
          Alcotest.(check bool) "not transient" false fl.Interp.fail_transient
      | Ok _ -> Alcotest.fail "a rate-1.0 persistent fault cannot succeed"
      | Error _ -> Alcotest.fail "unexpected error kind");
      Engine.shutdown engine;
      let s = Engine.stats engine in
      Alcotest.(check int) "persistent failures are never retried" 0 s.Stats.s_retries;
      Alcotest.(check (list (pair string int))) "failure kind tallied"
        [ ("kernel_trap", 1) ] s.Stats.s_failure_kinds)

(* ---------------------- guards through the engine ---------------------- *)

let test_guard_failure_served () =
  (* an ill-typed input fails fast at function entry, through the same
     typed channel as injected faults — no injection configured at all *)
  let exe = shared_exe () in
  let engine =
    Engine.create ~config:{ Engine.default_config with workers = 1 } exe
  in
  let bad = Tensor.randn rng [| 3; feature_dim + 1 |] in
  (match Engine.run engine ~shape:[| 3 |] (Obj.tensor bad) with
  | Error (Engine.Failed fl) ->
      Alcotest.(check string) "guard kind" "shape_guard"
        (Interp.kind_name fl.Interp.fail_kind)
  | Ok _ -> Alcotest.fail "ill-typed input served"
  | Error _ -> Alcotest.fail "unexpected error kind");
  (* the worker is still healthy: a well-typed request sails through *)
  let good = Tensor.randn rng [| 3; feature_dim |] in
  (match Engine.run engine ~shape:[| 3 |] (Obj.tensor good) with
  | Ok _ -> ()
  | Error _ -> Alcotest.fail "well-typed request failed after a guard trip");
  Engine.shutdown engine

(* ------------------------- flaky deserialize ------------------------- *)

let test_cache_survives_flaky_deserialize () =
  (* seed 4 draws fault, fault, success at the deserialize point: the
     cold load must retry twice and then succeed *)
  with_fault "seed=4;deserialize=0.6:transient" (fun () ->
      let cache = Cache.create () in
      let exe =
        Cache.load cache ~name:"chaotic" ~build:(fun () -> make_module shared_w)
      in
      Alcotest.(check bool) "linked after retries" true (Nimble_vm.Exe.linked exe);
      let attempts =
        match List.assoc_opt "deserialize" (Fault.attempts ()) with
        | Some a -> a
        | None -> 0
      in
      Alcotest.(check bool)
        (Printf.sprintf "retried at least once (attempts=%d)" attempts)
        true (attempts > 1))

(* -------------------------- worker restarts -------------------------- *)

let test_worker_restart () =
  let exe = shared_exe () in
  with_fault "seed=7;worker_loop=1.0:persistent" (fun () ->
      let engine =
        Engine.create
          ~config:{ Engine.default_config with workers = 1; max_batch = 2 }
          exe
      in
      let x = Tensor.randn rng [| 2; feature_dim |] in
      (* every batch dies in the worker loop: requests must still be
         answered (as internal failures), not stranded *)
      for _ = 1 to 3 do
        match Engine.run engine ~shape:[| 2 |] (Obj.tensor x) with
        | Error (Engine.Failed fl) ->
            Alcotest.(check string) "stranded requests answered as internal"
              "internal"
              (Interp.kind_name fl.Interp.fail_kind)
        | Ok _ -> Alcotest.fail "a rate-1.0 worker_loop fault cannot succeed"
        | Error _ -> Alcotest.fail "unexpected error kind"
      done;
      Engine.shutdown engine;
      let s = Engine.stats engine in
      Alcotest.(check bool)
        (Printf.sprintf "workers restarted (restarts=%d)" s.Stats.s_worker_restarts)
        true
        (s.Stats.s_worker_restarts >= 3))

let () =
  Alcotest.run "chaos"
    [
      ( "engine",
        [
          Alcotest.test_case "full drain under 5% chaos" `Quick test_chaos_drain;
          Alcotest.test_case "transient faults retried" `Quick test_retry_transient;
          Alcotest.test_case "persistent faults surface" `Quick test_persistent_not_retried;
          Alcotest.test_case "guard failures served" `Quick test_guard_failure_served;
          Alcotest.test_case "worker restarts" `Quick test_worker_restart;
        ] );
      ( "cache",
        [
          Alcotest.test_case "flaky deserialize retried" `Quick
            test_cache_survives_flaky_deserialize;
        ] );
    ]
