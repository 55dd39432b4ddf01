(* Extension features from the paper's discussion sections: QoS preemption
   hooks and resource isolation (§5.3), profiling-based extern-kernel
   routing and workload-weighted tuning (§4.5), constant-pool dedup. *)

open Nimble_tensor
open Nimble_ir
module Nimble = Nimble_compiler.Nimble
module Interp = Nimble_vm.Interp

let tensor_eq = Alcotest.testable Tensor.pp (Tensor.approx_equal ~atol:1e-4 ~rtol:1e-4)
let rng = Rng.create ~seed:61

let dense_module () =
  let x = Expr.fresh_var ~ty:(Ty.tensor [ Dim.Any; Dim.static 16 ]) "x" in
  let w = Tensor.randn rng [| 8; 16 |] in
  let body = Expr.op_call "tanh" [ Expr.op_call "dense" [ Expr.Var x; Expr.Const w ] ] in
  (Irmod.of_main (Expr.fn_def [ x ] body), w)

(* ---------------------------- QoS hook (§5.3) ---------------------------- *)

let test_hook_observes_instructions () =
  let m, _ = dense_module () in
  let vm = Nimble.vm (Nimble.compile m) in
  let count = ref 0 in
  Interp.set_instruction_hook vm (Some (fun _ -> incr count));
  ignore (Interp.run_tensors vm [ Tensor.randn rng [| 3; 16 |] ]);
  let observed = !count in
  Alcotest.(check bool) "saw instructions" true (observed > 5);
  Alcotest.(check int) "hook count = profiler count" observed
    (Nimble_vm.Profiler.total_instrs (Interp.profiler vm));
  (* clearing the hook stops observation *)
  Interp.set_instruction_hook vm None;
  ignore (Interp.run_tensors vm [ Tensor.randn rng [| 3; 16 |] ]);
  Alcotest.(check int) "no further counts" observed !count

let test_preemption_aborts_low_priority () =
  (* a QoS scheduler aborts this inference after a budget of instructions,
     e.g. to yield the hardware to a time-critical model *)
  let m, _ = dense_module () in
  let vm = Nimble.vm (Nimble.compile m) in
  let budget = ref 4 in
  Interp.set_instruction_hook vm
    (Some
       (fun _ ->
         decr budget;
         if !budget <= 0 then raise Interp.Preempted));
  Alcotest.check_raises "preempted" Interp.Preempted (fun () ->
      ignore (Interp.run_tensors vm [ Tensor.randn rng [| 3; 16 |] ]));
  (* the VM stays usable for the next request *)
  Interp.set_instruction_hook vm None;
  let out = Interp.run_tensors vm [ Tensor.randn rng [| 3; 16 |] ] in
  Alcotest.(check (array int)) "recovers" [| 3; 8 |] (Tensor.shape out)

let test_resource_isolation_between_instances () =
  (* two inference instances over the same executable share nothing mutable:
     interleaved use gives each its own correct results and profile *)
  let m, w = dense_module () in
  let exe = Nimble.compile m in
  let vm1 = Interp.create exe and vm2 = Interp.create exe in
  let x1 = Tensor.randn rng [| 2; 16 |] and x2 = Tensor.randn rng [| 5; 16 |] in
  let o1 = Interp.run_tensors vm1 [ x1 ] in
  let o2 = Interp.run_tensors vm2 [ x2 ] in
  let o1' = Interp.run_tensors vm1 [ x1 ] in
  Alcotest.check tensor_eq "vm1 stable" o1 o1';
  Alcotest.check tensor_eq "vm1 correct" (Ops_elem.tanh (Ops_matmul.dense x1 w)) o1;
  Alcotest.check tensor_eq "vm2 correct" (Ops_elem.tanh (Ops_matmul.dense x2 w)) o2;
  (* vm1 ran twice and vm2 once; a profiler shared between them would
     count all three runs in both *)
  let p1 = Interp.profiler vm1 and p2 = Interp.profiler vm2 in
  let k1 = p1.Nimble_vm.Profiler.kernel_invocations
  and k2 = p2.Nimble_vm.Profiler.kernel_invocations in
  Alcotest.(check bool) "vm2 ran kernels" true (k2 > 0);
  Alcotest.(check int) "vm1 kernel calls = 2 x vm2's" (2 * k2) k1;
  Alcotest.(check int) "vm1 instructions = 2 x vm2's"
    (2 * Nimble_vm.Profiler.total_instrs p2)
    (Nimble_vm.Profiler.total_instrs p1)

(* ------------------------- extern routing (§4.5) ------------------------- *)

let test_profile_extern_option_correct () =
  let m, w = dense_module () in
  let exe =
    Nimble.compile ~options:{ Nimble.default_options with Nimble.profile_extern = true } m
  in
  let vm = Nimble.vm exe in
  let x = Tensor.randn rng [| 5; 16 |] in
  Alcotest.check tensor_eq "extern-routed dense correct"
    (Ops_elem.tanh (Ops_matmul.dense x w))
    (Interp.run_tensors vm [ x ])

(* ------------------------- weighted tuning (§4.5) ------------------------- *)

let test_tuner_shape_weights () =
  let module Tuner = Nimble_codegen.Tuner in
  (* weighting only m=1 must pick the best config for tiny inputs; the
     single-row workload gains nothing from row tiles *)
  let space = [ { Tuner.tile_m = 1 }; { Tuner.tile_m = 8 } ] in
  let r =
    Tuner.tune ~space ~top_k:2 ~static_stand_in:32 ~eval_extents:[ 1; 32 ]
      ~shape_weights:[ (1, 1.0); (32, 0.0) ]
      ~n:64 ~k:64 ()
  in
  Alcotest.(check bool) "picked from space" true (List.mem r.Tuner.best space);
  (* all-zero weights degenerate safely *)
  let r0 =
    Tuner.tune ~space ~top_k:1 ~static_stand_in:32 ~eval_extents:[ 8 ]
      ~shape_weights:[ (999, 1.0) ] ~n:32 ~k:32 ()
  in
  Alcotest.(check bool) "degenerate weights still pick" true
    (List.mem r0.Tuner.best space)

(* ------------------------- constant dedup ------------------------- *)

let test_constant_pool_dedup () =
  (* the same weight tensor used at two call sites lands in the pool once *)
  let x = Expr.fresh_var ~ty:(Ty.tensor_of_shape [| 4; 16 |]) "x" in
  let w = Tensor.randn rng [| 16; 16 |] in
  let body =
    Expr.op_call "dense"
      [ Expr.op_call "relu" [ Expr.op_call "dense" [ Expr.Var x; Expr.Const w ] ];
        Expr.Const w ]
  in
  let exe = Nimble.compile (Irmod.of_main (Expr.fn_def [ x ] body)) in
  let weight_entries =
    Array.to_list exe.Nimble_vm.Exe.constants
    |> List.filter (fun t -> Shape.equal (Tensor.shape t) [| 16; 16 |])
  in
  Alcotest.(check int) "single pool entry" 1 (List.length weight_entries);
  (* and the program still computes correctly *)
  let vm = Nimble.vm exe in
  let input = Tensor.randn rng [| 4; 16 |] in
  Alcotest.check tensor_eq "correct"
    (Ops_matmul.dense (Ops_elem.relu (Ops_matmul.dense input w)) w)
    (Interp.run_tensors vm [ input ])

let () =
  Alcotest.run "extensions"
    [
      ( "qos",
        [
          Alcotest.test_case "hook observes instructions" `Quick test_hook_observes_instructions;
          Alcotest.test_case "preemption" `Quick test_preemption_aborts_low_priority;
          Alcotest.test_case "resource isolation" `Quick test_resource_isolation_between_instances;
        ] );
      ( "codegen",
        [
          Alcotest.test_case "extern routing" `Quick test_profile_extern_option_correct;
          Alcotest.test_case "weighted tuning" `Quick test_tuner_shape_weights;
        ] );
      ("executable", [ Alcotest.test_case "constant dedup" `Quick test_constant_pool_dedup ]);
    ]
