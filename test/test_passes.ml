(* Pass tests: ANF (incl. DAG sharing), CSE, constant folding, DCE, fusion
   (pattern lattice + dynamic policy), manifest alloc, memory planning,
   device placement. *)

open Nimble_tensor
open Nimble_ir
open Nimble_passes
module Zoo = Nimble_workloads.Zoo

let s = Dim.static
let static_ty sh = Ty.tensor_of_shape (Shape.of_list sh)

let count_pred pred e =
  let n = ref 0 in
  Expr.iter (fun x -> if pred x then incr n) e;
  !n

let count_op name e =
  count_pred (function Expr.Call { callee = Expr.Op o; _ } -> o = name | _ -> false) e

let count_lets e = count_pred (function Expr.Let _ -> true | _ -> false) e

(* ---------------------------- ANF ---------------------------- *)

let test_anf_flattens () =
  let x = Expr.fresh_var ~ty:(static_ty [ 2 ]) "x" in
  let e =
    Expr.op_call "add"
      [ Expr.op_call "relu" [ Expr.Var x ]; Expr.op_call "tanh" [ Expr.Var x ] ]
  in
  let anf = Anf.convert e in
  Alcotest.(check bool) "is anf" true (Anf.is_anf anf);
  Alcotest.(check int) "three bindings" 3 (count_lets anf)

let test_anf_dag_sharing () =
  (* the same physical node used twice must be bound exactly once *)
  let x = Expr.fresh_var ~ty:(static_ty [ 2 ]) "x" in
  let shared = Expr.op_call "relu" [ Expr.Var x ] in
  let e = Expr.op_call "add" [ shared; shared ] in
  let anf = Anf.convert e in
  Alcotest.(check int) "relu bound once" 1 (count_op "relu" anf)

let test_anf_no_exponential_blowup () =
  (* a 30-deep doubling DAG: tree size 2^30, ANF size linear *)
  let x = Expr.fresh_var ~ty:(static_ty [ 2 ]) "x" in
  let e = ref (Expr.Var x) in
  for _ = 1 to 30 do
    e := Expr.op_call "add" [ !e; !e ]
  done;
  let anf = Anf.convert !e in
  Alcotest.(check bool) "linear size" true (Expr.size anf < 200)

let test_anf_branch_scoping () =
  (* a node first used inside a branch must not leak its binding outside *)
  let x = Expr.fresh_var ~ty:(static_ty [ 2 ]) "x" in
  let c = Expr.fresh_var ~ty:Ty.bool_scalar "c" in
  let shared = Expr.op_call "relu" [ Expr.Var x ] in
  let e =
    Expr.op_call "add"
      [ Expr.If (Expr.Var c, shared, Expr.op_call "tanh" [ Expr.Var x ]); shared ]
  in
  let anf = Anf.convert e in
  Alcotest.(check bool) "is anf" true (Anf.is_anf anf);
  (* conservative: relu may be computed twice (once per scope), never shared
     across the branch boundary — check no unbound variable by compiling
     through a var scan *)
  Alcotest.(check bool) "relu computed at least once" true (count_op "relu" anf >= 1)

(* ---------------------------- CSE ---------------------------- *)

let test_cse_dedupes () =
  let x = Expr.fresh_var ~ty:(static_ty [ 2 ]) "x" in
  (* two structurally identical but physically distinct subtrees *)
  let e =
    Expr.op_call "add"
      [ Expr.op_call "relu" [ Expr.Var x ]; Expr.op_call "relu" [ Expr.Var x ] ]
  in
  let m = Irmod.of_main (Expr.fn_def [ x ] e) in
  let m = Anf.run m in
  let m = Cse.run m in
  let m = Dce.run m in
  let fn = Irmod.func_exn m "main" in
  Alcotest.(check int) "one relu" 1 (count_op "relu" fn.Expr.body)

let test_cse_respects_branches () =
  let x = Expr.fresh_var ~ty:(static_ty [ 2 ]) "x" in
  let c = Expr.fresh_var ~ty:Ty.bool_scalar "c" in
  let relu () = Expr.op_call "relu" [ Expr.Var x ] in
  let e = Expr.If (Expr.Var c, relu (), relu ()) in
  let m = Irmod.of_main (Expr.fn_def [ x; c ] e) in
  let m = Anf.run m in
  let m = Cse.run m in
  let fn = Irmod.func_exn m "main" in
  (* each branch keeps its own copy: CSE must not move either out *)
  Alcotest.(check int) "two relus (one per branch)" 2 (count_op "relu" fn.Expr.body)

(* CSE identifies constants within one function only, so a compile pins
   none of its weights: once the module and its executable are dropped,
   the constant tensor can be collected. *)
let test_cse_does_not_pin_constants () =
  let weak = Weak.create 1 in
  let[@inline never] compile_and_drop () =
    let w = Tensor.randn (Rng.create ~seed:5) [| 4; 6 |] in
    Weak.set weak 0 (Some w);
    let x = Expr.fresh_var ~ty:(Ty.tensor [ Dim.Any; s 6 ]) "x" in
    let body = Expr.op_call "relu" [ Expr.op_call "dense" [ Expr.Var x; Expr.Const w ] ] in
    ignore
      (Sys.opaque_identity
         (Nimble_compiler.Nimble.compile (Irmod.of_main (Expr.fn_def [ x ] body))))
  in
  compile_and_drop ();
  Gc.full_major ();
  Alcotest.(check bool) "constant collected" false (Weak.check weak 0)

(* ---------------------------- const fold ---------------------------- *)

let test_const_fold () =
  let e = Expr.op_call "add" [ Expr.const_scalar 2.0; Expr.const_scalar 3.0 ] in
  match Const_fold.fold_expr e with
  | Expr.Const t -> Alcotest.(check (float 0.0)) "folded" 5.0 (Tensor.item t)
  | other -> Alcotest.failf "not folded: %a" Expr.pp other

let test_const_fold_if () =
  let e =
    Expr.If
      ( Expr.Const (Tensor.scalar 1.0),
        Expr.const_scalar 10.0,
        Expr.const_scalar 20.0 )
  in
  match Const_fold.fold_expr e with
  | Expr.Const t -> Alcotest.(check (float 0.0)) "true branch" 10.0 (Tensor.item t)
  | other -> Alcotest.failf "not folded: %a" Expr.pp other

let test_const_fold_skips_effectful () =
  let x = Expr.fresh_var "x" in
  let e =
    Expr.Let
      (x, Expr.op_call "memory.kill" [ Expr.const_scalar 0.0 ], Expr.const_scalar 1.0)
  in
  let folded = Const_fold.fold_expr e in
  Alcotest.(check int) "kill preserved" 1 (count_op "memory.kill" folded)

(* ---------------------------- DCE ---------------------------- *)

let test_dce_removes_dead_chain () =
  let x = Expr.fresh_var ~ty:(static_ty [ 2 ]) "x" in
  let a = Expr.fresh_var "a" and b = Expr.fresh_var "b" in
  let e =
    Expr.Let
      ( a,
        Expr.op_call "relu" [ Expr.Var x ],
        Expr.Let (b, Expr.op_call "tanh" [ Expr.Var a ], Expr.Var x) )
  in
  let swept = Dce.sweep e in
  Alcotest.(check int) "all dead removed" 0 (count_lets swept)

let test_dce_keeps_effects () =
  let u = Expr.fresh_var "u" in
  let e =
    Expr.Let
      ( u,
        Expr.op_call "memory.invoke_mut" [ Expr.const_scalar 0.0 ],
        Expr.const_scalar 1.0 )
  in
  Alcotest.(check int) "invoke_mut kept" 1 (count_lets (Dce.sweep e))

(* Dead chains in an [If] branch, a [Match] clause and a closure body all
   go in one run, and so does an outer binding whose only use was a dead
   binding inside a branch: bodies are swept before their bindings. *)
let test_dce_nested_regions_one_run () =
  let x = Expr.fresh_var ~ty:(static_ty [ 2 ]) "x" in
  let dead_chain arg k =
    let a = Expr.fresh_var "a" and b = Expr.fresh_var "b" in
    Expr.Let
      (a, Expr.op_call "relu" [ arg ], Expr.Let (b, Expr.op_call "tanh" [ Expr.Var a ], k))
  in
  let outer = Expr.fresh_var "outer" in
  let r = Expr.fresh_var "r" and mres = Expr.fresh_var "m" and f = Expr.fresh_var "f" in
  let y = Expr.fresh_var "y" in
  let body =
    Expr.Let
      ( outer,
        Expr.op_call "sigmoid" [ Expr.Var x ],
        Expr.Let
          ( r,
            Expr.If (Expr.Var x, dead_chain (Expr.Var outer) (Expr.Var x), Expr.Var x),
            Expr.Let
              ( mres,
                Expr.Match
                  ( Expr.Var x,
                    [ { Expr.pat = Expr.Pwild; rhs = dead_chain (Expr.Var x) (Expr.Var x) } ] ),
                Expr.Let
                  ( f,
                    Expr.fn [ y ] (dead_chain (Expr.Var y) (Expr.Var y)),
                    Expr.Tuple [ Expr.Var r; Expr.Var mres; Expr.Var f ] ) ) ) )
  in
  let m = Dce.run (Irmod.of_main (Expr.fn_def [ x ] body)) in
  let swept = (Irmod.func_exn m "main").Expr.body in
  Alcotest.(check int) "only r, m and f remain" 3 (count_lets swept);
  List.iter
    (fun op -> Alcotest.(check int) (op ^ " gone") 0 (count_op op swept))
    [ "relu"; "tanh"; "sigmoid" ]

(* One sweep is the fixpoint: on every zoo model after the full pipeline
   (which ends in DCE), another run changes nothing. *)
let test_dce_idempotent_on_zoo () =
  Alcotest.(check int) "every zoo model" 11 (List.length Zoo.models);
  List.iter
    (fun (z : Zoo.model) ->
      let m, _ = Nimble_compiler.Nimble.optimize (z.build ()) in
      let before = Irmod.to_string m in
      Alcotest.(check string) (z.name ^ ": second DCE is a no-op") before
        (Irmod.to_string (Dce.run m)))
    Zoo.models

(* ---------------------------- fusion ---------------------------- *)

let fused_module body params =
  let m = Irmod.of_main (Expr.fn_def params body) in
  let m = Anf.run m in
  ignore (Nimble_typing.Infer.infer_module m);
  Fusion.run m

let primitives m =
  let fn = Irmod.func_exn m "main" in
  Fusion.primitives_of fn.Expr.body

let test_fusion_elemwise_chain () =
  let x = Expr.fresh_var ~ty:(static_ty [ 4 ]) "x" in
  let body =
    Expr.op_call "relu" [ Expr.op_call "tanh" [ Expr.op_call "sigmoid" [ Expr.Var x ] ] ]
  in
  let m = fused_module body [ x ] in
  match primitives m with
  | [ p ] ->
      Alcotest.(check (list string)) "three ops fused" [ "sigmoid"; "tanh"; "relu" ]
        (Fusion.primitive_ops p)
  | ps -> Alcotest.failf "expected 1 primitive, got %d" (List.length ps)

let test_fusion_dense_epilogue () =
  (* dense absorbs following elemwise ops but not a second dense *)
  let x = Expr.fresh_var ~ty:(static_ty [ 4; 8 ]) "x" in
  let w1 = Expr.Const (Tensor.zeros [| 8; 8 |]) in
  let w2 = Expr.Const (Tensor.zeros [| 8; 8 |]) in
  let body =
    Expr.op_call "dense"
      [ Expr.op_call "relu" [ Expr.op_call "dense" [ Expr.Var x; w1 ] ]; w2 ]
  in
  let m = fused_module body [ x ] in
  let ps = primitives m in
  Alcotest.(check int) "two primitives" 2 (List.length ps);
  Alcotest.(check (list string)) "first fused with relu" [ "dense"; "relu" ]
    (Fusion.primitive_ops (List.hd ps))

let test_fusion_policy_blocks_data_dependent () =
  (* unique's shape function needs values: must not fuse with its producer *)
  let x = Expr.fresh_var ~ty:(static_ty [ 6 ]) "x" in
  let body = Expr.op_call "unique" [ Expr.op_call "relu" [ Expr.Var x ] ] in
  let m = fused_module body [ x ] in
  let ps = primitives m in
  Alcotest.(check int) "stays separate" 2 (List.length ps);
  List.iter
    (fun p ->
      Alcotest.(check int) "singletons" 1 (List.length (Fusion.primitive_ops p)))
    ps

let test_fusion_opaque_never_fuses () =
  let x = Expr.fresh_var ~ty:(static_ty [ 2; 4 ]) "x" in
  let body = Expr.op_call "relu" [ Expr.op_call "softmax" [ Expr.Var x ] ] in
  let m = fused_module body [ x ] in
  Alcotest.(check int) "softmax alone" 2 (List.length (primitives m))

let test_fusion_multi_consumer_blocks () =
  (* a producer with two consumers must not be duplicated into either *)
  let x = Expr.fresh_var ~ty:(static_ty [ 4 ]) "x" in
  let shared = Expr.op_call "sigmoid" [ Expr.Var x ] in
  let body = Expr.op_call "add" [ Expr.op_call "relu" [ shared ]; shared ] in
  let m = fused_module body [ x ] in
  let total_sigmoids =
    List.fold_left
      (fun acc p ->
        acc + List.length (List.filter (( = ) "sigmoid") (Fusion.primitive_ops p)))
      0 (primitives m)
  in
  Alcotest.(check int) "sigmoid computed once" 1 total_sigmoids

let test_fusion_reduce_closes_group () =
  let x = Expr.fresh_var ~ty:(static_ty [ 4 ]) "x" in
  let body =
    Expr.op_call "relu"
      [ Expr.op_call ~attrs:[ ("axis", Attrs.Int 0) ] "sum"
          [ Expr.op_call "tanh" [ Expr.Var x ] ] ]
  in
  let m = fused_module body [ x ] in
  let ps = primitives m in
  (* tanh fuses into sum; relu after the reduction starts a new group *)
  Alcotest.(check int) "two groups" 2 (List.length ps);
  Alcotest.(check (list string)) "tanh+sum" [ "tanh"; "sum" ]
    (Fusion.primitive_ops (List.hd ps))

(* ---------------------------- manifest alloc ---------------------------- *)

let manifest body params =
  let m = Irmod.of_main (Expr.fn_def params body) in
  let m = Anf.run m in
  let result = Nimble_typing.Infer.infer_module m in
  let m = Type_resolve.run m result.Nimble_typing.Infer.solver in
  let m = Fusion.run m in
  Manifest_alloc.run m

let test_manifest_static () =
  let x = Expr.fresh_var ~ty:(static_ty [ 4 ]) "x" in
  let m = manifest (Expr.op_call "relu" [ Expr.Var x ]) [ x ] in
  let fn = Irmod.func_exn m "main" in
  let storages, tensors = Manifest_alloc.count_allocs fn.Expr.body in
  Alcotest.(check int) "one storage" 1 storages;
  Alcotest.(check int) "one tensor" 1 tensors;
  Alcotest.(check int) "invoke_mut" 1 (count_op "memory.invoke_mut" fn.Expr.body);
  (* static path: no shape functions *)
  Alcotest.(check int) "no shape funcs" 0
    (count_op "memory.invoke_shape_func" fn.Expr.body)

let test_manifest_dynamic_inserts_shape_funcs () =
  let x = Expr.fresh_var ~ty:(Ty.tensor [ Dim.Any; s 8 ]) "x" in
  let m = manifest (Expr.op_call "relu" [ Expr.Var x ]) [ x ] in
  let fn = Irmod.func_exn m "main" in
  Alcotest.(check int) "shape func invoked" 1
    (count_op "memory.invoke_shape_func" fn.Expr.body);
  Alcotest.(check int) "shape_of inserted" 1 (count_op "shape_of" fn.Expr.body);
  (* paper fixed point: the shape tensor itself is explicitly allocated *)
  let storages, tensors = Manifest_alloc.count_allocs fn.Expr.body in
  Alcotest.(check int) "two storages (shape + data)" 2 storages;
  Alcotest.(check int) "two tensors" 2 tensors

(* ---------------------------- memory plan ---------------------------- *)

let test_memory_plan_coalesces () =
  let x = Expr.fresh_var ~ty:(static_ty [ 8; 8 ]) "x" in
  let body =
    Expr.op_call "relu"
      [ Expr.op_call "softmax" [ Expr.op_call "tanh" [ Expr.op_call "softmax" [ Expr.Var x ] ] ] ]
  in
  let m = manifest body [ x ] in
  let stats = Memory_plan.run m in
  Alcotest.(check bool) "multiple before" true (stats.Memory_plan.storages_before >= 2);
  Alcotest.(check int) "one arena" 1 stats.Memory_plan.storages_after;
  (* liveness reuse: arena smaller than the sum *)
  Alcotest.(check bool) "arena <= sum" true
    (stats.Memory_plan.arena_bytes <= stats.Memory_plan.sum_bytes)

let test_memory_plan_execution_correct () =
  (* end-to-end: planned executable computes the same values *)
  let x = Expr.fresh_var ~ty:(static_ty [ 8; 8 ]) "x" in
  let body =
    Expr.op_call "add"
      [
        Expr.op_call "softmax" [ Expr.Var x ];
        Expr.op_call "relu" [ Expr.op_call "softmax" [ Expr.Var x ] ];
      ]
  in
  let build plan =
    Nimble_compiler.Nimble.compile
      ~options:{ Nimble_compiler.Nimble.default_options with Nimble_compiler.Nimble.memory_plan = plan }
      (Irmod.of_main (Expr.fn_def [ x ] body))
  in
  let rng = Rng.create ~seed:77 in
  let input = Tensor.randn rng [| 8; 8 |] in
  let run exe = Nimble_vm.Interp.run_tensors (Nimble_vm.Interp.create exe) [ input ] in
  let with_plan = run (build true) and without = run (build false) in
  Alcotest.(check bool) "same results" true
    (Tensor.approx_equal ~atol:1e-6 ~rtol:1e-6 with_plan without)

(* ---------------------------- device placement ---------------------------- *)

let test_device_placement_inserts_copies () =
  let x = Expr.fresh_var ~ty:(Ty.tensor [ Dim.Any; s 8 ]) "x" in
  let body =
    Expr.op_call "relu" [ Expr.op_call "dense" [ Expr.Var x; Expr.Const (Tensor.zeros [| 4; 8 |]) ] ]
  in
  let m = Irmod.of_main (Expr.fn_def [ x ] body) in
  let m, report =
    Nimble_compiler.Nimble.optimize
      ~options:
        { Nimble_compiler.Nimble.default_options with Nimble_compiler.Nimble.target_device = 1 }
      m
  in
  Alcotest.(check bool) "copies inserted" true (report.Nimble_compiler.Nimble.device_copies > 0);
  Alcotest.(check bool) "device_copy in IR" true (Device_place.count_copies m > 0)

let test_device_placement_cpu_noop () =
  let x = Expr.fresh_var ~ty:(static_ty [ 4; 8 ]) "x" in
  let body = Expr.op_call "relu" [ Expr.Var x ] in
  let m = Irmod.of_main (Expr.fn_def [ x ] body) in
  let m, report = Nimble_compiler.Nimble.optimize m in
  Alcotest.(check int) "no copies on cpu" 0 report.Nimble_compiler.Nimble.device_copies;
  Alcotest.(check int) "none in IR" 0 (Device_place.count_copies m)

let test_gpu_end_to_end () =
  (* dynamic dense on the simulated GPU: copies inserted and execution is
     correct *)
  let x = Expr.fresh_var ~ty:(Ty.tensor [ Dim.Any; s 8 ]) "x" in
  let rng = Rng.create ~seed:13 in
  let w = Tensor.randn rng [| 4; 8 |] in
  let body = Expr.op_call "tanh" [ Expr.op_call "dense" [ Expr.Var x; Expr.Const w ] ] in
  let m = Irmod.of_main (Expr.fn_def [ x ] body) in
  let exe =
    Nimble_compiler.Nimble.compile
      ~options:
        { Nimble_compiler.Nimble.default_options with Nimble_compiler.Nimble.target_device = 1 }
      m
  in
  let vm = Nimble_vm.Interp.create exe in
  let input = Tensor.randn rng [| 3; 8 |] in
  let out = Nimble_vm.Interp.run_tensors vm [ input ] in
  let expected = Ops_elem.tanh (Ops_matmul.dense input w) in
  Alcotest.(check bool) "gpu result correct" true
    (Tensor.approx_equal ~atol:1e-4 ~rtol:1e-4 expected out);
  (* transfers were recorded *)
  let p = Nimble_vm.Interp.profiler vm in
  Alcotest.(check bool) "transfers happened" true
    (Nimble_device.Pool.total_transfers p.Nimble_vm.Profiler.pool > 0)

let () =
  Alcotest.run "passes"
    [
      ( "anf",
        [
          Alcotest.test_case "flattens" `Quick test_anf_flattens;
          Alcotest.test_case "dag sharing" `Quick test_anf_dag_sharing;
          Alcotest.test_case "no exponential blowup" `Quick test_anf_no_exponential_blowup;
          Alcotest.test_case "branch scoping" `Quick test_anf_branch_scoping;
        ] );
      ( "cse",
        [
          Alcotest.test_case "dedupes" `Quick test_cse_dedupes;
          Alcotest.test_case "branch isolation" `Quick test_cse_respects_branches;
          Alcotest.test_case "does not pin constants" `Quick
            test_cse_does_not_pin_constants;
        ] );
      ( "const_fold",
        [
          Alcotest.test_case "folds arithmetic" `Quick test_const_fold;
          Alcotest.test_case "folds if" `Quick test_const_fold_if;
          Alcotest.test_case "skips effectful" `Quick test_const_fold_skips_effectful;
        ] );
      ( "dce",
        [
          Alcotest.test_case "removes dead chains" `Quick test_dce_removes_dead_chain;
          Alcotest.test_case "keeps effects" `Quick test_dce_keeps_effects;
          Alcotest.test_case "nested regions in one run" `Quick
            test_dce_nested_regions_one_run;
          Alcotest.test_case "idempotent on the zoo" `Quick test_dce_idempotent_on_zoo;
        ] );
      ( "fusion",
        [
          Alcotest.test_case "elemwise chain" `Quick test_fusion_elemwise_chain;
          Alcotest.test_case "dense epilogue" `Quick test_fusion_dense_epilogue;
          Alcotest.test_case "dynamic policy blocks data-dep" `Quick
            test_fusion_policy_blocks_data_dependent;
          Alcotest.test_case "opaque never fuses" `Quick test_fusion_opaque_never_fuses;
          Alcotest.test_case "multi-consumer blocks" `Quick test_fusion_multi_consumer_blocks;
          Alcotest.test_case "reduce closes group" `Quick test_fusion_reduce_closes_group;
        ] );
      ( "manifest_alloc",
        [
          Alcotest.test_case "static path" `Quick test_manifest_static;
          Alcotest.test_case "dynamic path (shape funcs)" `Quick
            test_manifest_dynamic_inserts_shape_funcs;
        ] );
      ( "memory_plan",
        [
          Alcotest.test_case "coalesces" `Quick test_memory_plan_coalesces;
          Alcotest.test_case "execution unchanged" `Quick test_memory_plan_execution_correct;
        ] );
      ( "device_place",
        [
          Alcotest.test_case "inserts copies for gpu" `Quick test_device_placement_inserts_copies;
          Alcotest.test_case "cpu is no-op" `Quick test_device_placement_cpu_noop;
          Alcotest.test_case "gpu end to end" `Quick test_gpu_end_to_end;
        ] );
    ]
