(* Memory-behaviour integration tests (paper §4.3 / §6.3): planning reduces
   allocations without changing results, storages/arenas behave, kills and
   pooling work, footprint accounting is consistent. *)

open Nimble_tensor
open Nimble_ir
module Nimble = Nimble_compiler.Nimble
module Interp = Nimble_vm.Interp
module Profiler = Nimble_vm.Profiler
module Pool = Nimble_device.Pool
module Storage = Nimble_vm.Storage

let tensor_eq = Alcotest.testable Tensor.pp (Tensor.approx_equal ~atol:1e-4 ~rtol:1e-4)
let rng = Rng.create ~seed:41

(* a static elementwise chain with several intermediates *)
let chain_module () =
  let x = Expr.fresh_var ~ty:(Ty.tensor_of_shape [| 16; 16 |]) "x" in
  let body =
    Expr.op_call "softmax"
      [
        Expr.op_call "softmax"
          [ Expr.op_call "softmax" [ Expr.op_call "softmax" [ Expr.Var x ] ] ];
      ]
  in
  Irmod.of_main (Expr.fn_def [ x ] body)

let options ~plan = { Nimble.default_options with Nimble.memory_plan = plan }

let alloc_count ~plan ~pooling m input =
  let exe = Nimble.compile ~options:(options ~plan) m in
  let vm = Interp.create ~pooling exe in
  ignore (Interp.run_tensors vm [ input ]);
  Profiler.reset (Interp.profiler vm);
  let out = Interp.run_tensors vm [ input ] in
  (out, Pool.total_allocs (Interp.profiler vm).Profiler.pool)

let test_planning_reduces_allocations () =
  let input = Tensor.randn rng [| 16; 16 |] in
  let out_off, n_off = alloc_count ~plan:false ~pooling:false (chain_module ()) input in
  let out_on, n_on = alloc_count ~plan:true ~pooling:true (chain_module ()) input in
  Alcotest.check tensor_eq "results agree" out_off out_on;
  Alcotest.(check bool) (Fmt.str "fewer allocs (%d -> %d)" n_off n_on) true (n_on < n_off)

let test_planning_preserves_dynamic_results () =
  (* dynamic shapes exercise the planner's mixed static/dynamic path *)
  let x = Expr.fresh_var ~ty:(Ty.tensor [ Dim.Any; Dim.static 8 ]) "x" in
  let w = Tensor.randn rng [| 8; 8 |] in
  let body =
    Expr.op_call "softmax"
      [ Expr.op_call "dense" [ Expr.op_call "relu" [ Expr.Var x ]; Expr.Const w ] ]
  in
  let m () = Irmod.of_main (Expr.fn_def [ x ] body) in
  let input = Tensor.randn rng [| 5; 8 |] in
  let out_off, _ = alloc_count ~plan:false ~pooling:false (m ()) input in
  let out_on, _ = alloc_count ~plan:true ~pooling:true (m ()) input in
  Alcotest.check tensor_eq "dynamic results agree" out_off out_on

let test_arena_suballoc_reuse () =
  let s = Storage.create ~device:Nimble_device.Device.cpu ~bytes:1024 ~is_arena:true in
  let a = Storage.alloc_tensor s ~offset:0 ~shape:[| 4 |] ~dtype:Dtype.F32 in
  let b = Storage.alloc_tensor s ~offset:0 ~shape:[| 4 |] ~dtype:Dtype.F32 in
  let c = Storage.alloc_tensor s ~offset:64 ~shape:[| 4 |] ~dtype:Dtype.F32 in
  Alcotest.(check bool) "same slot shared" true (a == b);
  Alcotest.(check bool) "different offset distinct" true (not (a == c));
  let d = Storage.alloc_tensor s ~offset:0 ~shape:[| 2; 2 |] ~dtype:Dtype.F32 in
  Alcotest.(check bool) "different shape distinct" true (not (a == d))

let test_pooling_across_invocations () =
  (* with pooling, repeated inference reuses the same storage instances *)
  let m = chain_module () in
  let exe = Nimble.compile ~options:(options ~plan:true) m in
  let vm = Interp.create ~pooling:true exe in
  let input = Tensor.randn rng [| 16; 16 |] in
  let o1 = Interp.run_tensors vm [ input ] in
  let o2 = Interp.run_tensors vm [ input ] in
  Alcotest.check tensor_eq "idempotent" o1 o2;
  (* distinct inputs still give distinct (correct) answers through the
     reused buffers *)
  let input2 = Tensor.randn rng [| 16; 16 |] in
  let o3 = Interp.run_tensors vm [ input2 ] in
  Alcotest.(check bool) "no stale data" true (not (Tensor.approx_equal o1 o3))

let test_pooling_off_allocates_fresh () =
  let m = chain_module () in
  let exe = Nimble.compile ~options:(options ~plan:true) m in
  let vm = Interp.create ~pooling:false exe in
  let input = Tensor.randn rng [| 16; 16 |] in
  ignore (Interp.run_tensors vm [ input ]);
  let p = Interp.profiler vm in
  let before = Pool.total_allocs p.Profiler.pool in
  ignore (Interp.run_tensors vm [ input ]);
  Alcotest.(check bool) "fresh allocations each run" true
    (Pool.total_allocs p.Profiler.pool > before)

let test_kills_emitted_and_executed () =
  (* kills target dynamically-allocated tensors (static ones are coalesced
     into the arena), so use a dynamic-shape module. With symbolic planning
     these bindable sites are folded into the arena plan instead (no kill
     needed — the arena is rebound per request), so pin the legacy path off
     and check both behaviours. *)
  let mk () =
    let x = Expr.fresh_var ~ty:(Ty.tensor [ Dim.Any; Dim.static 8 ]) "x" in
    let body =
      Expr.op_call "softmax"
        [ Expr.op_call "dense" [ Expr.op_call "relu" [ Expr.Var x ]; Expr.Const (Tensor.randn rng [| 8; 8 |]) ] ]
    in
    Irmod.of_main (Expr.fn_def [ x ] body)
  in
  let legacy = { (options ~plan:true) with Nimble.symbolic_plan = false } in
  let m', report = Nimble.optimize ~options:legacy (mk ()) in
  ignore m';
  Alcotest.(check bool) "kills inserted" true (report.Nimble.kills_inserted > 0);
  let _, sym_report = Nimble.optimize ~options:(options ~plan:true) (mk ()) in
  Alcotest.(check int) "symbolic planning supersedes kills" 0
    sym_report.Nimble.kills_inserted

let test_footprint_accounting_consistent () =
  let _, report = Nimble.compile_with_report ~options:(options ~plan:true) (chain_module ()) in
  Alcotest.(check bool) "arena fits in sum" true
    (report.Nimble.arena_bytes <= report.Nimble.unplanned_bytes);
  Alcotest.(check bool) "arena positive" true (report.Nimble.arena_bytes > 0);
  Alcotest.(check int) "one arena" 1 report.Nimble.storages_after_planning

let test_vision_models_plan_cleanly () =
  (* every vision model compiles with planning and runs correctly with the
     arena + pooling *)
  List.iter
    (fun (name, build) ->
      let exe = Nimble.compile ~options:(options ~plan:true) (build ()) in
      let vm = Interp.create ~pooling:true exe in
      let input = Nimble_models.Vision.random_input () in
      let o1 = Interp.run_tensors vm [ input ] in
      let o2 = Interp.run_tensors vm [ input ] in
      Alcotest.check tensor_eq (name ^ " stable across runs") o1 o2)
    Nimble_models.Vision.all

let test_lstm_recursion_safe_with_pooling () =
  (* recursive frames must not share arenas: results stay exact *)
  let w = Nimble_models.Lstm.init_weights Nimble_models.Lstm.small_config in
  let exe = Nimble.compile (Nimble_models.Lstm.ir_module w) in
  let vm = Interp.create ~pooling:true exe in
  List.iter
    (fun len ->
      let xs = Nimble_models.Lstm.random_sequence w.Nimble_models.Lstm.config ~len in
      let input = Nimble_workloads.Zoo.tensor_list xs in
      let out = Nimble_vm.Obj.to_tensor (Interp.invoke vm [ input ]) in
      Alcotest.check tensor_eq
        (Fmt.str "len %d" len)
        (Nimble_models.Lstm.reference w xs)
        out)
    [ 4; 9; 4 ]

let () =
  Alcotest.run "memory"
    [
      ( "planning",
        [
          Alcotest.test_case "reduces allocations" `Quick test_planning_reduces_allocations;
          Alcotest.test_case "dynamic results preserved" `Quick
            test_planning_preserves_dynamic_results;
          Alcotest.test_case "kills emitted" `Quick test_kills_emitted_and_executed;
          Alcotest.test_case "footprint accounting" `Quick test_footprint_accounting_consistent;
        ] );
      ( "runtime",
        [
          Alcotest.test_case "arena suballoc reuse" `Quick test_arena_suballoc_reuse;
          Alcotest.test_case "pooling across invocations" `Quick test_pooling_across_invocations;
          Alcotest.test_case "pooling off" `Quick test_pooling_off_allocates_fresh;
          Alcotest.test_case "vision models" `Slow test_vision_models_plan_cleanly;
          Alcotest.test_case "recursion safe" `Quick test_lstm_recursion_safe_with_pooling;
        ] );
    ]
