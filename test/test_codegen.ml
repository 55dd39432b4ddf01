(* Codegen tests: dense kernel variants agree bitwise, residue dispatch
   selects correctly, lowering of fused primitives, composed shape functions,
   the symbolic tuner, and the op-eval kernel library. *)

open Nimble_tensor
open Nimble_ir
open Nimble_codegen

let tensor_eq = Alcotest.testable Tensor.pp (Tensor.approx_equal ~atol:1e-4 ~rtol:1e-4)
let tensor_bits = Alcotest.testable Tensor.pp Tensor.equal
let rng = Rng.create ~seed:21

(* ---------------------------- dense kernels ---------------------------- *)

let test_kernel_variants_agree () =
  List.iter
    (fun m ->
      let a = Tensor.randn rng [| m; 24 |] and w = Tensor.randn rng [| 10; 24 |] in
      let reference = Ops_matmul.dense a w in
      Alcotest.check tensor_bits
        (Fmt.str "residue m=%d" m)
        reference
        (Dense_kernels.residue_kernel ~residue:(m mod 8) a w);
      Alcotest.check tensor_bits (Fmt.str "guarded m=%d" m) reference
        (Dense_kernels.guarded_kernel a w);
      List.iter
        (fun tile_m ->
          Alcotest.check tensor_bits
            (Fmt.str "tiled %d m=%d" tile_m m)
            reference
            (Dense_kernels.tiled_kernel ~tile_m a w))
        [ 1; 2; 3; 4; 8; 16; 256 ])
    [ 1; 7; 8; 9; 16; 23 ]

let test_residue_kernel_rejects_wrong_residue () =
  let a = Tensor.randn rng [| 9; 8 |] and w = Tensor.randn rng [| 4; 8 |] in
  Alcotest.(check bool) "raises" true
    (try
       ignore (Dense_kernels.residue_kernel ~residue:0 a w);
       false
     with Tensor.Type_error _ -> true)

(* ---------------------------- dispatch ---------------------------- *)

let test_dispatch_selects_and_counts () =
  let d = Dispatch.create ~num_kernels:4 () in
  (* residues covered: 0, 2, 4, 6 *)
  let w = Tensor.randn rng [| 4; 8 |] in
  List.iter
    (fun m ->
      let a = Tensor.randn rng [| m; 8 |] in
      Alcotest.check tensor_bits (Fmt.str "m=%d" m) (Ops_matmul.dense a w) (Dispatch.run d a w))
    [ 8; 10; 11; 13; 16 ];
  let hits, misses = Dispatch.stats d in
  (* 8, 10, 16 hit (residues 0, 2, 0); 11, 13 miss (residues 3, 5) *)
  Alcotest.(check int) "hits" 3 hits;
  Alcotest.(check int) "misses" 2 misses

let test_dispatch_code_size_tradeoff () =
  Alcotest.(check int) "8 kernels + fallback" 9 (Dispatch.code_size (Dispatch.create ~num_kernels:8 ()));
  Alcotest.(check int) "no dispatch = 1" 1 (Dispatch.code_size (Dispatch.create ~num_kernels:0 ()))

let test_dispatch_extern_routing () =
  let d = Dispatch.create ~num_kernels:8 () in
  let called = ref false in
  Dispatch.set_extern d (fun a w ->
      called := true;
      Dense_kernels.extern_library_kernel a w);
  let a = Tensor.randn rng [| 4; 8 |] and w = Tensor.randn rng [| 4; 8 |] in
  Alcotest.check tensor_bits "extern result" (Ops_matmul.dense a w) (Dispatch.run d a w);
  Alcotest.(check bool) "extern used" true !called

(* ---------------------------- lowering ---------------------------- *)

let primitive_of body params =
  let m = Irmod.of_main (Expr.fn_def params body) in
  let m = Nimble_passes.Anf.run m in
  ignore (Nimble_typing.Infer.infer_module m);
  let m = Nimble_passes.Fusion.run m in
  let fn = Irmod.func_exn m "main" in
  match Nimble_passes.Fusion.primitives_of fn.Expr.body with
  | [ p ] -> p
  | ps -> Alcotest.failf "expected one primitive, got %d" (List.length ps)

let test_lower_fused_primitive () =
  let x = Expr.fresh_var ~ty:(Ty.tensor_of_shape [| 3; 6 |]) "x" in
  let w = Tensor.randn rng [| 5; 6 |] in
  let body = Expr.op_call "relu" [ Expr.op_call "dense" [ Expr.Var x; Expr.Const w ] ] in
  let prim = primitive_of body [ x ] in
  let kernel = Lower.lower ~name:"k" prim in
  let input = Tensor.randn rng [| 3; 6 |] in
  (* constants become primitive parameters during fusion *)
  match kernel [ input; w ] with
  | [ out ] ->
      Alcotest.check tensor_eq "fused dense+relu" (Ops_elem.relu (Ops_matmul.dense input w)) out
  | outs -> Alcotest.failf "expected one output, got %d" (List.length outs)

let test_lower_wrong_arity_rejected () =
  let x = Expr.fresh_var ~ty:(Ty.tensor_of_shape [| 2 |]) "x" in
  let prim = primitive_of (Expr.op_call "relu" [ Expr.Var x ]) [ x ] in
  let kernel = Lower.lower ~name:"k" prim in
  Alcotest.(check bool) "raises" true
    (try
       ignore (kernel []);
       false
     with Lower.Lower_error _ -> true)

let test_composed_shape_function () =
  (* the shape function of a fused group composes member shape funcs (§4.2) *)
  let x = Expr.fresh_var ~ty:(Ty.tensor [ Dim.Any; Dim.static 6 ]) "x" in
  let w = Tensor.randn rng [| 5; 6 |] in
  let body =
    Expr.op_call "tanh"
      [ Expr.op_call "bias_add"
          [ Expr.op_call "dense" [ Expr.Var x; Expr.Const w ];
            Expr.Const (Tensor.zeros [| 5 |]) ] ]
  in
  let prim = primitive_of body [ x ] in
  let sf = Lower.shape_func_of_primitive ~name:"k" prim in
  (* primitive params: (x, w_const, bias_const) *)
  Alcotest.(check (list (array int))) "composed" [ [| 7; 5 |] ]
    (sf (List.map Nimble_shape.Shape_func.shape_only [ [| 7; 6 |]; [| 5; 6 |]; [| 5 |] ]))

(* ---------------------------- tuner ---------------------------- *)

let test_tuner_runs_protocol () =
  let result = Tuner.tune ~space:[ { Tuner.tile_m = 1 }; { Tuner.tile_m = 8 } ] ~top_k:2
      ~static_stand_in:32 ~eval_extents:[ 4; 16; 32 ] ~n:32 ~k:32 ()
  in
  Alcotest.(check int) "tuned on stand-in" 32 result.Tuner.tuned_on;
  Alcotest.(check int) "top k kept" 2 (List.length result.Tuner.top_k);
  Alcotest.(check int) "cross eval points" 6 (List.length result.Tuner.cross_eval);
  Alcotest.(check bool) "picked from space" true
    (List.mem result.Tuner.best [ { Tuner.tile_m = 1 }; { Tuner.tile_m = 8 } ])

(* ---------------------------- op eval / trace ---------------------------- *)

let test_op_eval_unknown_rejected () =
  Alcotest.(check bool) "raises" true
    (try
       ignore (Op_eval.eval "not_an_op" ~attrs:[] []);
       false
     with Op_eval.Eval_error _ -> true)

let test_flops_estimates () =
  Alcotest.(check int) "dense flops" (2 * 4 * 8 * 16)
    (Op_eval.flops "dense" ~attrs:[] [ [| 4; 16 |]; [| 8; 16 |] ] [ [| 4; 8 |] ]);
  Alcotest.(check int) "add flops" 12 (Op_eval.flops "add" ~attrs:[] [ [| 3; 4 |] ] [ [| 3; 4 |] ])

let test_trace_capture () =
  let events = ref [] in
  Trace.with_listener
    (fun ev -> events := ev :: !events)
    (fun () ->
      ignore (Trace.eval_op "add" ~attrs:[] [ Tensor.ones [| 2 |]; Tensor.ones [| 2 |] ]);
      Trace.record_framework "test_event" ~amount:3 ());
  (match !events with
  | [ Trace.Framework { kind; amount }; Trace.Op_exec { op; flops; _ } ] ->
      Alcotest.(check string) "framework kind" "test_event" kind;
      Alcotest.(check int) "amount" 3 amount;
      Alcotest.(check string) "op" "add" op;
      Alcotest.(check int) "flops" 2 flops
  | evs -> Alcotest.failf "unexpected %d events" (List.length evs));
  (* listener removed after with_listener *)
  Alcotest.(check bool) "disabled" false (Trace.enabled ())

let prop_dispatch_any_k_correct =
  QCheck.Test.make ~name:"dispatch correct for any k and m" ~count:60
    QCheck.(pair (int_range 0 8) (int_range 1 30))
    (fun (k, m) ->
      let d = Dispatch.create ~num_kernels:k () in
      let rng = Rng.create ~seed:(k + (100 * m)) in
      let a = Tensor.randn rng [| m; 12 |] and w = Tensor.randn rng [| 6; 12 |] in
      Tensor.equal (Ops_matmul.dense a w) (Dispatch.run d a w))

let () =
  Alcotest.run "codegen"
    [
      ( "dense_kernels",
        [
          Alcotest.test_case "variants agree" `Quick test_kernel_variants_agree;
          Alcotest.test_case "wrong residue rejected" `Quick test_residue_kernel_rejects_wrong_residue;
        ] );
      ( "dispatch",
        [
          Alcotest.test_case "select + stats" `Quick test_dispatch_selects_and_counts;
          Alcotest.test_case "code size" `Quick test_dispatch_code_size_tradeoff;
          Alcotest.test_case "extern routing" `Quick test_dispatch_extern_routing;
          QCheck_alcotest.to_alcotest prop_dispatch_any_k_correct;
        ] );
      ( "lowering",
        [
          Alcotest.test_case "fused primitive" `Quick test_lower_fused_primitive;
          Alcotest.test_case "arity check" `Quick test_lower_wrong_arity_rejected;
          Alcotest.test_case "composed shape function" `Quick test_composed_shape_function;
        ] );
      ("tuner", [ Alcotest.test_case "protocol" `Quick test_tuner_runs_protocol ]);
      ( "op_eval",
        [
          Alcotest.test_case "unknown op" `Quick test_op_eval_unknown_rejected;
          Alcotest.test_case "flop estimates" `Quick test_flops_estimates;
          Alcotest.test_case "trace capture" `Quick test_trace_capture;
        ] );
    ]
