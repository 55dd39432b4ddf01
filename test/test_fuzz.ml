(* Differential fuzzing: random dataflow graphs are compiled through the
   full Nimble pipeline (ANF, CSE, fusion, manifest alloc, device placement,
   memory planning, bytecode, VM) and checked bit-for-bit against direct
   kernel evaluation — with both static and dynamic leading dimensions, and
   against the static executor where applicable. *)

open Nimble_tensor
open Nimble_ir
module Nimble = Nimble_compiler.Nimble
module Interp = Nimble_vm.Interp

(* ---------------------------------------------------------------- *)
(* Random graph generator: a chain of ops over (rows, cols) matrices  *)
(* with random reuse of earlier values (DAG edges).                   *)
(* ---------------------------------------------------------------- *)

type node =
  | Unary of string * int  (* op, input index *)
  | Binary of string * int * int
  | Dense of Tensor.t * int  (* weight (cols, cols), input index *)
  | Softmax of int

let unary_ops = [| "relu"; "tanh"; "sigmoid"; "negative"; "abs" |]
let binary_ops = [| "add"; "subtract"; "multiply"; "maximum"; "minimum" |]

let gen_graph rng ~cols ~length : node list =
  List.init length (fun i ->
      let pick_input () = Rng.int rng (i + 1) in
      match Rng.int rng 4 with
      | 0 -> Unary (unary_ops.(Rng.int rng (Array.length unary_ops)), pick_input ())
      | 1 ->
          Binary
            ( binary_ops.(Rng.int rng (Array.length binary_ops)),
              pick_input (),
              pick_input () )
      | 2 -> Dense (Tensor.randn ~scale:0.3 rng [| cols; cols |], pick_input ())
      | _ -> Softmax (pick_input ()))

(* Direct evaluation: values.(0) is the input. *)
let eval_graph (nodes : node list) (input : Tensor.t) : Tensor.t =
  let values = ref [| input |] in
  List.iter
    (fun node ->
      let v i = !values.(i) in
      let out =
        match node with
        | Unary (op, i) ->
            List.hd (Nimble_codegen.Op_eval.eval op ~attrs:[] [ v i ])
        | Binary (op, i, j) ->
            List.hd (Nimble_codegen.Op_eval.eval op ~attrs:[] [ v i; v j ])
        | Dense (w, i) -> Ops_matmul.dense (v i) w
        | Softmax i -> Ops_nn.softmax ~axis:(-1) (v i)
      in
      values := Array.append !values [| out |])
    nodes;
  !values.(Array.length !values - 1)

(* IR construction for the same graph. *)
let build_module (nodes : node list) ~(rows : Dim.t) ~cols : Irmod.t =
  let x = Expr.fresh_var ~ty:(Ty.tensor [ rows; Dim.static cols ]) "x" in
  let exprs = ref [| Expr.Var x |] in
  List.iter
    (fun node ->
      let v i = !exprs.(i) in
      let e =
        match node with
        | Unary (op, i) -> Expr.op_call op [ v i ]
        | Binary (op, i, j) -> Expr.op_call op [ v i; v j ]
        | Dense (w, i) -> Expr.op_call "dense" [ v i; Expr.Const w ]
        | Softmax i -> Expr.op_call ~attrs:[ ("axis", Attrs.Int (-1)) ] "softmax" [ v i ]
      in
      exprs := Array.append !exprs [| e |])
    nodes;
  Irmod.of_main (Expr.fn_def [ x ] !exprs.(Array.length !exprs - 1))

let close = Tensor.approx_equal ~atol:1e-3 ~rtol:1e-3

let prop_vm_matches_direct_static =
  QCheck.Test.make ~name:"random graph: VM = direct eval (static shapes)" ~count:40
    QCheck.(pair (int_range 0 1_000_000) (int_range 1 10))
    (fun (seed, length) ->
      let rng = Rng.create ~seed in
      let cols = 2 + Rng.int rng 6 in
      let rows = 1 + Rng.int rng 6 in
      let nodes = gen_graph rng ~cols ~length in
      let m = build_module nodes ~rows:(Dim.static rows) ~cols in
      let vm = Nimble.vm (Nimble.compile m) in
      let input = Tensor.randn ~scale:0.5 rng [| rows; cols |] in
      close (eval_graph nodes input) (Interp.run_tensors vm [ input ]))

let prop_vm_matches_direct_dynamic =
  QCheck.Test.make ~name:"random graph: VM = direct eval (Any rows)" ~count:40
    QCheck.(pair (int_range 0 1_000_000) (int_range 1 10))
    (fun (seed, length) ->
      let rng = Rng.create ~seed in
      let cols = 2 + Rng.int rng 6 in
      let nodes = gen_graph rng ~cols ~length in
      let m = build_module nodes ~rows:Dim.Any ~cols in
      let vm = Nimble.vm (Nimble.compile m) in
      (* one compiled executable, several runtime extents *)
      List.for_all
        (fun rows ->
          let input = Tensor.randn ~scale:0.5 rng [| rows; cols |] in
          close (eval_graph nodes input) (Interp.run_tensors vm [ input ]))
        [ 1; 3; 9 ])

let prop_static_executor_agrees =
  QCheck.Test.make ~name:"random graph: static executor = VM" ~count:25
    QCheck.(pair (int_range 0 1_000_000) (int_range 1 8))
    (fun (seed, length) ->
      let rng = Rng.create ~seed in
      let cols = 2 + Rng.int rng 5 in
      let rows = 1 + Rng.int rng 5 in
      let nodes = gen_graph rng ~cols ~length in
      let m () = build_module nodes ~rows:(Dim.static rows) ~cols in
      let vm = Nimble.vm (Nimble.compile (m ())) in
      let plan = Nimble.compile_static (m ()) in
      let input = Tensor.randn ~scale:0.5 rng [| rows; cols |] in
      close
        (Interp.run_tensors vm [ input ])
        (Nimble_compiler.Static_exec.run plan [ input ]))

let prop_options_do_not_change_results =
  QCheck.Test.make ~name:"random graph: optimization flags preserve semantics" ~count:20
    QCheck.(pair (int_range 0 1_000_000) (int_range 1 8))
    (fun (seed, length) ->
      let rng = Rng.create ~seed in
      let cols = 2 + Rng.int rng 5 in
      let nodes = gen_graph rng ~cols ~length in
      let input = Tensor.randn ~scale:0.5 rng [| 4; cols |] in
      let run options =
        let m = build_module nodes ~rows:Dim.Any ~cols in
        Interp.run_tensors (Nimble.vm (Nimble.compile ~options m)) [ input ]
      in
      let base = run Nimble.default_options in
      List.for_all
        (fun options -> close base (run options))
        [
          { Nimble.default_options with Nimble.fuse = false };
          { Nimble.default_options with Nimble.memory_plan = false };
          { Nimble.default_options with Nimble.dense_dispatch = None };
          { Nimble.default_options with Nimble.dense_dispatch = Some 2 };
        ])

let prop_emitted_bytecode_validates =
  QCheck.Test.make ~name:"random graph: emitted bytecode passes validation" ~count:30
    QCheck.(pair (int_range 0 1_000_000) (int_range 1 10))
    (fun (seed, length) ->
      let rng = Rng.create ~seed in
      let cols = 2 + Rng.int rng 6 in
      let nodes = gen_graph rng ~cols ~length in
      let m = build_module nodes ~rows:Dim.Any ~cols in
      let exe = Nimble.compile m in
      Nimble_analysis.Verifier.verify exe = [])

let prop_serialization_roundtrip_runs =
  QCheck.Test.make ~name:"random graph: serialize/load/relink runs identically" ~count:15
    QCheck.(pair (int_range 0 1_000_000) (int_range 1 8))
    (fun (seed, length) ->
      let rng = Rng.create ~seed in
      let cols = 2 + Rng.int rng 5 in
      let nodes = gen_graph rng ~cols ~length in
      let m = build_module nodes ~rows:Dim.Any ~cols in
      let exe = Nimble.compile m in
      let loaded = Nimble_vm.Serialize.of_bytes (Nimble_vm.Serialize.to_bytes exe) in
      Nimble_vm.Exe.relink ~from:exe loaded;
      let input = Tensor.randn ~scale:0.5 rng [| 3; cols |] in
      close
        (Interp.run_tensors (Nimble.vm exe) [ input ])
        (Interp.run_tensors (Interp.create loaded) [ input ]))

let () =
  Alcotest.run "fuzz"
    [
      ( "differential",
        List.map QCheck_alcotest.to_alcotest
          [
            prop_vm_matches_direct_static;
            prop_vm_matches_direct_dynamic;
            prop_static_executor_agrees;
            prop_options_do_not_change_results;
            prop_emitted_bytecode_validates;
            prop_serialization_roundtrip_runs;
          ] );
    ]
