(* Differential fuzzing: random dataflow graphs are compiled through the
   full Nimble pipeline (ANF, CSE, fusion, manifest alloc, device placement,
   memory planning, bytecode, VM) and checked bit-for-bit against direct
   kernel evaluation — with both static and dynamic leading dimensions, and
   against the static executor where applicable. Fusion turns each run of
   elementwise nodes into one staged loop, so the generator mixes
   unary/binary ops, bias_add, and strided slices of wider dense outputs
   into those runs, and one graph in five is big enough to split over the
   domain pool. *)

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
  | Bias of Tensor.t * int  (* bias_add of a (cols) vector *)
  | Slice of Tensor.t * int * int
      (* weight (3 cols, cols), input index, part: columns
         [part * cols, (part + 1) * cols) of the dense output *)

let unary_ops =
  [| "relu"; "tanh"; "sigmoid"; "negative"; "abs"; "exp"; "gelu"; "erf" |]

let binary_ops = [| "add"; "subtract"; "multiply"; "maximum"; "minimum" |]

let gen_graph rng ~cols ~length : node list =
  List.init length (fun i ->
      let pick_input () = Rng.int rng (i + 1) in
      match Rng.int rng 6 with
      | 0 -> Unary (unary_ops.(Rng.int rng (Array.length unary_ops)), pick_input ())
      | 1 ->
          Binary
            ( binary_ops.(Rng.int rng (Array.length binary_ops)),
              pick_input (),
              pick_input () )
      | 2 -> Dense (Tensor.randn ~scale:0.3 rng [| cols; cols |], pick_input ())
      | 3 -> Bias (Tensor.randn ~scale:0.5 rng [| cols |], pick_input ())
      | 4 -> Slice (Tensor.randn ~scale:0.3 rng [| 3 * cols; cols |], pick_input (), Rng.int rng 3)
      | _ -> Softmax (pick_input ()))

(* Graph sizes: one graph in five has more than
   [Parallel.default_min_work] elements per value, so its loops split over
   the domain pool when it has more than one domain. *)
let gen_size rng =
  if Rng.int rng 5 = 0 then (`Big, 128 + Rng.int rng 8) else (`Small, 2 + Rng.int rng 6)

let rows_for rng = function `Big -> 128 + Rng.int rng 8 | `Small -> 1 + Rng.int rng 6
let extents = function `Big -> [ 1; 3; 131 ] | `Small -> [ 1; 3; 9 ]

let slice_attrs ~cols part =
  [
    ("begins", Attrs.Ints [ 0; part * cols ]);
    ("ends", Attrs.Ints [ 1 lsl 30; (part + 1) * cols ]);
  ]

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
        | Bias (b, i) -> List.hd (Nimble_codegen.Op_eval.eval "bias_add" ~attrs:[] [ v i; b ])
        | Slice (w, i, part) ->
            let cols = (Tensor.shape w).(1) in
            List.hd
              (Nimble_codegen.Op_eval.eval "strided_slice" ~attrs:(slice_attrs ~cols part)
                 [ Ops_matmul.dense (v i) w ])
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
        | Bias (b, i) -> Expr.op_call "bias_add" [ v i; Expr.Const b ]
        | Slice (w, i, part) ->
            Expr.op_call ~attrs:(slice_attrs ~cols part) "strided_slice"
              [ Expr.op_call "dense" [ v i; Expr.Const w ] ]
      in
      exprs := Array.append !exprs [| e |])
    nodes;
  Irmod.of_main (Expr.fn_def [ x ] !exprs.(Array.length !exprs - 1))

(* Bit for bit: the same shape, dtype and float bits in every element (a
   nan from an overflowing exp matches the same nan). *)
let same a b =
  Tensor.equal_shape a b
  && Dtype.equal (Tensor.dtype a) (Tensor.dtype b)
  && Array.for_all2
       (fun x y -> Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y))
       (Tensor.to_float_array a) (Tensor.to_float_array b)

let prop_vm_matches_direct_static =
  QCheck.Test.make ~name:"random graph: VM = direct eval (static shapes)" ~count:40
    QCheck.(pair (int_range 0 1_000_000) (int_range 1 10))
    (fun (seed, length) ->
      let rng = Rng.create ~seed in
      let size, cols = gen_size rng in
      let rows = rows_for rng size in
      let nodes = gen_graph rng ~cols ~length in
      let m = build_module nodes ~rows:(Dim.static rows) ~cols in
      let vm = Nimble.vm (Nimble.compile m) in
      let input = Tensor.randn ~scale:0.5 rng [| rows; cols |] in
      same (eval_graph nodes input) (Interp.run_tensors vm [ input ]))

let prop_vm_matches_direct_dynamic =
  QCheck.Test.make ~name:"random graph: VM = direct eval (Any rows)" ~count:40
    QCheck.(pair (int_range 0 1_000_000) (int_range 1 10))
    (fun (seed, length) ->
      let rng = Rng.create ~seed in
      let size, cols = gen_size rng in
      let nodes = gen_graph rng ~cols ~length in
      let m = build_module nodes ~rows:Dim.Any ~cols in
      let vm = Nimble.vm (Nimble.compile m) in
      (* one compiled executable, several runtime extents *)
      List.for_all
        (fun rows ->
          let input = Tensor.randn ~scale:0.5 rng [| rows; cols |] in
          same (eval_graph nodes input) (Interp.run_tensors vm [ input ]))
        (extents size))

let prop_static_executor_agrees =
  QCheck.Test.make ~name:"random graph: static executor = VM" ~count:25
    QCheck.(pair (int_range 0 1_000_000) (int_range 1 8))
    (fun (seed, length) ->
      let rng = Rng.create ~seed in
      let size, cols = gen_size rng in
      let rows = rows_for rng size in
      let nodes = gen_graph rng ~cols ~length in
      let m () = build_module nodes ~rows:(Dim.static rows) ~cols in
      let vm = Nimble.vm (Nimble.compile (m ())) in
      let plan = Nimble.compile_static (m ()) in
      let input = Tensor.randn ~scale:0.5 rng [| rows; cols |] in
      same
        (Interp.run_tensors vm [ input ])
        (Nimble_compiler.Static_exec.run plan [ input ]))

let prop_options_do_not_change_results =
  QCheck.Test.make ~name:"random graph: optimization flags preserve semantics" ~count:20
    QCheck.(pair (int_range 0 1_000_000) (int_range 1 8))
    (fun (seed, length) ->
      let rng = Rng.create ~seed in
      let size, cols = gen_size rng in
      let nodes = gen_graph rng ~cols ~length in
      let input = Tensor.randn ~scale:0.5 rng [| rows_for rng size; cols |] in
      let run options =
        let m = build_module nodes ~rows:Dim.Any ~cols in
        Interp.run_tensors (Nimble.vm (Nimble.compile ~options m)) [ input ]
      in
      let base = run Nimble.default_options in
      List.for_all
        (fun options -> same base (run options))
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
      (* not bitwise: Serialize writes F32 constants as 4-byte floats while
         a tensor in memory holds doubles, so a loaded executable's weights
         are rounded copies of the compiled one's *)
      Tensor.approx_equal ~atol:1e-3 ~rtol:1e-3
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
