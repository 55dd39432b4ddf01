(* End-to-end tests: IR module -> compile -> VM execution, checked against
   direct kernel evaluation. *)

open Nimble_tensor
open Nimble_ir
module Nimble = Nimble_compiler.Nimble
module Interp = Nimble_vm.Interp
module Obj = Nimble_vm.Obj

let tensor_eq = Alcotest.testable Tensor.pp (Tensor.approx_equal ~atol:1e-4 ~rtol:1e-4)

let rng = Rng.create ~seed:7

let static_ty s = Ty.tensor_of_shape (Shape.of_list s)
let dyn_ty dims = Ty.tensor dims

(* --- a static elementwise graph: relu(a + b) * a ---------------------- *)
let static_module () =
  let a = Expr.fresh_var ~ty:(static_ty [ 4; 5 ]) "a" in
  let b = Expr.fresh_var ~ty:(static_ty [ 4; 5 ]) "b" in
  let body =
    Expr.op_call "multiply"
      [ Expr.op_call "relu" [ Expr.op_call "add" [ Expr.Var a; Expr.Var b ] ]; Expr.Var a ]
  in
  Irmod.of_main (Expr.fn_def [ a; b ] body)

let expected_static a b = Ops_elem.mul (Ops_elem.relu (Ops_elem.add a b)) a

let test_static_e2e () =
  let m = static_module () in
  let a = Tensor.randn rng [| 4; 5 |] and b = Tensor.randn rng [| 4; 5 |] in
  let exe = Nimble.compile m in
  let vm = Nimble.vm exe in
  let out = Interp.run_tensors vm [ a; b ] in
  Alcotest.check tensor_eq "relu(a+b)*a" (expected_static a b) out

(* --- a dynamic-shape graph: dense with Any rows ------------------------ *)
let dyn_dense_module () =
  let x = Expr.fresh_var ~ty:(dyn_ty [ Dim.Any; Dim.static 16 ]) "x" in
  let w = Expr.fresh_var ~ty:(static_ty [ 8; 16 ]) "w" in
  let b = Expr.fresh_var ~ty:(static_ty [ 8 ]) "b" in
  let body =
    Expr.op_call "tanh"
      [ Expr.op_call "bias_add" [ Expr.op_call "dense" [ Expr.Var x; Expr.Var w ]; Expr.Var b ] ]
  in
  Irmod.of_main (Expr.fn_def [ x; w; b ] body)

let test_dynamic_dense () =
  let m = dyn_dense_module () in
  let exe = Nimble.compile m in
  let vm = Nimble.vm exe in
  let w = Tensor.randn rng [| 8; 16 |] and b = Tensor.randn rng [| 8 |] in
  (* one executable serves several sequence lengths, covering odd residues *)
  List.iter
    (fun rows ->
      let x = Tensor.randn rng [| rows; 16 |] in
      let out = Interp.run_tensors vm [ x; w; b ] in
      let expected = Ops_elem.tanh (Ops_matmul.dense_bias x w b) in
      Alcotest.check tensor_eq (Fmt.str "rows=%d" rows) expected out)
    [ 1; 3; 8; 13; 16; 21 ]

(* --- integer dense: every dispatch setting accepts it, same bits ------- *)
let test_integer_dense_dispatched () =
  let x = Expr.fresh_var ~ty:(Ty.tensor_of_shape ~dtype:Dtype.I64 [| 2; 4 |]) "x" in
  let w =
    Tensor.of_int_array ~dtype:Dtype.I64 [| 3; 4 |]
      [| 1; 2; 3; 4; -1; 0; 1; 0; 2; 2; 2; 2 |]
  in
  (* passes rewrite a module in place: build one per compile *)
  let m () = Irmod.of_main (Expr.fn_def [ x ] (Expr.op_call "dense" [ Expr.Var x; Expr.Const w ])) in
  let input = Tensor.of_int_array ~dtype:Dtype.I64 [| 2; 4 |] [| 1; -2; 3; -4; 5; 6; -7; 8 |] in
  let run options = Interp.run_tensors (Nimble.vm (Nimble.compile ~options (m ()))) [ input ] in
  let plain = run { Nimble.default_options with dense_dispatch = None } in
  Alcotest.(check (array (float 0.0))) "undispatched"
    [| -10.; 2.; -4.; 28.; -12.; 24. |] (Tensor.to_float_array plain);
  Alcotest.check (Alcotest.testable Tensor.pp Tensor.equal) "dispatched = undispatched"
    plain (run Nimble.default_options)

(* --- a 12-layer BERT compiles: the builder's DAG is sized by identity --- *)
let test_deep_bert_compiles () =
  let module Bert = Nimble_models.Bert in
  let w =
    Bert.init_weights
      { Bert.num_layers = 12; hidden_size = 16; num_heads = 2; ffn_size = 32; vocab_size = 50 }
  in
  let exe, report = Nimble.compile_with_report (Bert.ir_module w) in
  (match report.Nimble.passes with
  | first :: second :: _ ->
      Alcotest.(check string) "first pass" "anf" first.Nimble.pass_name;
      (* ANF keeps one binding per shared node, so the DAG holds at least
         as many nodes as one tree walk of the ANF output *)
      Alcotest.(check bool)
        (Fmt.str "DAG size %d within ANF's size %d" first.Nimble.nodes_before
           first.Nimble.nodes_after)
        true
        (first.Nimble.nodes_before > 0
        && first.Nimble.nodes_before <= 2 * first.Nimble.nodes_after);
      Alcotest.(check int) "later rows count the ANF tree" first.Nimble.nodes_after
        second.Nimble.nodes_before
  | _ -> Alcotest.fail "no pass rows");
  let x = Bert.embed w (Bert.random_ids w ~len:5) in
  Alcotest.check tensor_eq "12 layers run" (Bert.reference w x)
    (Interp.run_tensors (Nimble.vm exe) [ x ])

(* --- control flow: if mean(x) > 0 then x+1 else x-1 -------------------- *)
let control_flow_module () =
  let x = Expr.fresh_var ~ty:(static_ty [ 6 ]) "x" in
  let cond =
    Expr.op_call "greater" [ Expr.op_call "mean" [ Expr.Var x ]; Expr.const_scalar 0.0 ]
  in
  let body =
    Expr.If
      ( cond,
        Expr.op_call "add" [ Expr.Var x; Expr.const_scalar 1.0 ],
        Expr.op_call "subtract" [ Expr.Var x; Expr.const_scalar 1.0 ] )
  in
  Irmod.of_main (Expr.fn_def [ x ] body)

let test_control_flow () =
  let m = control_flow_module () in
  let exe = Nimble.compile m in
  let vm = Nimble.vm exe in
  let pos = Tensor.full [| 6 |] 2.0 in
  let neg = Tensor.full [| 6 |] (-2.0) in
  Alcotest.check tensor_eq "positive branch" (Tensor.full [| 6 |] 3.0)
    (Interp.run_tensors vm [ pos ]);
  Alcotest.check tensor_eq "negative branch"
    (Tensor.full [| 6 |] (-3.0))
    (Interp.run_tensors vm [ neg ])

(* --- recursion over an ADT list: sum all tensors ----------------------- *)
let list_sum_module () =
  let elem_ty = static_ty [ 3 ] in
  let list_adt = Adt.tensor_list ~elem_ty in
  let nil = Adt.ctor_exn list_adt "Nil" in
  let cons = Adt.ctor_exn list_adt "Cons" in
  let xs = Expr.fresh_var ~ty:(Ty.Adt "TensorList") "xs" in
  let acc = Expr.fresh_var ~ty:elem_ty "acc" in
  let hd = Expr.fresh_var ~ty:elem_ty "hd" in
  let tl = Expr.fresh_var ~ty:(Ty.Adt "TensorList") "tl" in
  let body =
    Expr.Match
      ( Expr.Var xs,
        [
          { Expr.pat = Expr.Pctor (nil, []); rhs = Expr.Var acc };
          {
            Expr.pat = Expr.Pctor (cons, [ Expr.Pvar hd; Expr.Pvar tl ]);
            rhs =
              Expr.call (Expr.Global "sum_list")
                [ Expr.Var tl; Expr.op_call "add" [ Expr.Var acc; Expr.Var hd ] ];
          };
        ] )
  in
  let m = Irmod.create () in
  Irmod.add_adt m list_adt;
  Irmod.add_func m "sum_list" (Expr.fn_def ~ret_ty:elem_ty [ xs; acc ] body);
  let xs0 = Expr.fresh_var ~ty:(Ty.Adt "TensorList") "input" in
  Irmod.add_func m "main"
    (Expr.fn_def [ xs0 ]
       (Expr.call (Expr.Global "sum_list")
          [ Expr.Var xs0; Expr.Const (Tensor.zeros [| 3 |]) ]));
  m

let test_adt_recursion () =
  let vm = Nimble.vm (Nimble.compile (list_sum_module ())) in
  let ts = List.init 5 (fun _ -> Tensor.randn rng [| 3 |]) in
  let out = Obj.to_tensor (Interp.invoke vm [ Nimble_workloads.Zoo.tensor_list ts ]) in
  let expected = List.fold_left Ops_elem.add (Tensor.zeros [| 3 |]) ts in
  Alcotest.check tensor_eq "list sum" expected out

(* --- data-dependent shapes: unique ------------------------------------- *)
let test_data_dependent () =
  let x = Expr.fresh_var ~ty:(static_ty [ 8 ]) "x" in
  let m =
    Irmod.of_main
      (Expr.fn_def [ x ]
         (Expr.op_call "add"
            [ Expr.op_call "unique" [ Expr.Var x ]; Expr.const_scalar 0.0 ]))
  in
  let exe = Nimble.compile m in
  let vm = Nimble.vm exe in
  let x = Tensor.of_float_array [| 8 |] [| 1.; 2.; 1.; 3.; 2.; 1.; 4.; 4. |] in
  let out = Interp.run_tensors vm [ x ] in
  Alcotest.check tensor_eq "unique" (Tensor.of_float_array [| 4 |] [| 1.; 2.; 3.; 4. |]) out

(* --- upper-bound shapes: nms ------------------------------------------- *)
let test_upper_bound () =
  let x = Expr.fresh_var ~ty:(static_ty [ 4; 5 ]) "boxes" in
  let m =
    Irmod.of_main
      (Expr.fn_def [ x ]
         (Expr.op_call ~attrs:[ ("iou", Attrs.Float 0.5) ] "nms" [ Expr.Var x ]))
  in
  let exe = Nimble.compile m in
  let vm = Nimble.vm exe in
  (* two overlapping boxes + one distinct: nms keeps 2 of 3 scored boxes *)
  let boxes =
    Tensor.of_float_array [| 4; 5 |]
      [|
        0.9; 0.0; 0.0; 10.0; 10.0;
        0.8; 1.0; 1.0; 10.0; 10.0;
        0.7; 20.0; 20.0; 30.0; 30.0;
        0.6; 21.0; 21.0; 30.0; 30.0;
      |]
  in
  let out = Interp.run_tensors vm [ boxes ] in
  Alcotest.(check int) "kept boxes" 2 (Tensor.shape out).(0)

(* --- compile report sanity --------------------------------------------- *)
let test_report () =
  let m = dyn_dense_module () in
  let _, report = Nimble.compile_with_report m in
  Alcotest.(check bool) "some primitives" true (report.Nimble.primitives >= 1);
  Alcotest.(check bool) "instructions emitted" true (report.Nimble.instructions > 3)

(* --- static executor agrees with the VM -------------------------------- *)
let test_static_executor () =
  let m = static_module () in
  let plan = Nimble.compile_static m in
  let a = Tensor.randn rng [| 4; 5 |] and b = Tensor.randn rng [| 4; 5 |] in
  let out = Nimble_compiler.Static_exec.run plan [ a; b ] in
  Alcotest.check tensor_eq "static executor" (expected_static a b) out

(* --- closures ----------------------------------------------------------- *)
let test_closure () =
  (* let f = fn y -> y + x in f(x) : doubles x through a capture *)
  let x = Expr.fresh_var ~ty:(static_ty [ 3 ]) "x" in
  let y = Expr.fresh_var ~ty:(static_ty [ 3 ]) "y" in
  let f = Expr.fresh_var "f" in
  let body =
    Expr.Let
      ( f,
        Expr.fn [ y ] (Expr.op_call "add" [ Expr.Var y; Expr.Var x ]),
        Expr.call (Expr.Var f) [ Expr.Var x ] )
  in
  let m = Irmod.of_main (Expr.fn_def [ x ] body) in
  let exe = Nimble.compile m in
  let vm = Nimble.vm exe in
  let xv = Tensor.randn rng [| 3 |] in
  Alcotest.check tensor_eq "closure capture" (Ops_elem.add xv xv)
    (Interp.run_tensors vm [ xv ])

let () =
  Alcotest.run "compiler"
    [
      ( "end-to-end",
        [
          Alcotest.test_case "static elementwise graph" `Quick test_static_e2e;
          Alcotest.test_case "dynamic dense (Any rows)" `Quick test_dynamic_dense;
          Alcotest.test_case "integer dense, dispatched" `Quick test_integer_dense_dispatched;
          Alcotest.test_case "12-layer BERT compiles" `Quick test_deep_bert_compiles;
          Alcotest.test_case "control flow" `Quick test_control_flow;
          Alcotest.test_case "ADT recursion (list sum)" `Quick test_adt_recursion;
          Alcotest.test_case "data-dependent shape (unique)" `Quick test_data_dependent;
          Alcotest.test_case "upper-bound shape (nms)" `Quick test_upper_bound;
          Alcotest.test_case "compile report" `Quick test_report;
          Alcotest.test_case "static executor" `Quick test_static_executor;
          Alcotest.test_case "closure capture" `Quick test_closure;
        ] );
    ]
