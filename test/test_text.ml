(* Textual IR format tests: parsing, printing, round trips, and compiling
   parsed programs end-to-end through the VM. *)

open Nimble_tensor
open Nimble_ir
module T = Text_format
module Nimble = Nimble_compiler.Nimble
module Interp = Nimble_vm.Interp

let tensor_eq = Alcotest.testable Tensor.pp (Tensor.approx_equal ~atol:1e-4 ~rtol:1e-4)

let simple_src =
  {|
-- a dense + relu model over a dynamic batch
def @main(%x: Tensor[(?, 16), f32]) {
  let %h = dense(%x, randn[(8, 16), seed=3]);
  relu(%h)
}
|}

let test_parse_simple () =
  let m = T.parse_module simple_src in
  let fn = Irmod.func_exn m "main" in
  Alcotest.(check int) "one param" 1 (List.length fn.Expr.params);
  match (List.hd fn.Expr.params).Expr.vty with
  | Some (Ty.Tensor { dims = [| Dim.Any; Dim.Static 16 |]; dtype = Dtype.F32 }) -> ()
  | other -> Alcotest.failf "bad param type %a" Fmt.(option Ty.pp) other

let test_parsed_module_runs () =
  let m = T.parse_module simple_src in
  let vm = Nimble.vm (Nimble.compile m) in
  let w = Tensor.randn (Rng.create ~seed:3) [| 8; 16 |] in
  let rng = Rng.create ~seed:5 in
  List.iter
    (fun rows ->
      let x = Tensor.randn rng [| rows; 16 |] in
      Alcotest.check tensor_eq
        (Fmt.str "rows=%d" rows)
        (Ops_elem.relu (Ops_matmul.dense x w))
        (Interp.run_tensors vm [ x ]))
    [ 1; 5 ]

let test_parse_control_flow () =
  let src =
    {|
def @main(%x: Tensor[(4), f32]) {
  if (greater(mean(%x), 0.0)) {
    add(%x, 1.0)
  } else {
    subtract(%x, 1.0)
  }
}
|}
  in
  let vm = Nimble.vm (Nimble.compile (T.parse_module src)) in
  Alcotest.check tensor_eq "positive" (Tensor.full [| 4 |] 3.0)
    (Interp.run_tensors vm [ Tensor.full [| 4 |] 2.0 ]);
  Alcotest.check tensor_eq "negative"
    (Tensor.full [| 4 |] (-3.0))
    (Interp.run_tensors vm [ Tensor.full [| 4 |] (-2.0) ])

let test_parse_adt_and_recursion () =
  let src =
    {|
type TensorList = Nil() | Cons(Tensor[(2), f32], TensorList)

def @sum_list(%xs: TensorList, %acc: Tensor[(2), f32]) -> Tensor[(2), f32] {
  match (%xs) {
  | Nil() => { %acc }
  | Cons(%hd, %tl) => { @sum_list(%tl, add(%acc, %hd)) }
  }
}

def @main(%xs: TensorList) {
  @sum_list(%xs, zeros[(2), f32])
}
|}
  in
  let vm = Nimble.vm (Nimble.compile (T.parse_module src)) in
  let rng = Rng.create ~seed:17 in
  let ts = List.init 4 (fun _ -> Tensor.randn rng [| 2 |]) in
  let out =
    Nimble_vm.Obj.to_tensor (Interp.invoke vm [ Nimble_workloads.Zoo.tensor_list ts ])
  in
  let expected = List.fold_left Ops_elem.add (Tensor.zeros [| 2 |]) ts in
  Alcotest.check tensor_eq "sum" expected out

let test_parse_tuples_attrs () =
  let src =
    {|
def @main(%x: Tensor[(2, 6), f32]) {
  let %parts = split(%x) {axis=1, sections=2};
  let %pair = (%parts.0, %parts.1);
  concat(%pair.1, %pair.0) {axis=1}
}
|}
  in
  let vm = Nimble.vm (Nimble.compile (T.parse_module src)) in
  let x = Tensor.of_float_array [| 2; 6 |] [| 0.; 1.; 2.; 3.; 4.; 5.; 6.; 7.; 8.; 9.; 10.; 11. |] in
  let expected =
    Tensor.of_float_array [| 2; 6 |] [| 3.; 4.; 5.; 0.; 1.; 2.; 9.; 10.; 11.; 6.; 7.; 8. |]
  in
  Alcotest.check tensor_eq "swapped halves" expected (Interp.run_tensors vm [ x ])

let test_parse_errors () =
  let bad what src =
    Alcotest.(check bool) what true
      (try
         ignore (T.parse_module src);
         false
       with T.Parse_error _ -> true)
  in
  bad "unbound var" "def @main(%x: Tensor[(2), f32]) { relu(%y) }";
  bad "unknown ctor" "def @main(%x: Tensor[(2), f32]) { Foo(%x) }";
  bad "garbage" "def def def";
  bad "bad type" "def @main(%x: Wat[(2)]) { %x }";
  bad "unterminated" "def @main(%x: Tensor[(2), f32]) { relu(%x) "

(* Malformed numbers and dims and a missing [;]: each raises
   [Parse_error], and [nimble_cli parse] reports it on one line and exits
   1. *)
let malformed =
  [
    ("float literal 1.0e", "def @main(%x: Tensor[(2), f32]) { add(%x, 1.0e) }");
    ("dim beyond max_int", "def @main(%x: Tensor[(99999999999999999999999), f32]) { relu(%x) }");
    ("negative dim", "def @main(%x: Tensor[(-4), f32]) { relu(%x) }");
    ("missing ;", "def @main(%x: Tensor[(2), f32]) { let %y = relu(%x) relu(%y) }");
  ]

let test_malformed_literals () =
  List.iter
    (fun (what, src) ->
      Alcotest.(check bool) what true
        (match T.parse_module src with _ -> false | exception T.Parse_error _ -> true))
    malformed

let test_cli_parse_errors () =
  List.iter
    (fun (what, src) ->
      let path = Filename.temp_file "nimble_bad" ".nir" in
      let err = Filename.temp_file "nimble_bad" ".err" in
      Out_channel.with_open_text path (fun oc -> output_string oc src);
      let code =
        Sys.command
          (Filename.quote_command "../bin/nimble_cli.exe" [ "parse"; path ] ~stdout:"/dev/null"
             ~stderr:err)
      in
      let lines = In_channel.with_open_text err In_channel.input_all |> String.split_on_char '\n' in
      Sys.remove path;
      Sys.remove err;
      Alcotest.(check int) (what ^ ": exit code") 1 code;
      Alcotest.(check int) (what ^ ": one stderr line") 1
        (List.length (List.filter (( <> ) "") lines)))
    malformed

(* variable ids differ between parses; compare with digits stripped *)
let normalize s =
  String.to_seq s
  |> Seq.filter (fun c -> not ((c >= '0' && c <= '9') || c = '_'))
  |> String.of_seq

let test_print_parse_roundtrip () =
  (* print -> parse -> print reaches a fixpoint (modulo fresh variable ids),
     and the reparsed module computes the same numbers *)
  let m1 = T.parse_module simple_src in
  let printed1 = T.module_to_string m1 in
  let m2 = T.parse_module printed1 in
  let printed2 = T.module_to_string m2 in
  Alcotest.(check string) "printer fixpoint" (normalize printed1) (normalize printed2);
  let x = Tensor.randn (Rng.create ~seed:8) [| 3; 16 |] in
  let run m = Interp.run_tensors (Nimble.vm (Nimble.compile m)) [ x ] in
  Alcotest.check tensor_eq "same semantics" (run (T.parse_module simple_src)) (run m2)

let test_roundtrip_model_zoo () =
  (* LSTM/GRU/decoder builders print and reparse into modules that still
     compile; randn-free constants survive exactly (zeros/ones) *)
  let check name (m : Irmod.t) =
    let printed = T.module_to_string m in
    let m2 = T.parse_module printed in
    Alcotest.(check (list string))
      (name ^ " functions survive")
      (List.map fst (Irmod.functions m))
      (List.map fst (Irmod.functions m2))
  in
  (* use uniform weights so printing is lossless *)
  let dec =
    Nimble_models.Decoder.init_weights
      { Nimble_models.Decoder.default_config with Nimble_models.Decoder.max_steps = 3 }
  in
  check "decoder" (Nimble_models.Decoder.ir_module dec);
  let gru = Nimble_models.Gru.init_weights Nimble_models.Gru.small_config in
  check "gru" (Nimble_models.Gru.ir_module gru)

let prop_scalar_roundtrip =
  QCheck.Test.make ~name:"scalar literals roundtrip" ~count:100 QCheck.(float_range (-1e6) 1e6)
    (fun v ->
      let src = Fmt.str "def @main(%%x: Tensor[(1), f32]) { add(%%x, %.17g) }" v in
      match T.parse_module src with
      | m -> (
          let fn = Irmod.func_exn m "main" in
          let found = ref None in
          Expr.iter
            (function
              | Expr.Const t when Tensor.numel t = 1 -> found := Some (Tensor.item t)
              | _ -> ())
            fn.Expr.body;
          match !found with Some got -> Float.abs (got -. v) <= Float.abs v *. 1e-12 | None -> false)
      | exception T.Parse_error _ -> false)

let () =
  Alcotest.run "text"
    [
      ( "parse",
        [
          Alcotest.test_case "simple module" `Quick test_parse_simple;
          Alcotest.test_case "parsed module runs" `Quick test_parsed_module_runs;
          Alcotest.test_case "control flow" `Quick test_parse_control_flow;
          Alcotest.test_case "adt + recursion" `Quick test_parse_adt_and_recursion;
          Alcotest.test_case "tuples + attrs" `Quick test_parse_tuples_attrs;
          Alcotest.test_case "errors" `Quick test_parse_errors;
          Alcotest.test_case "malformed literals" `Quick test_malformed_literals;
          Alcotest.test_case "cli parse errors exit 1" `Quick test_cli_parse_errors;
        ] );
      ( "roundtrip",
        [
          Alcotest.test_case "print/parse fixpoint" `Quick test_print_parse_roundtrip;
          Alcotest.test_case "model zoo" `Quick test_roundtrip_model_zoo;
          QCheck_alcotest.to_alcotest prop_scalar_roundtrip;
        ] );
    ]
