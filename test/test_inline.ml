(* Inliner pass and executable-validation tests. *)

open Nimble_tensor
open Nimble_ir
open Nimble_passes
module Nimble = Nimble_compiler.Nimble
module Interp = Nimble_vm.Interp

let tensor_eq = Alcotest.testable Tensor.pp (Tensor.approx_equal ~atol:1e-4 ~rtol:1e-4)
let rng = Rng.create ~seed:51

let static_ty s = Ty.tensor_of_shape (Shape.of_list s)

(* main calls a small helper twice *)
let helper_module () =
  let m = Irmod.create () in
  let a = Expr.fresh_var ~ty:(static_ty [ 4 ]) "a" in
  Irmod.add_func m "double" (Expr.fn_def [ a ] (Expr.op_call "add" [ Expr.Var a; Expr.Var a ]));
  let x = Expr.fresh_var ~ty:(static_ty [ 4 ]) "x" in
  Irmod.add_func m "main"
    (Expr.fn_def [ x ]
       (Expr.call (Expr.Global "double")
          [ Expr.call (Expr.Global "double") [ Expr.Var x ] ]));
  m

let test_inline_and_prune () =
  let m = helper_module () in
  let stats = Inline.run m in
  Alcotest.(check int) "two call sites inlined" 2 stats.Inline.inlined;
  Alcotest.(check int) "helper pruned" 1 stats.Inline.pruned;
  Alcotest.(check (list string)) "only main remains" [ "main" ]
    (List.map fst (Irmod.functions m));
  (* no Global calls left *)
  let fn = Irmod.func_exn m "main" in
  let globals = ref 0 in
  Expr.iter (function Expr.Global _ -> incr globals | _ -> ()) fn.Expr.body;
  Alcotest.(check int) "no global refs" 0 !globals

let test_inline_preserves_semantics () =
  let input = Tensor.randn rng [| 4 |] in
  let expected = Ops_elem.mul_scalar input 4.0 in
  let out =
    Interp.run_tensors (Nimble.vm (Nimble.compile (helper_module ()))) [ input ]
  in
  Alcotest.check tensor_eq "4x" expected out

let test_inline_skips_recursive () =
  (* a self-recursive function must survive untouched *)
  let elem = static_ty [ 2 ] in
  let adt = Adt.tensor_list ~elem_ty:elem in
  let nil = Adt.ctor_exn adt "Nil" and cons = Adt.ctor_exn adt "Cons" in
  let xs = Expr.fresh_var ~ty:(Ty.Adt "TensorList") "xs" in
  let acc = Expr.fresh_var ~ty:elem "acc" in
  let hd = Expr.fresh_var "hd" and tl = Expr.fresh_var "tl" in
  let m = Irmod.create () in
  Irmod.add_adt m adt;
  Irmod.add_func m "go"
    (Expr.fn_def ~ret_ty:elem [ xs; acc ]
       (Expr.Match
          ( Expr.Var xs,
            [
              { Expr.pat = Expr.Pctor (nil, []); rhs = Expr.Var acc };
              {
                Expr.pat = Expr.Pctor (cons, [ Expr.Pvar hd; Expr.Pvar tl ]);
                rhs =
                  Expr.call (Expr.Global "go")
                    [ Expr.Var tl; Expr.op_call "add" [ Expr.Var acc; Expr.Var hd ] ];
              };
            ] )));
  let x0 = Expr.fresh_var ~ty:(Ty.Adt "TensorList") "input" in
  Irmod.add_func m "main"
    (Expr.fn_def [ x0 ]
       (Expr.call (Expr.Global "go") [ Expr.Var x0; Expr.Const (Tensor.zeros [| 2 |]) ]));
  let stats = Inline.run m in
  Alcotest.(check int) "nothing inlined" 0 stats.Inline.inlined;
  Alcotest.(check int) "nothing pruned" 0 stats.Inline.pruned;
  Alcotest.(check bool) "go survives" true (Irmod.find_func m "go" <> None)

let test_inline_respects_size_cap () =
  let m = helper_module () in
  let stats = Inline.run ~max_size:1 m in
  Alcotest.(check int) "too big to inline" 0 stats.Inline.inlined;
  Alcotest.(check bool) "helper kept" true (Irmod.find_func m "double" <> None)

let test_inline_freshens_variables () =
  (* after inlining the same helper twice, every bound vid must be unique *)
  let m = helper_module () in
  ignore (Inline.run m);
  let fn = Irmod.func_exn m "main" in
  let seen = Hashtbl.create 16 in
  let dup = ref false in
  Expr.iter
    (function
      | Expr.Let (v, _, _) ->
          if Hashtbl.mem seen v.Expr.vid then dup := true
          else Hashtbl.add seen v.Expr.vid ()
      | _ -> ())
    fn.Expr.body;
  Alcotest.(check bool) "no duplicate binder ids" false !dup

(* ---------------------------- validation ---------------------------- *)

let test_validate_accepts_compiled () =
  let w = Nimble_models.Lstm.init_weights Nimble_models.Lstm.small_config in
  let exe = Nimble.compile (Nimble_models.Lstm.ir_module w) in
  Alcotest.(check (list string)) "clean" [] (List.map Nimble_analysis.Diag.to_string (Nimble_analysis.Verifier.verify exe))

let bad_exe code ~regs =
  Nimble_vm.Exe.create
    ~funcs:[| { Nimble_vm.Exe.name = "main"; arity = 0; register_count = regs; code } |]
    ~constants:[||] ~packed_names:[||]

let test_validate_catches_bad_register () =
  let exe = bad_exe ~regs:1 [| Nimble_vm.Isa.Move { src = 5; dst = 0 }; Nimble_vm.Isa.Ret { result = 0 } |] in
  Alcotest.(check bool) "flagged" true (Nimble_analysis.Verifier.verify exe <> [])

let test_validate_catches_bad_jump () =
  let exe = bad_exe ~regs:1 [| Nimble_vm.Isa.Goto 99 |] in
  Alcotest.(check bool) "flagged" true (Nimble_analysis.Verifier.verify exe <> [])

let test_validate_catches_bad_const () =
  let exe =
    bad_exe ~regs:1
      [| Nimble_vm.Isa.LoadConst { index = 3; dst = 0 }; Nimble_vm.Isa.Ret { result = 0 } |]
  in
  Alcotest.(check bool) "flagged" true (Nimble_analysis.Verifier.verify exe <> [])

let test_validate_catches_fallthrough () =
  let exe = bad_exe ~regs:1 [| Nimble_vm.Isa.Move { src = 0; dst = 0 } |] in
  Alcotest.(check bool) "flagged" true (Nimble_analysis.Verifier.verify exe <> [])

let test_validate_catches_arity_mismatch () =
  let f0 =
    {
      Nimble_vm.Exe.name = "main";
      arity = 0;
      register_count = 2;
      code =
        [|
          Nimble_vm.Isa.Invoke { func_index = 1; args = [| 0 |]; dst = 1 };
          Nimble_vm.Isa.Ret { result = 1 };
        |];
    }
  in
  let f1 =
    { Nimble_vm.Exe.name = "two"; arity = 2; register_count = 2; code = [| Nimble_vm.Isa.Ret { result = 0 } |] }
  in
  let exe = Nimble_vm.Exe.create ~funcs:[| f0; f1 |] ~constants:[||] ~packed_names:[||] in
  Alcotest.(check bool) "flagged" true (Nimble_analysis.Verifier.verify exe <> [])

let () =
  Alcotest.run "inline"
    [
      ( "inline",
        [
          Alcotest.test_case "inline + prune" `Quick test_inline_and_prune;
          Alcotest.test_case "semantics preserved" `Quick test_inline_preserves_semantics;
          Alcotest.test_case "recursive skipped" `Quick test_inline_skips_recursive;
          Alcotest.test_case "size cap" `Quick test_inline_respects_size_cap;
          Alcotest.test_case "variables freshened" `Quick test_inline_freshens_variables;
        ] );
      ( "validate",
        [
          Alcotest.test_case "compiled passes" `Quick test_validate_accepts_compiled;
          Alcotest.test_case "bad register" `Quick test_validate_catches_bad_register;
          Alcotest.test_case "bad jump" `Quick test_validate_catches_bad_jump;
          Alcotest.test_case "bad constant" `Quick test_validate_catches_bad_const;
          Alcotest.test_case "fallthrough" `Quick test_validate_catches_fallthrough;
          Alcotest.test_case "arity mismatch" `Quick test_validate_catches_arity_mismatch;
        ] );
    ]
