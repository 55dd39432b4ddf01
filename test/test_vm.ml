(* VM tests: hand-assembled bytecode exercising each instruction class,
   object model, profiler, error paths. *)

open Nimble_tensor
open Nimble_vm

let tensor_eq = Alcotest.testable Tensor.pp (Tensor.approx_equal ~atol:1e-6 ~rtol:1e-6)

(* Assemble a one-function executable. *)
let assemble ?(arity = 0) ?(constants = [||]) ?(packed = []) ~regs code =
  let exe =
    Exe.create
      ~funcs:[| { Exe.name = "main"; arity; register_count = regs; code } |]
      ~constants
      ~packed_names:(Array.of_list (List.map (fun (n, k, _) -> (n, k)) packed))
  in
  List.iter (fun (n, k, f) -> Exe.link exe { Exe.packed_name = n; kind = k; mode = None; run = f; dispatch = None }) packed;
  exe

let run ?(args = []) exe = Interp.invoke (Interp.create exe) args

(* ---------------------------- basics ---------------------------- *)

let test_load_const_ret () =
  let t = Tensor.of_float_array [| 2 |] [| 1.; 2. |] in
  let exe =
    assemble ~constants:[| t |] ~regs:2
      [| Isa.LoadConst { index = 0; dst = 0 }; Isa.Ret { result = 0 } |]
  in
  Alcotest.check tensor_eq "const" t (Obj.to_tensor (run exe))

let test_move_and_consti () =
  let exe =
    assemble ~regs:3
      [|
        Isa.LoadConsti { value = 42L; dst = 0 };
        Isa.Move { src = 0; dst = 1 };
        Isa.Ret { result = 1 };
      |]
  in
  match run exe with
  | Obj.Int v -> Alcotest.(check int64) "42" 42L v
  | _ -> Alcotest.fail "expected int"

let test_goto_skips () =
  let exe =
    assemble ~regs:2
      [|
        Isa.LoadConsti { value = 1L; dst = 0 };
        Isa.Goto 2;
        Isa.LoadConsti { value = 99L; dst = 0 };
        Isa.Ret { result = 0 };
      |]
  in
  match run exe with
  | Obj.Int v -> Alcotest.(check int64) "skipped" 1L v
  | _ -> Alcotest.fail "expected int"

let test_if_equal_jumps () =
  (* if r0 == r1 then 100 else 200 *)
  let code tv =
    [|
      Isa.LoadConsti { value = tv; dst = 0 };
      Isa.LoadConsti { value = 5L; dst = 1 };
      Isa.If { test = 0; target = 1; true_offset = 1; false_offset = 3 };
      Isa.LoadConsti { value = 100L; dst = 2 };
      Isa.Goto 2;
      Isa.LoadConsti { value = 200L; dst = 2 };
      Isa.Ret { result = 2 };
    |]
  in
  (match run (assemble ~regs:3 (code 5L)) with
  | Obj.Int v -> Alcotest.(check int64) "equal" 100L v
  | _ -> Alcotest.fail "int");
  match run (assemble ~regs:3 (code 6L)) with
  | Obj.Int v -> Alcotest.(check int64) "not equal" 200L v
  | _ -> Alcotest.fail "int"

(* ---------------------------- ADTs / closures ---------------------------- *)

let test_adt_roundtrip () =
  let exe =
    assemble ~regs:4
      [|
        Isa.LoadConsti { value = 7L; dst = 0 };
        Isa.AllocADT { tag = 3; fields = [| 0 |]; dst = 1 };
        Isa.GetTag { obj = 1; dst = 2 };
        Isa.GetField { obj = 1; index = 0; dst = 3 };
        Isa.Ret { result = 2 };
      |]
  in
  match run exe with
  | Obj.Int tag -> Alcotest.(check int64) "tag" 3L tag
  | _ -> Alcotest.fail "int"

let test_invoke_and_closure () =
  (* fn helper(a) = a; main allocates closure over it and calls it *)
  let helper =
    { Exe.name = "helper"; arity = 2; register_count = 2; code = [| Isa.Ret { result = 1 } |] }
  in
  let main =
    {
      Exe.name = "main";
      arity = 0;
      register_count = 4;
      code =
        [|
          Isa.LoadConsti { value = 11L; dst = 0 };
          (* closure captures r0; calling with one arg passes (captured, arg) *)
          Isa.AllocClosure { func_index = 1; captured = [| 0 |]; dst = 1 };
          Isa.LoadConsti { value = 22L; dst = 2 };
          Isa.InvokeClosure { closure = 1; args = [| 2 |]; dst = 3 };
          Isa.Ret { result = 3 };
        |];
    }
  in
  let exe = Exe.create ~funcs:[| main; helper |] ~constants:[||] ~packed_names:[||] in
  match run exe with
  | Obj.Int v -> Alcotest.(check int64) "arg after captured" 22L v
  | _ -> Alcotest.fail "int"

let test_recursion_limit () =
  (* fn main() = main() *)
  let main =
    {
      Exe.name = "main";
      arity = 0;
      register_count = 1;
      code = [| Isa.Invoke { func_index = 0; args = [||]; dst = 0 }; Isa.Ret { result = 0 } |];
    }
  in
  let exe = Exe.create ~funcs:[| main |] ~constants:[||] ~packed_names:[||] in
  let vm = Interp.create ~max_depth:50 exe in
  Alcotest.check_raises "limit" (Interp.Vm_error "VM recursion limit exceeded") (fun () ->
      ignore (Interp.invoke vm []))

(* ---------------------------- memory + packed ---------------------------- *)

let shape_const dims = Tensor.of_int_array ~dtype:Dtype.I64 [| Array.length dims |] dims

let test_alloc_and_packed () =
  (* storage + tensor alloc + invoke a doubling kernel *)
  let double = ("double", `Kernel, fun ins -> [ Ops_elem.mul_scalar (List.hd ins) 2.0 ]) in
  let exe =
    assemble ~arity:1
      ~constants:[| shape_const [| 3 |] |]
      ~packed:[ double ] ~regs:5
      [|
        Isa.LoadConst { index = 0; dst = 1 };
        Isa.AllocStorage
          { size = 1; alignment = 64; dtype = Dtype.F32; device_id = 0; arena = false; dst = 2 };
        Isa.AllocTensor { storage = 2; offset = 0; shape = [| 3 |]; dtype = Dtype.F32; dst = 3 };
        Isa.InvokePacked { packed_index = 0; args = [| 0 |]; outs = [| 3 |]; upper_bound = false };
        Isa.Ret { result = 3 };
      |]
  in
  let input = Tensor.of_float_array [| 3 |] [| 1.; 2.; 3. |] in
  let out = Obj.to_tensor (run ~args:[ Obj.tensor input ] exe) in
  Alcotest.check tensor_eq "doubled" (Tensor.of_float_array [| 3 |] [| 2.; 4.; 6. |]) out

let test_packed_shape_mismatch_rejected () =
  let bad = ("bad", `Kernel, fun _ -> [ Tensor.zeros [| 4 |] ]) in
  let exe =
    assemble ~arity:1
      ~constants:[| shape_const [| 3 |] |]
      ~packed:[ bad ] ~regs:5
      [|
        Isa.LoadConst { index = 0; dst = 1 };
        Isa.AllocStorage
          { size = 1; alignment = 64; dtype = Dtype.F32; device_id = 0; arena = false; dst = 2 };
        Isa.AllocTensor { storage = 2; offset = 0; shape = [| 3 |]; dtype = Dtype.F32; dst = 3 };
        Isa.InvokePacked { packed_index = 0; args = [| 0 |]; outs = [| 3 |]; upper_bound = false };
        Isa.Ret { result = 3 };
      |]
  in
  Alcotest.(check bool) "raises" true
    (try
       ignore (run ~args:[ Obj.tensor (Tensor.zeros [| 3 |]) ] exe);
       false
     with Interp.Vm_error _ -> true)

let test_upper_bound_sliced () =
  (* kernel reports a smaller exact shape than the allocated bound *)
  let shrink = ("shrink", `Kernel, fun _ -> [ Tensor.ones [| 2 |] ]) in
  let exe =
    assemble ~arity:1
      ~constants:[| shape_const [| 5 |] |]
      ~packed:[ shrink ] ~regs:5
      [|
        Isa.LoadConst { index = 0; dst = 1 };
        Isa.AllocStorage
          { size = 1; alignment = 64; dtype = Dtype.F32; device_id = 0; arena = false; dst = 2 };
        Isa.AllocTensor { storage = 2; offset = 0; shape = [| 5 |]; dtype = Dtype.F32; dst = 3 };
        Isa.InvokePacked { packed_index = 0; args = [| 0 |]; outs = [| 3 |]; upper_bound = true };
        Isa.Ret { result = 3 };
      |]
  in
  let out = Obj.to_tensor (run ~args:[ Obj.tensor (Tensor.zeros [| 1 |]) ] exe) in
  Alcotest.(check (array int)) "exact shape" [| 2 |] (Tensor.shape out)

let test_shape_of_reshape () =
  let exe =
    assemble ~arity:1 ~regs:4
      ~constants:[| shape_const [| 3; 2 |] |]
      [|
        Isa.ShapeOf { tensor = 0; dst = 1 };
        Isa.LoadConst { index = 0; dst = 2 };
        Isa.ReshapeTensor { tensor = 0; shape = 2; dst = 3 };
        Isa.Ret { result = 3 };
      |]
  in
  let input = Tensor.of_float_array [| 2; 3 |] [| 1.; 2.; 3.; 4.; 5.; 6. |] in
  let out = Obj.to_tensor (run ~args:[ Obj.tensor input ] exe) in
  Alcotest.(check (array int)) "reshaped" [| 3; 2 |] (Tensor.shape out)

let test_device_copy_instruction () =
  let exe =
    assemble ~arity:1 ~regs:2
      [| Isa.DeviceCopy { src = 0; dst_device_id = 1; dst = 1 }; Isa.Ret { result = 1 } |]
  in
  let vm = Interp.create exe in
  match Interp.invoke vm [ Obj.tensor (Tensor.ones [| 4 |]) ] with
  | Obj.Tensor p ->
      Alcotest.(check int) "on gpu" 1 p.Obj.device.Nimble_device.Device.id;
      let prof = Interp.profiler vm in
      Alcotest.(check int) "transfer recorded" 1
        (Nimble_device.Pool.total_transfers prof.Profiler.pool)
  | _ -> Alcotest.fail "tensor expected"

let test_fatal () =
  let exe = assemble ~regs:1 [| Isa.Fatal "boom" |] in
  Alcotest.check_raises "fatal" (Interp.Vm_error "fatal: boom") (fun () -> ignore (run exe))

(* ---------------------------- profiler ---------------------------- *)

let test_profiler_counts () =
  let exe =
    assemble ~regs:2
      [|
        Isa.LoadConsti { value = 1L; dst = 0 };
        Isa.Move { src = 0; dst = 1 };
        Isa.Ret { result = 1 };
      |]
  in
  let vm = Interp.create exe in
  ignore (Interp.invoke vm []);
  let p = Interp.profiler vm in
  Alcotest.(check int) "instr count" 3 (Profiler.total_instrs p);
  Alcotest.(check int) "moves" 1 p.Profiler.instr_counts.(Isa.opcode (Isa.Move { src = 0; dst = 0 }))

let test_isa_has_twenty_opcodes () =
  Alcotest.(check int) "21 instructions (Table A.1 + BindArena)" 21 Isa.num_opcodes

(* ---------------------------- entry guards ---------------------------- *)

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  nn = 0 || go 0

let expect_guard_failure vm args substrings =
  match Interp.invoke_result vm args with
  | Ok _ -> Alcotest.fail "ill-typed call passed the entry guard"
  | Error fl ->
      Alcotest.(check string) "failure kind" "shape_guard"
        (Interp.kind_name fl.Interp.fail_kind);
      List.iter
        (fun s ->
          Alcotest.(check bool)
            (Printf.sprintf "message %S mentions %S" fl.Interp.fail_msg s)
            true
            (contains fl.Interp.fail_msg s))
        substrings

(* main(x) = x; with [guarded], x is declared as a [3] f32 tensor *)
let identity ~guarded =
  let exe = assemble ~arity:1 ~regs:1 [| Isa.Ret { result = 0 } |] in
  if guarded then
    Exe.set_guards exe
      [|
        [|
          {
            Exe.g_arg = 0;
            g_name = "x";
            g_dims = [| Exe.Check_exact 3 |];
            g_dtype = Some Dtype.F32;
          };
        |];
      |];
  Interp.create exe

let test_guard_exact_dim () =
  let vm = identity ~guarded:true in
  (match Interp.invoke_result vm [ Obj.tensor (Tensor.ones [| 3 |]) ] with
  | Ok _ -> ()
  | Error fl -> Alcotest.failf "well-typed call failed: %a" Interp.pp_failure fl);
  expect_guard_failure vm
    [ Obj.tensor (Tensor.ones [| 4 |]) ]
    [ "argument 0 (x)"; "dim 0 is 4 where 3 was declared" ];
  expect_guard_failure vm
    [ Obj.tensor (Tensor.ones [| 3; 1 |]) ]
    [ "argument 0 (x)"; "rank 2 where 1 was declared" ]

let test_guard_dtype () =
  let vm = identity ~guarded:true in
  expect_guard_failure vm
    [ Obj.tensor (Tensor.of_int_array ~dtype:Dtype.I64 [| 3 |] [| 1; 2; 3 |]) ]
    [ "argument 0 (x)"; "dtype" ]

let test_guard_disabled () =
  (* the same ill-typed calls pass against an executable that carries no
     guard table (what compiling with [runtime_guards = false] emits):
     identity never inspects the tensor *)
  let vm = identity ~guarded:false in
  List.iter
    (fun x ->
      match Interp.invoke_result vm [ x ] with
      | Ok _ -> ()
      | Error fl -> Alcotest.failf "guards off still failed: %a" Interp.pp_failure fl)
    [
      Obj.tensor (Tensor.ones [| 4 |]);
      Obj.tensor (Tensor.of_int_array ~dtype:Dtype.I64 [| 3 |] [| 1; 2; 3 |]);
    ]

(* main(a, b) = a with both leading dims declared as the same symbolic
   Any — the cross-argument equality of Nimble's gradual typing *)
let test_guard_sym_eq () =
  let exe = assemble ~arity:2 ~regs:2 [| Isa.Ret { result = 0 } |] in
  let guard arg name =
    { Exe.g_arg = arg; g_name = name; g_dims = [| Exe.Check_eq 7 |]; g_dtype = None }
  in
  Exe.set_guards exe [| [| guard 0 "a"; guard 1 "b" |] |];
  let vm = Interp.create exe in
  (match
     Interp.invoke_result vm
       [ Obj.tensor (Tensor.ones [| 5 |]); Obj.tensor (Tensor.ones [| 5 |]) ]
   with
  | Ok _ -> ()
  | Error fl -> Alcotest.failf "equal extents rejected: %a" Interp.pp_failure fl);
  expect_guard_failure vm
    [ Obj.tensor (Tensor.ones [| 5 |]); Obj.tensor (Tensor.ones [| 6 |]) ]
    [ "argument 1 (b)"; "dim 0 is 6 but must equal dim 0 of a (= 5)" ]

(* guards emitted by the compiler from declared parameter types *)
let test_guard_compiled () =
  let module Nimble = Nimble_compiler.Nimble in
  let open Nimble_ir in
  let mk () =
    let x =
      Expr.fresh_var ~ty:(Ty.tensor [ Dim.Any; Dim.static 6 ]) "x"
    in
    let w = Tensor.ones [| 4; 6 |] in
    Irmod.of_main
      (Expr.fn_def [ x ] (Expr.op_call "dense" [ Expr.Var x; Expr.Const w ]))
  in
  let vm = Interp.create (Nimble.compile (mk ())) in
  (match Interp.invoke_result vm [ Obj.tensor (Tensor.ones [| 5; 6 |]) ] with
  | Ok _ -> ()
  | Error fl -> Alcotest.failf "well-typed call failed: %a" Interp.pp_failure fl);
  expect_guard_failure vm
    [ Obj.tensor (Tensor.ones [| 5; 7 |]) ]
    [ "(x)"; "dim 1 is 7 where 6 was declared" ];
  (* compiled with guards off, the ill-typed call reaches the kernel: the
     failure (if any) is no longer a shape_guard at entry *)
  let off =
    Interp.create
      (Nimble.compile
         ~options:{ Nimble.default_options with Nimble.runtime_guards = false }
         (mk ()))
  in
  match Interp.invoke_result off [ Obj.tensor (Tensor.ones [| 5; 7 |]) ] with
  | Ok _ -> ()
  | Error fl ->
      Alcotest.(check bool)
        (Printf.sprintf "not a guard failure: %s" fl.Interp.fail_msg)
        true
        (fl.Interp.fail_kind <> Interp.Shape_guard)

let () =
  Alcotest.run "vm"
    [
      ( "control",
        [
          Alcotest.test_case "load const / ret" `Quick test_load_const_ret;
          Alcotest.test_case "move / consti" `Quick test_move_and_consti;
          Alcotest.test_case "goto" `Quick test_goto_skips;
          Alcotest.test_case "if equality" `Quick test_if_equal_jumps;
          Alcotest.test_case "fatal" `Quick test_fatal;
        ] );
      ( "data",
        [
          Alcotest.test_case "adt" `Quick test_adt_roundtrip;
          Alcotest.test_case "invoke / closure" `Quick test_invoke_and_closure;
          Alcotest.test_case "recursion limit" `Quick test_recursion_limit;
        ] );
      ( "memory",
        [
          Alcotest.test_case "alloc + packed" `Quick test_alloc_and_packed;
          Alcotest.test_case "shape mismatch rejected" `Quick test_packed_shape_mismatch_rejected;
          Alcotest.test_case "upper bound sliced" `Quick test_upper_bound_sliced;
          Alcotest.test_case "shape_of / reshape" `Quick test_shape_of_reshape;
          Alcotest.test_case "device copy" `Quick test_device_copy_instruction;
        ] );
      ( "guards",
        [
          Alcotest.test_case "exact dim + rank" `Quick test_guard_exact_dim;
          Alcotest.test_case "dtype" `Quick test_guard_dtype;
          Alcotest.test_case "disabled" `Quick test_guard_disabled;
          Alcotest.test_case "symbolic cross-argument equality" `Quick test_guard_sym_eq;
          Alcotest.test_case "compiler-emitted" `Quick test_guard_compiled;
        ] );
      ( "profiler",
        [
          Alcotest.test_case "instruction counts" `Quick test_profiler_counts;
          Alcotest.test_case "20-instruction ISA" `Quick test_isa_has_twenty_opcodes;
        ] );
    ]
