(* Static-analysis tests: the opcode-exhaustiveness pin, the bytecode
   verifier (positive: every compiler-emitted executable is clean; negative:
   seeded mutations are rejected with located diagnostics), the IR-dialect
   lints on hand-built violating modules, and byte-flip/truncation fuzz over
   the serialized format (outcome is always clean / Format_error /
   Verify_error, never a crash). *)

open Nimble_tensor
open Nimble_ir
open Nimble_vm
module Nimble = Nimble_compiler.Nimble
module Diag = Nimble_analysis.Diag
module Verifier = Nimble_analysis.Verifier
module Lint = Nimble_analysis.Lint
module Zoo = Nimble_workloads.Zoo

(* ------------------------------------------------------------------ *)
(* Opcode-exhaustiveness pin                                           *)
(* ------------------------------------------------------------------ *)

type reg = int

(* This re-declaration is checked for equality against [Isa.t] by the
   compiler: adding, removing or changing a constructor of the VM ISA makes
   this file fail to build, forcing whoever extends the ISA to extend the
   verifier ([Verifier.handled_opcodes] below pins the count at runtime
   too). *)
type pin = Isa.t =
  | Move of { src : reg; dst : reg }
  | Ret of { result : reg }
  | Invoke of { func_index : int; args : reg array; dst : reg }
  | InvokeClosure of { closure : reg; args : reg array; dst : reg }
  | InvokePacked of {
      packed_index : int;
      args : reg array;
      outs : reg array;
      upper_bound : bool;
    }
  | AllocStorage of {
      size : reg;
      alignment : int;
      dtype : Dtype.t;
      device_id : int;
      arena : bool;
      dst : reg;
    }
  | AllocTensor of {
      storage : reg;
      offset : int;
      shape : int array;
      dtype : Dtype.t;
      dst : reg;
    }
  | AllocTensorReg of {
      storage : reg;
      offset : int;
      shape : reg;
      dtype : Dtype.t;
      plan : int;
      slot : int;
      dst : reg;
    }
  | AllocADT of { tag : int; fields : reg array; dst : reg }
  | AllocClosure of { func_index : int; captured : reg array; dst : reg }
  | GetField of { obj : reg; index : int; dst : reg }
  | GetTag of { obj : reg; dst : reg }
  | If of { test : reg; target : reg; true_offset : int; false_offset : int }
  | Goto of int
  | LoadConst of { index : int; dst : reg }
  | LoadConsti of { value : int64; dst : reg }
  | DeviceCopy of { src : reg; dst_device_id : int; dst : reg }
  | ShapeOf of { tensor : reg; dst : reg }
  | ReshapeTensor of { tensor : reg; shape : reg; dst : reg }
  | Fatal of string
  | BindArena of { plan_index : int; dst : reg }

let _pin_is_isa (i : pin) : Isa.t = i

let test_opcode_pin () =
  Alcotest.(check int)
    "verifier handles every opcode" Isa.num_opcodes Verifier.handled_opcodes

(* A hand-assembled two-function executable that uses all 21 instructions
   and satisfies every verifier rule. *)
let all_opcode_exe () =
  let helper =
    { Exe.name = "helper"; arity = 1; register_count = 1; code = [| Isa.Ret { result = 0 } |] }
  in
  let code =
    [|
      Isa.LoadConsti { value = 1L; dst = 1 };
      Isa.Move { src = 0; dst = 2 };
      Isa.LoadConst { index = 0; dst = 3 };
      Isa.AllocStorage
        { size = 3; alignment = 64; dtype = Dtype.F32; device_id = 0; arena = false; dst = 4 };
      Isa.AllocTensor { storage = 4; offset = 0; shape = [| 1 |]; dtype = Dtype.F32; dst = 5 };
      Isa.AllocTensorReg
        { storage = 4; offset = 0; shape = 3; dtype = Dtype.F32; plan = -1; slot = -1; dst = 6 };
      Isa.BindArena { plan_index = 0; dst = 16 };
      Isa.AllocTensorReg
        { storage = 16; offset = 0; shape = 3; dtype = Dtype.F32; plan = 0; slot = 0; dst = 17 };
      Isa.InvokePacked { packed_index = 0; args = [| 0 |]; outs = [| 5 |]; upper_bound = false };
      Isa.AllocADT { tag = 0; fields = [| 1; 2 |]; dst = 7 };
      Isa.GetTag { obj = 7; dst = 8 };
      Isa.GetField { obj = 7; index = 1; dst = 9 };
      Isa.AllocClosure { func_index = 0; captured = [||]; dst = 10 };
      Isa.InvokeClosure { closure = 10; args = [| 2 |]; dst = 11 };
      Isa.Invoke { func_index = 0; args = [| 2 |]; dst = 12 };
      Isa.DeviceCopy { src = 5; dst_device_id = 1; dst = 13 };
      Isa.ShapeOf { tensor = 5; dst = 14 };
      Isa.ReshapeTensor { tensor = 5; shape = 14; dst = 15 };
      Isa.If { test = 1; target = 1; true_offset = 1; false_offset = 2 };
      Isa.Goto 2;
      Isa.Fatal "dispatch failure";
      Isa.Ret { result = 12 };
    |]
  in
  let main = { Exe.name = "main"; arity = 1; register_count = 18; code } in
  let exe =
    Exe.create ~funcs:[| helper; main |]
      ~constants:[| Tensor.ones [| 1 |] |]
      ~packed_names:[| ("k", `Kernel) |]
  in
  let module Sx = Nimble_shape.Sym_expr in
  let size = Sx.mul (Sx.dim 0) (Sx.const 4) in
  Exe.set_plans exe
    [|
      {
        Exe.p_func = 1;
        p_arena =
          {
            Nimble_shape.Arena_plan.device = 0;
            align = 64;
            binders = [| { b_arg = 0; b_dim = 0; b_sym = 0 } |];
            slots = [| { s_offset = Sx.const 0; s_size = size } |];
            total = size;
          };
      };
    |];
  exe

let test_all_opcodes_verify () =
  let exe = all_opcode_exe () in
  let opcodes =
    Array.to_list exe.Exe.funcs.(1).Exe.code
    |> List.map Isa.opcode |> List.sort_uniq compare |> List.length
  in
  Alcotest.(check int) "sample covers every opcode" Isa.num_opcodes opcodes;
  Alcotest.(check (list string)) "verifier accepts" []
    (List.map Diag.to_string (Verifier.verify exe));
  (* ... and still accepts after a serialization round trip *)
  let back = Verifier.of_bytes (Serialize.to_bytes exe) in
  Alcotest.(check int) "instructions preserved"
    (Exe.instruction_count exe) (Exe.instruction_count back)

(* ------------------------------------------------------------------ *)
(* Negative cases: seeded bytecode mutations                           *)
(* ------------------------------------------------------------------ *)

let mk_exe ?(arity = 1) ?(nregs = 8) ?(constants = [||]) ?(packed = [||]) code =
  Exe.create
    ~funcs:[| { Exe.name = "f"; arity; register_count = nregs; code } |]
    ~constants ~packed_names:packed

(* The serializer happily round-trips these (it checks format, not
   semantics), so each must be caught by the verifier at load time with a
   diagnostic locating function "f" at the seeded pc. *)
let expect_reject name ~pc exe =
  let bytes = Serialize.to_bytes exe in
  (* the decoder itself must accept: these are semantic, not format, bugs *)
  ignore (Serialize.of_bytes bytes);
  match Verifier.of_bytes bytes with
  | _ -> Alcotest.failf "%s: verifier accepted a corrupt executable" name
  | exception Verifier.Verify_error ds ->
      Alcotest.(check bool)
        (name ^ ": diagnostic located at f@" ^ string_of_int pc)
        true
        (List.exists (fun d -> d.Diag.d_where = "f" && d.Diag.d_pc = pc) ds)

let test_rejects_use_before_def () =
  expect_reject "use before def" ~pc:0
    (mk_exe ~arity:0 ~nregs:4 [| Isa.Move { src = 3; dst = 0 }; Isa.Ret { result = 0 } |])

let test_rejects_register_out_of_bounds () =
  expect_reject "register out of bounds" ~pc:0
    (mk_exe ~nregs:4 [| Isa.Ret { result = 9 } |])

let test_rejects_jump_out_of_bounds () =
  expect_reject "jump out of bounds" ~pc:0
    (mk_exe [| Isa.Goto 5; Isa.Ret { result = 0 } |])

let test_rejects_bad_constant_index () =
  expect_reject "constant index" ~pc:0
    (mk_exe [| Isa.LoadConst { index = 3; dst = 1 }; Isa.Ret { result = 1 } |])

let test_rejects_bad_device_id () =
  expect_reject "device id" ~pc:0
    (mk_exe
       [|
         Isa.AllocStorage
           { size = 0; alignment = 64; dtype = Dtype.F32; device_id = 7; arena = false; dst = 1 };
         Isa.Ret { result = 1 };
       |])

let test_rejects_bad_packed_index () =
  expect_reject "packed index" ~pc:0
    (mk_exe
       [|
         Isa.InvokePacked { packed_index = 2; args = [| 0 |]; outs = [| 0 |]; upper_bound = false };
         Isa.Ret { result = 0 };
       |])

let test_rejects_unallocated_out_register () =
  expect_reject "kernel out not alloc-backed" ~pc:0
    (mk_exe
       ~packed:[| ("k", `Kernel) |]
       [|
         Isa.InvokePacked { packed_index = 0; args = [| 0 |]; outs = [| 0 |]; upper_bound = false };
         Isa.Ret { result = 0 };
       |])

let test_rejects_fallthrough () =
  expect_reject "fallthrough" ~pc:0 (mk_exe [| Isa.Move { src = 0; dst = 1 } |])

let test_rejects_def_not_on_all_paths () =
  (* r2 is defined on the true path only; the join at the Ret is Unset *)
  expect_reject "def on one path only" ~pc:2
    (mk_exe ~nregs:4
       [|
         Isa.If { test = 0; target = 0; true_offset = 1; false_offset = 2 };
         Isa.LoadConsti { value = 5L; dst = 2 };
         Isa.Ret { result = 2 };
       |])

let test_rejects_getfield_out_of_arity () =
  expect_reject "field index vs ADT arity" ~pc:1
    (mk_exe ~nregs:4
       [|
         Isa.AllocADT { tag = 0; fields = [| 0; 0 |]; dst = 1 };
         Isa.GetField { obj = 1; index = 5; dst = 2 };
         Isa.Ret { result = 2 };
       |])

let test_rejects_tensor_as_storage () =
  expect_reject "tensor used as storage" ~pc:1
    (mk_exe ~nregs:4
       [|
         Isa.AllocADT { tag = 0; fields = [||]; dst = 1 };
         Isa.AllocTensor { storage = 1; offset = 0; shape = [| 1 |]; dtype = Dtype.F32; dst = 2 };
         Isa.Ret { result = 2 };
       |])

let test_rejects_empty_function () =
  expect_reject "empty function" ~pc:(-1) (mk_exe [||])

let test_rejects_bad_guard_argument () =
  (* guards are attached post-assembly, so verify directly *)
  let exe = mk_exe [| Isa.Ret { result = 0 } |] in
  Exe.set_guards exe
    [| [| { Exe.g_arg = 3; g_name = "x"; g_dims = [||]; g_dtype = None } |] |];
  match Verifier.verify exe with
  | [] -> Alcotest.fail "guard on argument 3 of an arity-1 function accepted"
  | d :: _ ->
      Alcotest.(check string) "located in f" "f" d.Diag.d_where;
      Alcotest.(check int) "no pc (entry guard)" (-1) d.Diag.d_pc

(* ------------------------------------------------------------------ *)
(* Pipeline invariant: everything the compiler emits verifies clean    *)
(* ------------------------------------------------------------------ *)

let assert_clean name options m =
  let exe, report = Nimble.compile_with_report ~options m in
  Alcotest.(check bool)
    (name ^ ": verify stats recorded") true
    (List.exists (fun s -> s.Nimble.verify_name = "bytecode") report.Nimble.verify);
  List.iter
    (fun (s : Nimble.verify_stat) ->
      Alcotest.(check int)
        (Fmt.str "%s: %s violations" name s.Nimble.verify_name)
        0 s.Nimble.violations)
    report.Nimble.verify;
  Alcotest.(check (list string))
    (name ^ ": no diagnostics") []
    (List.map Diag.to_string report.Nimble.verify_diags);
  Alcotest.(check (list string))
    (name ^ ": emitted executable re-verifies") []
    (List.map Diag.to_string (Verifier.verify exe))

let test_pipeline_clean_zoo () =
  List.iter
    (fun (m : Zoo.model) -> assert_clean m.name Nimble.default_options (m.build ()))
    Zoo.models

let test_pipeline_clean_examples () =
  List.iter
    (fun (n, m) -> assert_clean n Nimble.default_options m)
    (Zoo.example_modules ())

let test_pipeline_clean_gpu () =
  (* heterogeneous placement inserts device copies; the device lint and the
     bytecode verifier must accept the result too *)
  List.iter
    (fun (n, m) ->
      assert_clean (n ^ "@gpu") { Nimble.default_options with Nimble.target_device = 1 } m)
    [
      ( "lstm",
        Nimble_models.Lstm.ir_module
          (Nimble_models.Lstm.init_weights Nimble_models.Lstm.small_config) );
    ]

(* ------------------------------------------------------------------ *)
(* IR-dialect lints on hand-built violating modules                    *)
(* ------------------------------------------------------------------ *)

let dv = Expr.fresh_var

let has_substr s substr =
  let n = String.length substr in
  let found = ref false in
  for i = 0 to String.length s - n do
    if String.sub s i n = substr then found := true
  done;
  !found

let contains_diag ~check ~substr diags =
  List.exists
    (fun d -> d.Diag.d_check = check && has_substr (Diag.to_string d) substr)
    diags

let check_lint name diags ~check ~substr =
  if not (contains_diag ~check ~substr diags) then
    Alcotest.failf "%s: expected a %S diagnostic mentioning %S, got [%s]" name
      check substr
      (String.concat "; " (List.map Diag.to_string diags))

let test_lint_use_after_kill () =
  let s = dv "s" and t = dv "t" and k = dv "k" and u = dv "u" in
  let body =
    Expr.lets
      [
        (s, Expr.op_call "memory.alloc_storage" [ Expr.const_int 4 ]);
        (t, Expr.op_call "memory.alloc_tensor" [ Expr.Var s; Expr.const_int 4 ]);
        (k, Expr.op_call "memory.kill" [ Expr.Var t ]);
        (u, Expr.Var t);
      ]
      (Expr.Var u)
  in
  let m = Irmod.of_main (Expr.fn_def [] body) in
  check_lint "use after kill" (Lint.memory m) ~check:"memory"
    ~substr:"after memory.kill"

let test_lint_double_kill () =
  let s = dv "s" and t = dv "t" and k1 = dv "k1" and k2 = dv "k2" in
  let body =
    Expr.lets
      [
        (s, Expr.op_call "memory.alloc_storage" [ Expr.const_int 4 ]);
        (t, Expr.op_call "memory.alloc_tensor" [ Expr.Var s; Expr.const_int 4 ]);
        (k1, Expr.op_call "memory.kill" [ Expr.Var t ]);
        (k2, Expr.op_call "memory.kill" [ Expr.Var t ]);
      ]
      (Expr.const_int 0)
  in
  let m = Irmod.of_main (Expr.fn_def [] body) in
  check_lint "double kill" (Lint.memory m) ~check:"memory"
    ~substr:"double memory.kill"

let test_lint_tensor_as_storage () =
  let s = dv "s" and t = dv "t" and t2 = dv "t2" in
  let body =
    Expr.lets
      [
        (s, Expr.op_call "memory.alloc_storage" [ Expr.const_int 4 ]);
        (t, Expr.op_call "memory.alloc_tensor" [ Expr.Var s; Expr.const_int 4 ]);
        (t2, Expr.op_call "memory.alloc_tensor" [ Expr.Var t; Expr.const_int 4 ]);
      ]
      (Expr.Var t2)
  in
  let m = Irmod.of_main (Expr.fn_def [] body) in
  check_lint "tensor as storage" (Lint.memory m) ~check:"memory"
    ~substr:"not a memory.alloc_storage result"

let test_lint_unallocated_destination () =
  let x = dv "x" and y = dv "y" and u = dv "u" in
  let body =
    Expr.lets
      [
        ( u,
          Expr.op_call
            ~attrs:[ ("num_inputs", Attrs.Int 1) ]
            "memory.invoke_mut"
            [ Expr.Op "k"; Expr.Var x; Expr.Var y ] );
      ]
      (Expr.Var y)
  in
  let m = Irmod.of_main (Expr.fn_def [ x; y ] body) in
  check_lint "unallocated destination" (Lint.memory m) ~check:"memory"
    ~substr:"not a manifestly allocated tensor"

let test_lint_leak () =
  let s = dv "s" and t = dv "t" in
  let bindings =
    [
      (s, Expr.op_call "memory.alloc_storage" [ Expr.const_int 4 ]);
      (t, Expr.op_call "memory.alloc_tensor" [ Expr.Var s; Expr.const_int 4 ]);
    ]
  in
  let m = Irmod.of_main (Expr.fn_def [] (Expr.lets bindings (Expr.const_int 0))) in
  (* the leak rule is part of the planner's contract: only checked planned *)
  Alcotest.(check (list string)) "unplanned: no leak rule" []
    (List.map Diag.to_string (Lint.memory ~planned:false m));
  check_lint "leak" (Lint.memory ~planned:true m) ~check:"memory" ~substr:"leak"

let test_lint_arena_overlap () =
  let a = dv "a" and t1 = dv "t1" and t2 = dv "t2" and u = dv "u" in
  let alloc v off =
    ( v,
      Expr.op_call
        ~attrs:[ ("offset", Attrs.Int off); ("const_shape", Attrs.Ints [ 4 ]) ]
        "memory.alloc_tensor"
        [ Expr.Var a; Expr.const_int 4 ] )
  in
  let body off2 =
    Expr.lets
      [
        ( a,
          Expr.op_call
            ~attrs:[ ("arena", Attrs.Bool true) ]
            "memory.alloc_storage" [ Expr.const_int 32 ] );
        alloc t1 0;
        alloc t2 off2;
        ( u,
          Expr.op_call
            ~attrs:[ ("num_inputs", Attrs.Int 0) ]
            "memory.invoke_mut"
            [ Expr.Op "k"; Expr.Var t1; Expr.Var t2 ] );
      ]
      (Expr.Var u)
  in
  let overlapping = Irmod.of_main (Expr.fn_def [] (body 0)) in
  check_lint "arena overlap" (Lint.memory ~planned:true overlapping)
    ~check:"memory" ~substr:"overlap";
  (* disjoint offsets for the same live ranges are fine *)
  let disjoint = Irmod.of_main (Expr.fn_def [] (body 4096)) in
  Alcotest.(check (list string)) "disjoint offsets accepted" []
    (List.map Diag.to_string (Lint.memory ~planned:true disjoint))

let test_lint_device_conflict () =
  let x = dv "x" and s = dv "s" and t = dv "t" and u = dv "u" in
  let body =
    Expr.lets
      [
        ( s,
          Expr.op_call
            ~attrs:[ ("device", Attrs.Int 1) ]
            "memory.alloc_storage" [ Expr.const_int 4 ] );
        (t, Expr.op_call "memory.alloc_tensor" [ Expr.Var s; Expr.const_int 4 ]);
        ( u,
          Expr.op_call
            ~attrs:[ ("device", Attrs.Int 0); ("num_inputs", Attrs.Int 1) ]
            "memory.invoke_mut"
            [ Expr.Op "k"; Expr.Var t; Expr.Var t ] );
      ]
      (Expr.Var u)
  in
  let m = Irmod.of_main (Expr.fn_def [ x ] body) in
  check_lint "device conflict" (Lint.device m) ~check:"device"
    ~substr:"without a device_copy"

let test_lint_fusion_policy () =
  (* a fused group containing nms (upper-bound shape function) violates the
     §4.2 policy: only data-independent ops may be fused *)
  let p = dv "p" in
  let prim =
    Expr.fn_def
      ~attrs:
        [
          ("Primitive", Attrs.Int 1);
          ("name", Attrs.Str "bad_fused");
          ("ops", Attrs.Str "relu,nms");
        ]
      [ p ] (Expr.Var p)
  in
  let x = dv "x" in
  let m = Irmod.of_main (Expr.fn_def [ x ] (Expr.call (Expr.Fn prim) [ Expr.Var x ])) in
  check_lint "fusion policy" (Lint.fusion m) ~check:"fusion"
    ~substr:"not data-independent"

(* ------------------------------------------------------------------ *)
(* Byte-flip / truncation fuzz over the serialized format              *)
(* ------------------------------------------------------------------ *)

let classify bytes =
  match Verifier.of_bytes bytes with
  | _ -> `Clean
  | exception Serialize.Format_error _ -> `Rejected
  | exception Verifier.Verify_error _ -> `Rejected
  | exception e ->
      Alcotest.failf "loader crashed instead of rejecting: %s"
        (Printexc.to_string e)

let test_byte_flips_never_crash () =
  let exe = Nimble.compile (snd (List.hd (Zoo.example_modules ()))) in
  let bytes = Serialize.to_bytes exe in
  let len = String.length bytes in
  let rejected = ref 0 in
  for i = 0 to 199 do
    let pos = i * 131 mod min len 4096 in
    let b = Bytes.of_string bytes in
    Bytes.set b pos (Char.chr (Char.code (Bytes.get b pos) lxor (1 lsl (i mod 8))));
    match classify (Bytes.to_string b) with
    | `Rejected -> incr rejected
    | `Clean -> () (* flips in constant payloads decode fine *)
  done;
  Alcotest.(check bool) "some flips detected" true (!rejected > 0)

let test_truncations_never_crash () =
  let exe = Nimble.compile (snd (List.hd (Zoo.example_modules ()))) in
  let bytes = Serialize.to_bytes exe in
  let len = String.length bytes in
  for k = 0 to 40 do
    match classify (String.sub bytes 0 (k * len / 41)) with
    | `Rejected | `Clean -> ()
  done

(* ------------------------------------------------------------------ *)
(* Symbolic arena plans: one codec, one soundness check                 *)
(* ------------------------------------------------------------------ *)

module Arena_plan = Nimble_shape.Arena_plan
module Plan_check = Nimble_analysis.Plan_check
module Sx = Nimble_shape.Sym_expr

(* Every plan the planner emits is a consecutive tiling (its layout is
   proven, not sampled), checks clean, and survives the IR attribute
   codec unchanged. *)
let test_zoo_plans_tiled () =
  let plans =
    List.concat_map
      (fun (n, m) ->
        List.map (fun p -> (n, p.Exe.p_arena)) (Array.to_list (Nimble.compile m).Exe.plans))
      (Zoo.all_modules ())
  in
  Alcotest.(check bool) "the zoo emits symbolic plans" true (plans <> []);
  List.iter
    (fun (n, p) ->
      Alcotest.(check bool) (n ^ ": layout proven by tiling") true (Plan_check.tiled p);
      Alcotest.(check (list string)) (n ^ ": sound") [] (Plan_check.check p);
      Alcotest.(check bool) (n ^ ": attrs codec round trip") true
        (Arena_plan.of_attrs (Arena_plan.to_attrs p) = Ok p))
    plans

let plan ?(device = 0) ?(align = 64) ?(binders = [ (0, 0, 0) ]) slots total =
  {
    Arena_plan.device;
    align;
    binders =
      Array.of_list
        (List.map (fun (b_arg, b_dim, b_sym) -> { Arena_plan.b_arg; b_dim; b_sym }) binders);
    slots = Array.of_list (List.map (fun (s_offset, s_size) -> { Arena_plan.s_offset; s_size }) slots);
    total;
  }

let s0 k = Sx.mul (Sx.dim 0) (Sx.const k)

(* The plan table of a one-function executable, and the same plan as a
   [memory.bind_arena] in IR: the verifier and the planned-memory lint
   must report exactly {!Plan_check}'s findings. *)
let reasons_both_ways p =
  let exe =
    Exe.create
      ~funcs:
        [|
          {
            Exe.name = "main";
            arity = 1;
            register_count = 2;
            code = [| Isa.BindArena { plan_index = 0; dst = 1 }; Isa.Ret { result = 0 } |];
          };
        |]
      ~constants:[||] ~packed_names:[||]
  in
  Exe.set_plans exe [| { Exe.p_func = 0; p_arena = p } |];
  let from_verifier =
    List.filter_map
      (fun d -> if d.Diag.d_check = "memory_plan" then Some d.Diag.d_reason else None)
      (Verifier.verify exe)
  in
  let x = dv "x" and a = dv "a" in
  let m =
    Irmod.of_main
      (Expr.fn_def [ x ]
         (Expr.lets
            [ (a, Expr.op_call ~attrs:(Arena_plan.to_attrs p) "memory.bind_arena" []) ]
            (Expr.Var x)))
  in
  let prefix = "bind_arena %a: " in
  let from_lint =
    List.map
      (fun d ->
        let r = d.Diag.d_reason in
        if String.starts_with ~prefix r then
          String.sub r (String.length prefix) (String.length r - String.length prefix)
        else Alcotest.failf "lint reason %S lacks the bind_arena prefix" r)
      (Lint.memory ~planned:true m)
  in
  (from_verifier, from_lint)

let test_unsound_plans_rejected () =
  List.iter
    (fun (name, p, substr) ->
      let expected = Plan_check.check p in
      let verifier, lint = reasons_both_ways p in
      Alcotest.(check (list string)) (name ^ ": verifier = Plan_check") expected verifier;
      Alcotest.(check (list string)) (name ^ ": lint = Plan_check") expected lint;
      Alcotest.(check bool) (name ^ ": reports " ^ substr) true
        (List.exists (fun r -> has_substr r substr) expected))
    [
      ("overlap", plan [ (Sx.const 0, s0 4); (s0 2, s0 4) ] (s0 8), "not a consecutive tiling");
      ("escape", plan [ (Sx.const 0, s0 8) ] (s0 4), "not a consecutive tiling");
      ("unbound dim", plan ~binders:[] [ (Sx.const 0, s0 4) ] (s0 4), "s0 has no binder");
      ( "non-monotone size",
        plan [ (Sx.const 0, Sx.Add (s0 4, Sx.const (-8))) ] (s0 4),
        "is not monotone" );
      ( "align 0",
        plan [ (Sx.const 0, Sx.Align (s0 4, 0)) ] (s0 4),
        "is not monotone" );
      ("bad device", plan ~device:7 [ (Sx.const 0, s0 4) ] (s0 4), "device 7 out of bounds");
      ("bad binder", plan ~binders:[ (0, -1, 0) ] [ (Sx.const 0, s0 4) ] (s0 4), "dim -1");
    ]

(* Only tilings are accepted: swapping two slots of a tiling keeps them
   disjoint, but the layout is no longer provable by structure, so the
   plan is rejected rather than sampled. *)
let test_untiled_plan_rejected () =
  let a = Sx.align (s0 4) 64 and b = Sx.align (s0 12) 64 in
  let tiled = plan [ (Sx.const 0, a); (a, b) ] (Sx.add a b) in
  let swapped = plan [ (b, a); (Sx.const 0, b) ] (Sx.add a b) in
  Alcotest.(check bool) "planner layout is tiled" true (Plan_check.tiled tiled);
  Alcotest.(check bool) "swapped layout is not" false (Plan_check.tiled swapped);
  Alcotest.(check (list string)) "tiling sound" [] (Plan_check.check tiled);
  Alcotest.(check (list string)) "swapped rejected"
    [ "layout is not a consecutive tiling, so no-overlap and no-escape are unproven" ]
    (Plan_check.check swapped)

(* A plan whose alignment is 0 decodes, but must be rejected at load with
   a typed error rather than reach the interpreter's evaluation. *)
let test_align_zero_rejected_on_load () =
  let exe = Nimble.compile (snd (List.hd (Zoo.example_modules ()))) in
  Exe.set_plans exe
    [| { Exe.p_func = 0; p_arena = plan [ (Sx.const 0, Sx.Align (s0 4, 0)) ] (s0 4) } |];
  match classify (Serialize.to_bytes exe) with
  | `Rejected -> ()
  | `Clean -> Alcotest.fail "a plan aligning to 0 verified"

(* ------------------------------------------------------------------ *)

let test_to_failure () =
  let d = Diag.v ~check:"bytecode" ~where_:"main" ~pc:7 "boom" in
  let f = Verifier.to_failure [ d; d ] in
  Alcotest.(check string) "function" "main" f.Interp.fail_func;
  Alcotest.(check int) "pc" 7 f.Interp.fail_pc

let () =
  Alcotest.run "analysis"
    [
      ( "pin",
        [
          Alcotest.test_case "opcode count" `Quick test_opcode_pin;
          Alcotest.test_case "all opcodes verify + roundtrip" `Quick
            test_all_opcodes_verify;
        ] );
      ( "verifier-rejects",
        [
          Alcotest.test_case "use before def" `Quick test_rejects_use_before_def;
          Alcotest.test_case "register bounds" `Quick test_rejects_register_out_of_bounds;
          Alcotest.test_case "jump bounds" `Quick test_rejects_jump_out_of_bounds;
          Alcotest.test_case "constant index" `Quick test_rejects_bad_constant_index;
          Alcotest.test_case "device id" `Quick test_rejects_bad_device_id;
          Alcotest.test_case "packed index" `Quick test_rejects_bad_packed_index;
          Alcotest.test_case "unallocated out" `Quick test_rejects_unallocated_out_register;
          Alcotest.test_case "fallthrough" `Quick test_rejects_fallthrough;
          Alcotest.test_case "def on one path" `Quick test_rejects_def_not_on_all_paths;
          Alcotest.test_case "getfield arity" `Quick test_rejects_getfield_out_of_arity;
          Alcotest.test_case "tensor as storage" `Quick test_rejects_tensor_as_storage;
          Alcotest.test_case "empty function" `Quick test_rejects_empty_function;
          Alcotest.test_case "guard argument" `Quick test_rejects_bad_guard_argument;
        ] );
      ( "pipeline",
        [
          Alcotest.test_case "zoo models verify clean" `Quick test_pipeline_clean_zoo;
          Alcotest.test_case "examples verify clean" `Quick test_pipeline_clean_examples;
          Alcotest.test_case "gpu placement verifies clean" `Quick test_pipeline_clean_gpu;
        ] );
      ( "lints",
        [
          Alcotest.test_case "use after kill" `Quick test_lint_use_after_kill;
          Alcotest.test_case "double kill" `Quick test_lint_double_kill;
          Alcotest.test_case "tensor as storage" `Quick test_lint_tensor_as_storage;
          Alcotest.test_case "unallocated destination" `Quick test_lint_unallocated_destination;
          Alcotest.test_case "leak" `Quick test_lint_leak;
          Alcotest.test_case "arena overlap" `Quick test_lint_arena_overlap;
          Alcotest.test_case "device conflict" `Quick test_lint_device_conflict;
          Alcotest.test_case "fusion policy" `Quick test_lint_fusion_policy;
        ] );
      ( "fuzz",
        [
          Alcotest.test_case "byte flips" `Quick test_byte_flips_never_crash;
          Alcotest.test_case "truncations" `Quick test_truncations_never_crash;
        ] );
      ( "plans",
        [
          Alcotest.test_case "zoo plans tiled + codec" `Quick test_zoo_plans_tiled;
          Alcotest.test_case "unsound plans rejected" `Quick test_unsound_plans_rejected;
          Alcotest.test_case "untiled plan rejected" `Quick test_untiled_plan_rejected;
          Alcotest.test_case "align 0 rejected on load" `Quick test_align_zero_rejected_on_load;
        ] );
      ("failure", [ Alcotest.test_case "to_failure" `Quick test_to_failure ]);
    ]
