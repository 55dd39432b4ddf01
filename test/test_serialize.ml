(* Serialization tests: instruction/tensor/executable round trips, file IO,
   relinking, corrupt-input rejection — the deployment flow of §5. *)

open Nimble_tensor
open Nimble_ir
open Nimble_vm
module Nimble = Nimble_compiler.Nimble
module Zoo = Nimble_workloads.Zoo

let tensor_eq = Alcotest.testable Tensor.pp (Tensor.approx_equal ~atol:1e-6 ~rtol:1e-6)
let rng = Rng.create ~seed:31

let sample_instrs : Isa.t list =
  [
    Isa.Move { src = 1; dst = 2 };
    Isa.Ret { result = 0 };
    Isa.Invoke { func_index = 3; args = [| 1; 2 |]; dst = 4 };
    Isa.InvokeClosure { closure = 0; args = [| 7 |]; dst = 1 };
    Isa.InvokePacked { packed_index = 2; args = [| 0; 1 |]; outs = [| 3 |]; upper_bound = true };
    Isa.AllocStorage
      { size = 1; alignment = 64; dtype = Dtype.F32; device_id = 1; arena = true; dst = 2 };
    Isa.AllocTensor { storage = 0; offset = 128; shape = [| 2; 3 |]; dtype = Dtype.I64; dst = 1 };
    Isa.AllocTensorReg
      { storage = 0; offset = 0; shape = 5; dtype = Dtype.U8; plan = -1; slot = -1; dst = 6 };
    Isa.AllocADT { tag = 4; fields = [| 1; 2; 3 |]; dst = 0 };
    Isa.AllocClosure { func_index = 9; captured = [||]; dst = 1 };
    Isa.GetField { obj = 1; index = 2; dst = 3 };
    Isa.GetTag { obj = 4; dst = 5 };
    Isa.If { test = 1; target = 2; true_offset = 3; false_offset = -4 };
    Isa.Goto (-7);
    Isa.LoadConst { index = 12; dst = 1 };
    Isa.LoadConsti { value = -123456789L; dst = 2 };
    Isa.DeviceCopy { src = 1; dst_device_id = 1; dst = 2 };
    Isa.ShapeOf { tensor = 3; dst = 4 };
    Isa.ReshapeTensor { tensor = 1; shape = 2; dst = 3 };
    Isa.Fatal "match failure";
  ]

let roundtrip exe = Serialize.of_bytes (Serialize.to_bytes exe)

let test_every_instruction_roundtrips () =
  let exe =
    Exe.create
      ~funcs:
        [|
          {
            Exe.name = "main";
            arity = 2;
            register_count = 16;
            code = Array.of_list sample_instrs;
          };
        |]
      ~constants:[||] ~packed_names:[||]
  in
  let back = roundtrip exe in
  Alcotest.(check int) "instr count" (List.length sample_instrs)
    (Array.length back.Exe.funcs.(0).Exe.code);
  List.iteri
    (fun i orig ->
      let got = back.Exe.funcs.(0).Exe.code.(i) in
      Alcotest.(check string)
        (Fmt.str "instr %d" i)
        (Fmt.str "%a" Isa.pp orig)
        (Fmt.str "%a" Isa.pp got))
    sample_instrs

let test_tensor_constants_roundtrip () =
  let constants =
    [|
      Tensor.randn rng [| 3; 4 |];
      Tensor.of_int_array ~dtype:Dtype.I64 [| 2 |] [| -5; 1000000 |];
      Tensor.of_int_array ~dtype:Dtype.I32 [| 2 |] [| -5; 7 |];
      Tensor.of_int_array ~dtype:Dtype.U8 [| 3 |] [| 0; 128; 255 |];
      Tensor.randn ~dtype:Dtype.F64 rng [| 2; 2 |];
      Tensor.scalar 3.5;
    |]
  in
  let exe =
    Exe.create
      ~funcs:[| { Exe.name = "main"; arity = 0; register_count = 1; code = [| Isa.Ret { result = 0 } |] } |]
      ~constants ~packed_names:[||]
  in
  let back = roundtrip exe in
  Array.iteri
    (fun i t ->
      (* f32 constants lose at most float32 precision *)
      Alcotest.(check bool)
        (Fmt.str "const %d" i)
        true
        (Tensor.approx_equal ~atol:1e-5 ~rtol:1e-5 t back.Exe.constants.(i)))
    constants

let test_packed_names_and_relink () =
  let exe =
    Exe.create
      ~funcs:[| { Exe.name = "main"; arity = 0; register_count = 1; code = [| Isa.Ret { result = 0 } |] } |]
      ~constants:[||]
      ~packed_names:[| ("k1", `Kernel); ("k1$shape", `Shape_func) |]
  in
  let back = roundtrip exe in
  Alcotest.(check bool) "unlinked after load" false (Exe.linked back);
  Exe.link back { Exe.packed_name = "k1"; kind = `Kernel; mode = None; run = (fun _ d -> d); dispatch = None };
  Exe.link back { Exe.packed_name = "k1$shape"; kind = `Shape_func; mode = Some "data_indep"; run = (fun _ d -> d); dispatch = None };
  Alcotest.(check bool) "linked" true (Exe.linked back);
  Alcotest.check_raises "unknown name"
    (Invalid_argument "Exe.link: executable has no packed function nope") (fun () ->
      Exe.link back { Exe.packed_name = "nope"; kind = `Kernel; mode = None; run = (fun _ d -> d); dispatch = None })

let test_compiled_module_roundtrip_and_run () =
  (* full flow: compile -> serialize -> load -> relink -> run *)
  let x = Expr.fresh_var ~ty:(Ty.tensor [ Dim.Any; Dim.static 6 ]) "x" in
  let w = Tensor.randn rng [| 4; 6 |] in
  let body = Expr.op_call "relu" [ Expr.op_call "dense" [ Expr.Var x; Expr.Const w ] ] in
  let m = Irmod.of_main (Expr.fn_def [ x ] body) in
  let exe = Nimble.compile m in
  let loaded = roundtrip exe in
  Exe.relink ~from:exe loaded;
  let input = Tensor.randn rng [| 5; 6 |] in
  let out = Interp.run_tensors (Interp.create loaded) [ input ] in
  Alcotest.check tensor_eq "same result" (Ops_elem.relu (Ops_matmul.dense input w)) out

(* Fused-kernel names and symbolic-dim ids are numbered per module, so a
   model's bytes do not depend on what the process compiled before it:
   compile the zoo in order, then again in reverse order, and every model
   must serialize to the same bytes both times. *)
let test_bytes_independent_of_compile_history () =
  let compile_all models =
    List.map
      (fun (m : Zoo.model) -> (m.name, Serialize.to_bytes (Nimble.compile (m.build ()))))
      models
  in
  let forward = compile_all Zoo.models in
  let reverse = compile_all (List.rev Zoo.models) in
  Alcotest.(check int) "every zoo model compiled" 11 (List.length forward);
  List.iter
    (fun (name, bytes) ->
      Alcotest.(check bool)
        (name ^ ": same bytes after the rest of the zoo")
        true
        (String.equal bytes (List.assoc name reverse)))
    forward

(* Serialized length and MD5 of every zoo model's executable, pinned. A
   compile change meant only to be faster must leave each one as it is:
   a different fusion merge order renames kernels, a different register
   colouring renumbers operands, and either changes the bytes. *)
let zoo_golden =
  [
    ("lstm", 63744, "cbb9491939065db0add5c4a972883b5d");
    ("posenc", 3101, "8ec12d7d062ac5e8c32d43b745734411");
    ("gru", 32621, "1893b245cb6fbdde4a0a0e32f5a5fe99");
    ("treelstm", 32376, "c63c1e84dfce3a23479d447b8e8776d1");
    ("bert", 276521, "4024e0b5ffdd679f46f7b9c8793f18dd");
    ("decoder", 7901, "37206500d9ab8643b397fe0e37b6c198");
    ("seq2seq", 30030, "4d8d3dd1912d21cd00a4344d9ce328df");
    ("resnet", 338652, "b33083e648b7620b8df0820ea0bf4d58");
    ("mobilenet", 419094, "3d7b0050d8f94605ff2ce8b8e7dec725");
    ("vgg", 975070, "1dce826ce60610405b5696531b3c7f62");
    ("squeezenet", 48471, "315cfaea95775dccc0e3a814b81a783d");
  ]

let test_zoo_bytes_pinned () =
  Alcotest.(check (list string)) "pinned models"
    (List.map (fun (m : Zoo.model) -> m.name) Zoo.models)
    (List.map (fun (name, _, _) -> name) zoo_golden);
  List.iter
    (fun (name, len, md5) ->
      let m = Option.get (Zoo.find name) in
      let bytes = Serialize.to_bytes (Nimble.compile (m.build ())) in
      Alcotest.(check (pair int string))
        (name ^ ": length and MD5") (len, md5)
        (String.length bytes, Digest.to_hex (Digest.string bytes)))
    zoo_golden

let test_file_roundtrip () =
  let exe =
    Exe.create
      ~funcs:[| { Exe.name = "main"; arity = 0; register_count = 1; code = [| Isa.Ret { result = 0 } |] } |]
      ~constants:[| Tensor.ones [| 2 |] |]
      ~packed_names:[||]
  in
  let path = Filename.temp_file "nimble_test" ".exe" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with _ -> ())
    (fun () ->
      Serialize.save_file exe path;
      let back = Serialize.load_file path in
      Alcotest.(check int) "constants" 1 (Array.length back.Exe.constants))

let test_corrupt_input_rejected () =
  Alcotest.(check bool) "bad magic" true
    (try
       ignore (Serialize.of_bytes "NOTANEXE++++");
       false
     with Serialize.Format_error _ -> true);
  Alcotest.(check bool) "truncated" true
    (try
       ignore (Serialize.of_bytes "NMBLEXE2\x05");
       false
     with Serialize.Format_error _ -> true);
  (* valid header, garbage body *)
  Alcotest.(check bool) "garbage body" true
    (try
       ignore (Serialize.of_bytes ("NMBLEXE2" ^ String.make 40 '\xff'));
       false
     with Serialize.Format_error _ -> true)

(* The decoder only checks the wire format; a semantically corrupt
   executable (here: a register index past register_count, as a splicing
   attacker or a bit flip in the register field would produce) decodes fine
   and must be caught by the bytecode verifier layered on top. *)
let test_verifier_catches_what_decoder_accepts () =
  let exe =
    Exe.create
      ~funcs:
        [|
          {
            Exe.name = "spliced";
            arity = 1;
            register_count = 2;
            code = [| Isa.Move { src = 0; dst = 99 }; Isa.Ret { result = 0 } |];
          };
        |]
      ~constants:[||] ~packed_names:[||]
  in
  let bytes = Serialize.to_bytes exe in
  ignore (Serialize.of_bytes bytes);
  (* format fine *)
  match Nimble_analysis.Verifier.of_bytes bytes with
  | _ -> Alcotest.fail "verifier accepted an out-of-range register"
  | exception Nimble_analysis.Verifier.Verify_error (d :: _) ->
      Alcotest.(check string) "located function" "spliced"
        d.Nimble_analysis.Diag.d_where;
      Alcotest.(check int) "located pc" 0 d.Nimble_analysis.Diag.d_pc
  | exception Nimble_analysis.Verifier.Verify_error [] ->
      Alcotest.fail "empty diagnostic list"

let prop_lstm_exe_roundtrip_stable =
  QCheck.Test.make ~name:"serialized size deterministic" ~count:5 QCheck.unit (fun () ->
      let w = Nimble_models.Lstm.init_weights Nimble_models.Lstm.small_config in
      let exe = Nimble.compile (Nimble_models.Lstm.ir_module w) in
      let b1 = Serialize.to_bytes exe in
      let b2 = Serialize.to_bytes (roundtrip exe) in
      String.length b1 = String.length b2)

let () =
  Alcotest.run "serialize"
    [
      ( "roundtrip",
        [
          Alcotest.test_case "every instruction" `Quick test_every_instruction_roundtrips;
          Alcotest.test_case "tensor constants" `Quick test_tensor_constants_roundtrip;
          Alcotest.test_case "packed names + relink" `Quick test_packed_names_and_relink;
          Alcotest.test_case "compiled module runs after reload" `Quick
            test_compiled_module_roundtrip_and_run;
          Alcotest.test_case "bytes independent of compile history" `Quick
            test_bytes_independent_of_compile_history;
          Alcotest.test_case "zoo bytes pinned" `Quick test_zoo_bytes_pinned;
          Alcotest.test_case "file io" `Quick test_file_roundtrip;
          QCheck_alcotest.to_alcotest prop_lstm_exe_roundtrip_stable;
        ] );
      ( "robustness",
        [
          Alcotest.test_case "corrupt input" `Quick test_corrupt_input_rejected;
          Alcotest.test_case "verifier catches what decoder accepts" `Quick
            test_verifier_catches_what_decoder_accepts;
        ] );
    ]
