(** Binary (de)serialization of VM executables.

    Only the platform-independent part is stored (bytecode, constants,
    packed-function names); kernel implementations are relinked by name on
    load, mirroring the paper's split between portable bytecode and
    platform-dependent kernel code. Variable-length instruction encoding:
    one opcode byte followed by operand fields. *)

open Nimble_tensor
module Fault = Nimble_fault.Fault

exception Format_error of string

let err fmt = Fmt.kstr (fun s -> raise (Format_error s)) fmt

(* version 2 appended the entry-guard tables after each function's code;
   version 3 adds the symbolic memory-plan table after the functions and
   extends AllocTensorReg with plan/slot fields; version 4 appends the
   autotune tune table (persisted online-specialization decisions) after
   the plans *)
let magic = "NMBLEXE4"

(* ---------------- writer ---------------- *)

let w_u8 b v = Buffer.add_uint8 b (v land 0xff)
let w_i32 b v = Buffer.add_int32_le b (Int32.of_int v)
let w_i64 b v = Buffer.add_int64_le b v

let w_string b s =
  w_i32 b (String.length s);
  Buffer.add_string b s

let w_regs b (rs : int array) =
  w_i32 b (Array.length rs);
  Array.iter (w_i32 b) rs

let dtype_code = function
  | Dtype.F32 -> 0
  | Dtype.F64 -> 1
  | Dtype.I32 -> 2
  | Dtype.I64 -> 3
  | Dtype.U8 -> 4

let dtype_of_code = function
  | 0 -> Dtype.F32
  | 1 -> Dtype.F64
  | 2 -> Dtype.I32
  | 3 -> Dtype.I64
  | 4 -> Dtype.U8
  | c -> err "bad dtype code %d" c

let w_tensor b (t : Tensor.t) =
  w_u8 b (dtype_code (Tensor.dtype t));
  let s = Tensor.shape t in
  w_i32 b (Array.length s);
  Array.iter (w_i32 b) s;
  let n = Tensor.numel t in
  match Tensor.dtype t with
  | Dtype.F32 ->
      for i = 0 to n - 1 do
        Buffer.add_int32_le b (Int32.bits_of_float (Tensor.get_float t i))
      done
  | Dtype.F64 ->
      for i = 0 to n - 1 do
        Buffer.add_int64_le b (Int64.bits_of_float (Tensor.get_float t i))
      done
  | Dtype.I32 ->
      for i = 0 to n - 1 do
        Buffer.add_int32_le b (Int32.of_int (Tensor.get_int t i))
      done
  | Dtype.I64 ->
      for i = 0 to n - 1 do
        Buffer.add_int64_le b (Int64.of_int (Tensor.get_int t i))
      done
  | Dtype.U8 ->
      for i = 0 to n - 1 do
        w_u8 b (Tensor.get_int t i)
      done

let w_instr b (i : Isa.t) =
  w_u8 b (Isa.opcode i);
  match i with
  | Isa.Move { src; dst } ->
      w_i32 b src;
      w_i32 b dst
  | Isa.Ret { result } -> w_i32 b result
  | Isa.Invoke { func_index; args; dst } ->
      w_i32 b func_index;
      w_regs b args;
      w_i32 b dst
  | Isa.InvokeClosure { closure; args; dst } ->
      w_i32 b closure;
      w_regs b args;
      w_i32 b dst
  | Isa.InvokePacked { packed_index; args; outs; upper_bound } ->
      w_i32 b packed_index;
      w_regs b args;
      w_regs b outs;
      w_u8 b (if upper_bound then 1 else 0)
  | Isa.AllocStorage { size; alignment; dtype; device_id; arena; dst } ->
      w_i32 b size;
      w_i32 b alignment;
      w_u8 b (dtype_code dtype);
      w_i32 b device_id;
      w_u8 b (if arena then 1 else 0);
      w_i32 b dst
  | Isa.AllocTensor { storage; offset; shape; dtype; dst } ->
      w_i32 b storage;
      w_i32 b offset;
      w_regs b shape;
      w_u8 b (dtype_code dtype);
      w_i32 b dst
  | Isa.AllocTensorReg { storage; offset; shape; dtype; plan; slot; dst } ->
      w_i32 b storage;
      w_i32 b offset;
      w_i32 b shape;
      w_u8 b (dtype_code dtype);
      w_i32 b plan;
      w_i32 b slot;
      w_i32 b dst
  | Isa.AllocADT { tag; fields; dst } ->
      w_i32 b tag;
      w_regs b fields;
      w_i32 b dst
  | Isa.AllocClosure { func_index; captured; dst } ->
      w_i32 b func_index;
      w_regs b captured;
      w_i32 b dst
  | Isa.GetField { obj; index; dst } ->
      w_i32 b obj;
      w_i32 b index;
      w_i32 b dst
  | Isa.GetTag { obj; dst } ->
      w_i32 b obj;
      w_i32 b dst
  | Isa.If { test; target; true_offset; false_offset } ->
      w_i32 b test;
      w_i32 b target;
      w_i32 b true_offset;
      w_i32 b false_offset
  | Isa.Goto off -> w_i32 b off
  | Isa.LoadConst { index; dst } ->
      w_i32 b index;
      w_i32 b dst
  | Isa.LoadConsti { value; dst } ->
      w_i64 b value;
      w_i32 b dst
  | Isa.DeviceCopy { src; dst_device_id; dst } ->
      w_i32 b src;
      w_i32 b dst_device_id;
      w_i32 b dst
  | Isa.ShapeOf { tensor; dst } ->
      w_i32 b tensor;
      w_i32 b dst
  | Isa.ReshapeTensor { tensor; shape; dst } ->
      w_i32 b tensor;
      w_i32 b shape;
      w_i32 b dst
  | Isa.Fatal msg -> w_string b msg
  | Isa.BindArena { plan_index; dst } ->
      w_i32 b plan_index;
      w_i32 b dst

let w_guard b (g : Exe.guard) =
  w_i32 b g.Exe.g_arg;
  w_string b g.Exe.g_name;
  (match g.Exe.g_dtype with
  | None -> w_u8 b 0
  | Some dt ->
      w_u8 b 1;
      w_u8 b (dtype_code dt));
  w_i32 b (Array.length g.Exe.g_dims);
  Array.iter
    (fun check ->
      match check with
      | Exe.Check_any -> w_u8 b 0
      | Exe.Check_exact n ->
          w_u8 b 1;
          w_i32 b n
      | Exe.Check_eq s ->
          w_u8 b 2;
          w_i32 b s)
    g.Exe.g_dims

module Arena_plan = Nimble_shape.Arena_plan

let w_sym_expr b (e : Nimble_shape.Sym_expr.t) =
  w_string b (Nimble_shape.Sym_expr.to_string e)

let w_plan b { Exe.p_func; p_arena = a } =
  w_i32 b p_func;
  w_i32 b a.Arena_plan.device;
  w_i32 b a.Arena_plan.align;
  w_i32 b (Array.length a.Arena_plan.binders);
  Array.iter
    (fun { Arena_plan.b_arg; b_dim; b_sym } ->
      w_i32 b b_arg;
      w_i32 b b_dim;
      w_i32 b b_sym)
    a.Arena_plan.binders;
  w_i32 b (Array.length a.Arena_plan.slots);
  Array.iter
    (fun { Arena_plan.s_offset; s_size } ->
      w_sym_expr b s_offset;
      w_sym_expr b s_size)
    a.Arena_plan.slots;
  w_sym_expr b a.Arena_plan.total

let to_bytes (exe : Exe.t) : string =
  let b = Buffer.create 4096 in
  Buffer.add_string b magic;
  w_i32 b (Array.length exe.Exe.constants);
  Array.iter (w_tensor b) exe.Exe.constants;
  w_i32 b (Array.length exe.Exe.packed_names);
  Array.iter
    (fun (name, kind) ->
      w_string b name;
      w_u8 b (match kind with `Kernel -> 0 | `Shape_func -> 1))
    exe.Exe.packed_names;
  let guards = Exe.guards exe in
  w_i32 b (Array.length exe.Exe.funcs);
  Array.iteri
    (fun fi (f : Exe.vmfunc) ->
      w_string b f.Exe.name;
      w_i32 b f.Exe.arity;
      w_i32 b f.Exe.register_count;
      w_i32 b (Array.length f.Exe.code);
      Array.iter (w_instr b) f.Exe.code;
      let gs = if fi < Array.length guards then guards.(fi) else [||] in
      w_i32 b (Array.length gs);
      Array.iter (w_guard b) gs)
    exe.Exe.funcs;
  w_i32 b (Array.length exe.Exe.plans);
  Array.iter (w_plan b) exe.Exe.plans;
  w_i32 b (Array.length exe.Exe.tunes);
  Array.iter
    (fun (tn : Exe.tune) ->
      w_string b tn.Exe.tn_kernel;
      w_i32 b tn.Exe.tn_extent;
      w_i32 b tn.Exe.tn_tile_m)
    exe.Exe.tunes;
  Buffer.contents b

(* ---------------- reader ---------------- *)

type reader = { buf : string; mutable pos : int }

let r_u8 r =
  if r.pos >= String.length r.buf then err "truncated input";
  let v = Char.code r.buf.[r.pos] in
  r.pos <- r.pos + 1;
  v

let r_i32 r =
  if r.pos + 4 > String.length r.buf then err "truncated input";
  let v = Int32.to_int (String.get_int32_le r.buf r.pos) in
  r.pos <- r.pos + 4;
  v

let r_i64 r =
  if r.pos + 8 > String.length r.buf then err "truncated input";
  let v = String.get_int64_le r.buf r.pos in
  r.pos <- r.pos + 8;
  v

let r_string r =
  let n = r_i32 r in
  if n < 0 || r.pos + n > String.length r.buf then err "bad string length %d" n;
  let s = String.sub r.buf r.pos n in
  r.pos <- r.pos + n;
  s

let r_regs r =
  let n = r_i32 r in
  if n < 0 || n > 1_000_000 then err "bad register array length %d" n;
  Array.init n (fun _ -> r_i32 r)

let r_tensor r =
  let dt = dtype_of_code (r_u8 r) in
  let rank = r_i32 r in
  if rank < 0 || rank > 32 then err "bad tensor rank %d" rank;
  let shape = Array.init rank (fun _ -> r_i32 r) in
  Array.iter (fun d -> if d < 0 || d > 100_000_000 then err "bad tensor dim %d" d) shape;
  let t = try Tensor.empty ~dtype:dt shape with _ -> err "implausible tensor shape" in
  let n = Tensor.numel t in
  (match dt with
  | Dtype.F32 ->
      for i = 0 to n - 1 do
        Tensor.set_float t i (Int32.float_of_bits (Int32.of_int (r_i32 r)))
      done
  | Dtype.F64 ->
      for i = 0 to n - 1 do
        Tensor.set_float t i (Int64.float_of_bits (r_i64 r))
      done
  | Dtype.I32 ->
      for i = 0 to n - 1 do
        Tensor.set_int t i (r_i32 r)
      done
  | Dtype.I64 ->
      for i = 0 to n - 1 do
        Tensor.set_int t i (Int64.to_int (r_i64 r))
      done
  | Dtype.U8 ->
      for i = 0 to n - 1 do
        Tensor.set_int t i (r_u8 r)
      done);
  t

let r_instr r : Isa.t =
  let op = r_u8 r in
  match op with
  | 0 ->
      let src = r_i32 r in
      let dst = r_i32 r in
      Isa.Move { src; dst }
  | 1 -> Isa.Ret { result = r_i32 r }
  | 2 ->
      let func_index = r_i32 r in
      let args = r_regs r in
      let dst = r_i32 r in
      Isa.Invoke { func_index; args; dst }
  | 3 ->
      let closure = r_i32 r in
      let args = r_regs r in
      let dst = r_i32 r in
      Isa.InvokeClosure { closure; args; dst }
  | 4 ->
      let packed_index = r_i32 r in
      let args = r_regs r in
      let outs = r_regs r in
      let upper_bound = r_u8 r = 1 in
      Isa.InvokePacked { packed_index; args; outs; upper_bound }
  | 5 ->
      let size = r_i32 r in
      let alignment = r_i32 r in
      let dtype = dtype_of_code (r_u8 r) in
      let device_id = r_i32 r in
      let arena = r_u8 r = 1 in
      let dst = r_i32 r in
      Isa.AllocStorage { size; alignment; dtype; device_id; arena; dst }
  | 6 ->
      let storage = r_i32 r in
      let offset = r_i32 r in
      let shape = r_regs r in
      let dtype = dtype_of_code (r_u8 r) in
      let dst = r_i32 r in
      Isa.AllocTensor { storage; offset; shape; dtype; dst }
  | 7 ->
      let storage = r_i32 r in
      let offset = r_i32 r in
      let shape = r_i32 r in
      let dtype = dtype_of_code (r_u8 r) in
      let plan = r_i32 r in
      let slot = r_i32 r in
      let dst = r_i32 r in
      Isa.AllocTensorReg { storage; offset; shape; dtype; plan; slot; dst }
  | 8 ->
      let tag = r_i32 r in
      let fields = r_regs r in
      let dst = r_i32 r in
      Isa.AllocADT { tag; fields; dst }
  | 9 ->
      let func_index = r_i32 r in
      let captured = r_regs r in
      let dst = r_i32 r in
      Isa.AllocClosure { func_index; captured; dst }
  | 10 ->
      let obj = r_i32 r in
      let index = r_i32 r in
      let dst = r_i32 r in
      Isa.GetField { obj; index; dst }
  | 11 ->
      let obj = r_i32 r in
      let dst = r_i32 r in
      Isa.GetTag { obj; dst }
  | 12 ->
      let test = r_i32 r in
      let target = r_i32 r in
      let true_offset = r_i32 r in
      let false_offset = r_i32 r in
      Isa.If { test; target; true_offset; false_offset }
  | 13 -> Isa.Goto (r_i32 r)
  | 14 ->
      let index = r_i32 r in
      let dst = r_i32 r in
      Isa.LoadConst { index; dst }
  | 15 ->
      let value = r_i64 r in
      let dst = r_i32 r in
      Isa.LoadConsti { value; dst }
  | 16 ->
      let src = r_i32 r in
      let dst_device_id = r_i32 r in
      let dst = r_i32 r in
      Isa.DeviceCopy { src; dst_device_id; dst }
  | 17 ->
      let tensor = r_i32 r in
      let dst = r_i32 r in
      Isa.ShapeOf { tensor; dst }
  | 18 ->
      let tensor = r_i32 r in
      let shape = r_i32 r in
      let dst = r_i32 r in
      Isa.ReshapeTensor { tensor; shape; dst }
  | 19 -> Isa.Fatal (r_string r)
  | 20 ->
      let plan_index = r_i32 r in
      let dst = r_i32 r in
      Isa.BindArena { plan_index; dst }
  | op -> err "bad opcode %d" op

let check_count what n =
  if n < 0 || n > 10_000_000 then err "implausible %s count %d" what n;
  n

let r_guard r : Exe.guard =
  let g_arg = r_i32 r in
  let g_name = r_string r in
  let g_dtype =
    match r_u8 r with
    | 0 -> None
    | 1 -> Some (dtype_of_code (r_u8 r))
    | c -> err "bad guard dtype tag %d" c
  in
  let ndims = r_i32 r in
  if ndims < 0 || ndims > 32 then err "bad guard rank %d" ndims;
  let g_dims =
    Array.init ndims (fun _ ->
        match r_u8 r with
        | 0 -> Exe.Check_any
        | 1 -> Exe.Check_exact (r_i32 r)
        | 2 -> Exe.Check_eq (r_i32 r)
        | c -> err "bad guard dim tag %d" c)
  in
  { Exe.g_arg; g_name; g_dims; g_dtype }

let r_sym_expr r : Nimble_shape.Sym_expr.t =
  let s = r_string r in
  try Nimble_shape.Sym_expr.of_string s
  with Nimble_shape.Sym_expr.Parse_error msg -> err "bad plan expression: %s" msg

let r_plan r : Exe.plan =
  let p_func = r_i32 r in
  let device = r_i32 r in
  let align = r_i32 r in
  let nbinders = r_i32 r in
  if nbinders < 0 || nbinders > 1024 then err "bad plan binder count %d" nbinders;
  let binders =
    Array.init nbinders (fun _ ->
        let b_arg = r_i32 r in
        let b_dim = r_i32 r in
        let b_sym = r_i32 r in
        { Arena_plan.b_arg; b_dim; b_sym })
  in
  let nslots = r_i32 r in
  if nslots < 0 || nslots > 1_000_000 then err "bad plan slot count %d" nslots;
  let slots =
    Array.init nslots (fun _ ->
        let s_offset = r_sym_expr r in
        let s_size = r_sym_expr r in
        { Arena_plan.s_offset; s_size })
  in
  let total = r_sym_expr r in
  { Exe.p_func; p_arena = { Arena_plan.device; align; binders; slots; total } }

let of_bytes (s : string) : Exe.t =
  Fault.check "deserialize";
  let r = { buf = s; pos = 0 } in
  let m = String.sub s 0 (min (String.length magic) (String.length s)) in
  if not (String.equal m magic) then err "bad magic %S" m;
  r.pos <- String.length magic;
  let nconst = check_count "constant" (r_i32 r) in
  let constants = Array.init nconst (fun _ -> r_tensor r) in
  let npacked = check_count "packed" (r_i32 r) in
  let packed_names =
    Array.init npacked (fun _ ->
        let name = r_string r in
        let kind = if r_u8 r = 0 then `Kernel else `Shape_func in
        (name, kind))
  in
  let nfuncs = check_count "function" (r_i32 r) in
  let guards = Array.make nfuncs [||] in
  let funcs =
    Array.init nfuncs (fun fi ->
        let name = r_string r in
        let arity = r_i32 r in
        let register_count = r_i32 r in
        let ninstr = check_count "instruction" (r_i32 r) in
        let code = Array.init ninstr (fun _ -> r_instr r) in
        let nguards = check_count "guard" (r_i32 r) in
        guards.(fi) <- Array.init nguards (fun _ -> r_guard r);
        { Exe.name; arity; register_count; code })
  in
  let nplans = check_count "plan" (r_i32 r) in
  let plans = Array.init nplans (fun _ -> r_plan r) in
  let ntunes = check_count "tune" (r_i32 r) in
  let tunes =
    Array.init ntunes (fun _ ->
        let tn_kernel = r_string r in
        let tn_extent = r_i32 r in
        let tn_tile_m = r_i32 r in
        { Exe.tn_kernel; tn_extent; tn_tile_m })
  in
  let exe = Exe.create ~funcs ~constants ~packed_names in
  Exe.set_guards exe guards;
  Exe.set_plans exe plans;
  Exe.set_tunes exe tunes;
  exe

let save_file exe path =
  let oc = open_out_bin path in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () -> output_string oc (to_bytes exe))

let load_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> of_bytes (really_input_string ic (in_channel_length ic)))
