(** The VM interpreter (paper §5.2).

    A dispatch loop over the coarse-grained ISA: it checks the opcode,
    executes the corresponding logic and repeats. Kernel invocations
    dominate; everything else is bookkeeping whose cost the profiler
    separates out (Table 4). *)

open Nimble_tensor
module Fault = Nimble_fault.Fault
module Arena_plan = Nimble_shape.Arena_plan

exception Vm_error of string

let err fmt = Fmt.kstr (fun s -> raise (Vm_error s)) fmt

(* ------------------------- typed failures ------------------------- *)

type failure_kind = Shape_guard | Alloc | Kernel_trap | Shape_func | Internal

type failure = {
  fail_kind : failure_kind;
  fail_func : string;  (** VM function that was executing *)
  fail_pc : int;  (** program counter, [-1] for entry (guards, arity) *)
  fail_instr : string;  (** faulting instruction summary, [""] at entry *)
  fail_msg : string;
  fail_transient : bool;
      (** the fault was injected in transient mode: a retry may succeed *)
}

exception Vm_failure of failure

let kind_name = function
  | Shape_guard -> "shape_guard"
  | Alloc -> "alloc"
  | Kernel_trap -> "kernel_trap"
  | Shape_func -> "shape_func"
  | Internal -> "internal"

let pp_failure ppf f =
  Fmt.pf ppf "%s failure in %s%s: %s" (kind_name f.fail_kind) f.fail_func
    (if f.fail_pc < 0 then " at entry"
     else Fmt.str " at pc %d (%s)" f.fail_pc f.fail_instr)
    f.fail_msg

let internal_failure ~func msg =
  {
    fail_kind = Internal;
    fail_func = func;
    fail_pc = -1;
    fail_instr = "";
    fail_msg = msg;
    fail_transient = false;
  }

type t = {
  exe : Exe.t;
  profiler : Profiler.t;
  max_depth : int;  (** recursion guard for Invoke *)
  pooling : bool;
      (** reuse already-allocated chunks across top-level invocations — the
          runtime half of memory planning (paper: "reuse the already
          allocated memory chunks") *)
  arenas : (string, Storage.t) Hashtbl.t;
      (** storages reused across top-level invocations, keyed by allocation
          site; recursive frames always allocate fresh so concurrently-live
          frames never alias *)
  plan_arenas : (int, Storage.t) Hashtbl.t;
      (** persistent symbolic-plan arenas, keyed by plan index: [BindArena]
          reuses the retained storage whenever it is large enough for the
          request's bound dims, so steady-state serving allocates nothing
          (see [docs/MEMORY.md]) *)
  mutable on_instruction : (Isa.t -> unit) option;
      (** QoS hook (paper SS5.3): called before every instruction, letting a
          scheduler pause, deprioritize, or abort this inference in favor of
          a time-critical one (raise {!Preempted} to abort) *)
  mutable trace : Trace.t option;
      (** event recorder; when set, the dispatch loop emits spans for every
          instruction, kernel, shape function, allocation and device copy *)
  max_pool_bytes : int option;
      (** byte cap on pooled storage retained across invocations; exceeding
          it is an [Alloc] failure rather than an abort *)
  mutable pool_bytes : int;  (** bytes currently retained in [arenas] *)
}

exception Preempted

let create ?(max_depth = 100_000) ?(pooling = true) ?max_pool_bytes exe =
  if not (Exe.linked exe) then err "executable has unlinked packed functions";
  {
    exe;
    profiler = Profiler.create ();
    max_depth;
    pooling;
    arenas = Hashtbl.create 4;
    plan_arenas = Hashtbl.create 4;
    on_instruction = None;
    trace = None;
    max_pool_bytes;
    pool_bytes = 0;
  }

(** Install (or clear) the QoS instruction hook. *)
let set_instruction_hook vm hook = vm.on_instruction <- hook

(** Install (or clear) a structured event recorder. Tracing is off by
    default; with no trace installed the dispatch loop takes no extra
    clock reads. *)
let set_trace vm trace = vm.trace <- trace

let trace vm = vm.trace

(* Trace-span helpers: every [record_*] is a no-op when no trace is
   installed, so the hot loop only pays for observability when asked. *)

let shapes_arg tensors =
  String.concat ";" (List.map (fun t -> Shape.to_string (Tensor.shape t)) tensors)

let dispatch_args () =
  match Nimble_codegen.Dispatch.last_selection () with
  | None -> []
  | Some (dname, sel) ->
      let which, residue, extent =
        match sel with
        | Nimble_codegen.Dispatch.Hit r -> ("hit", Some r, None)
        | Nimble_codegen.Dispatch.Miss r -> ("miss", Some r, None)
        | Nimble_codegen.Dispatch.Extern -> ("extern", None, None)
        | Nimble_codegen.Dispatch.Tuned m -> ("tuned", None, Some m)
      in
      ("dispatch", Trace.Str which)
      :: ("dispatch_table", Trace.Str dname)
      :: ((match residue with Some r -> [ ("residue", Trace.Int r) ] | None -> [])
         @ match extent with Some m -> [ ("extent", Trace.Int m) ] | None -> [])

let now () = Unix.gettimeofday ()

(* Bind a packed function's output to its destination register. The
   kernel wrote [dst] in place (the destination-passing half of
   invoke_mut), or handed back an exact-extent result for an upper-bound
   output, which replaces its bound. *)
let store_output ~upper_bound (dst : Obj.placed) (res : Tensor.t) : Obj.t =
  if res == dst.Obj.data then Obj.Tensor dst
  else if upper_bound then
    if Tensor.numel res <= Tensor.numel dst.Obj.data then Obj.Tensor { dst with Obj.data = res }
    else err "upper-bound output larger than its bound"
  else
    err "kernel output shape %a does not match allocation %a" Shape.pp
      (Tensor.shape res) Shape.pp
      (Tensor.shape dst.Obj.data)

let storage_bytes (shape_t : Tensor.t) (dtype : Dtype.t) ~alignment =
  let dims = Tensor.to_shape shape_t in
  let n = Array.fold_left ( * ) 1 dims in
  let b = n * Dtype.size_in_bytes dtype in
  (b + alignment - 1) / alignment * alignment

(* ------------- symbolic memory plans (docs/MEMORY.md) ------------- *)

(* Evaluate a plan's binders against argument shapes ([shape_of_arg i] is
   argument [i]'s shape when it is a tensor). Returns a dim lookup for
   [Sym_expr.eval], or a message naming the binder that could not be
   satisfied. *)
let bind_plan_dims (p : Arena_plan.t) (shape_of_arg : int -> int array option) :
    (int -> int, string) result =
  let env = Hashtbl.create 4 in
  let missing = ref None in
  Array.iter
    (fun { Arena_plan.b_arg; b_dim; b_sym } ->
      if !missing = None then
        match shape_of_arg b_arg with
        | Some shape when b_dim < Array.length shape ->
            Hashtbl.replace env b_sym shape.(b_dim)
        | Some shape ->
            missing :=
              Some
                (Fmt.str "plan binder: argument %d has rank %d, needs dim %d" b_arg
                   (Array.length shape) b_dim)
        | None ->
            missing := Some (Fmt.str "plan binder: argument %d is not a tensor" b_arg))
    p.Arena_plan.binders;
  match !missing with
  | Some msg -> Error msg
  | None ->
      Ok
        (fun s ->
          match Hashtbl.find_opt env s with
          | Some v -> v
          | None -> err "plan references unbound symbolic dim s%d" s)

(* Acquire the arena behind [plan_index]: with [persistent] (pooling,
   depth 0), reuse the retained per-plan storage whenever it is already
   large enough — the serve-time fast path that allocates nothing — and
   grow or create it otherwise; without, allocate fresh. Returns the
   storage and whether it was a reuse. *)
let acquire_plan_arena vm ~persistent ~plan_index ~device ~bytes :
    Storage.t * bool =
  if persistent then
    match Hashtbl.find_opt vm.plan_arenas plan_index with
    | Some cached when cached.Storage.bytes >= bytes -> (cached, true)
    | prev ->
        Fault.check "storage_alloc";
        let retained =
          match prev with
          | Some old -> vm.pool_bytes - old.Storage.bytes
          | None -> vm.pool_bytes
        in
        (match vm.max_pool_bytes with
        | Some cap when retained + bytes > cap ->
            err "storage pool byte cap exceeded: %d retained + %d > %d" retained
              bytes cap
        | _ -> ());
        Nimble_device.Pool.record_alloc vm.profiler.Profiler.pool device ~bytes;
        let fresh = Storage.create ~device ~bytes ~is_arena:true in
        vm.pool_bytes <- retained + bytes;
        Hashtbl.replace vm.plan_arenas plan_index fresh;
        (fresh, false)
  else begin
    Fault.check "storage_alloc";
    Nimble_device.Pool.record_alloc vm.profiler.Profiler.pool device ~bytes;
    (Storage.create ~device ~bytes ~is_arena:true, false)
  end

(** A reusable execution context: the top-level register frame for each
    entry function, kept across invocations so a steady-state caller (the
    serving engine's VM workers, the bench loops) re-enters without
    allocating a fresh frame. Frames are keyed by function index, so a
    context is only meaningful against the interpreter it was handed to
    first. Recursive [Invoke] frames are always fresh — only the depth-0
    frame is reused. *)
type ctx = {
  frames : (int, Obj.t array) Hashtbl.t;
  mutable frame_reuses : int;  (** invocations that skipped the frame alloc *)
}

let context () = { frames = Hashtbl.create 2; frame_reuses = 0 }

let frame_reuses c = c.frame_reuses

(* -------------------- gradual-typing entry guards -------------------- *)

(* Residual runtime checks for what static inference could not resolve
   (paper §4.1): concrete dims must match exactly, [Any] dims pass, and
   identical-[Any] dims ([Check_eq s]) must agree across every argument
   that shares symbol [s]. Violations surface as [Shape_guard] failures
   naming the argument and dimension. Only depth-0 (API-boundary)
   invocations are guarded: internal calls were checked by the compiler. *)
let check_guards (f : Exe.vmfunc) (gs : Exe.guard array) (args : Obj.t array) =
  (* symbol -> first observed (extent, parameter name, dim index) *)
  let syms : (int, int * string * int) Hashtbl.t = Hashtbl.create 4 in
  let guard_fail fmt =
    Fmt.kstr
      (fun msg ->
        raise
          (Vm_failure
             {
               fail_kind = Shape_guard;
               fail_func = f.Exe.name;
               fail_pc = -1;
               fail_instr = "entry";
               fail_msg = msg;
               fail_transient = false;
             }))
      fmt
  in
  Array.iter
    (fun (g : Exe.guard) ->
      match args.(g.Exe.g_arg) with
      | Obj.Tensor p ->
          let shape = Tensor.shape p.Obj.data in
          let declared = Array.length g.Exe.g_dims in
          if Array.length shape <> declared then
            guard_fail "argument %d (%s): rank %d where %d was declared"
              g.Exe.g_arg g.Exe.g_name (Array.length shape) declared;
          (match g.Exe.g_dtype with
          | Some dt when not (Dtype.equal dt (Tensor.dtype p.Obj.data)) ->
              guard_fail "argument %d (%s): dtype %a where %a was declared"
                g.Exe.g_arg g.Exe.g_name Dtype.pp
                (Tensor.dtype p.Obj.data)
                Dtype.pp dt
          | _ -> ());
          Array.iteri
            (fun i check ->
              let n = shape.(i) in
              match check with
              | Exe.Check_any -> ()
              | Exe.Check_exact m ->
                  if n <> m then
                    guard_fail "argument %d (%s): dim %d is %d where %d was declared"
                      g.Exe.g_arg g.Exe.g_name i n m
              | Exe.Check_eq s -> (
                  match Hashtbl.find_opt syms s with
                  | None -> Hashtbl.replace syms s (n, g.Exe.g_name, i)
                  | Some (m, name0, i0) ->
                      if n <> m then
                        guard_fail
                          "argument %d (%s): dim %d is %d but must equal dim %d \
                           of %s (= %d)"
                          g.Exe.g_arg g.Exe.g_name i n i0 name0 m))
            g.Exe.g_dims
      | _ -> () (* non-tensor arguments (ADTs, closures) are not guarded *))
    gs

let rec exec_func (vm : t) ?ctx ~depth (fi : int) (args : Obj.t array) : Obj.t =
  if depth > vm.max_depth then err "VM recursion limit exceeded";
  let f = vm.exe.Exe.funcs.(fi) in
  if Array.length args <> f.Exe.arity then
    err "fn %s: expected %d arguments, got %d" f.Exe.name f.Exe.arity
      (Array.length args);
  (if depth = 0 then
     let gs = vm.exe.Exe.guards in
     if fi < Array.length gs && Array.length gs.(fi) > 0 then
       check_guards f gs.(fi) args);
  let nregs = Stdlib.max f.Exe.register_count (f.Exe.arity + 1) in
  let regs =
    match ctx with
    | Some c when depth = 0 -> (
        match Hashtbl.find_opt c.frames fi with
        | Some cached when Array.length cached = nregs ->
            (* refill, don't reallocate: behavior is identical to a fresh
               frame (every slot starts as [Obj.unit]) at zero allocation *)
            c.frame_reuses <- c.frame_reuses + 1;
            Array.fill cached 0 nregs Obj.unit;
            cached
        | _ ->
            let fresh = Array.make nregs Obj.unit in
            Hashtbl.replace c.frames fi fresh;
            fresh)
    | _ -> Array.make nregs Obj.unit
  in
  Array.blit args 0 regs 0 (Array.length args);
  (* per-frame slot offsets of bound symbolic plans: filled by [BindArena],
     read by planned [AllocTensorReg]; frame-local so recursive frames with
     different bound dims never see each other's offsets *)
  let plan_offsets : (int, int array) Hashtbl.t Lazy.t = lazy (Hashtbl.create 2) in
  let prof = vm.profiler in
  let set_reg i (o : Obj.t) =
    (* overwriting the last reference releases the old object *)
    (match regs.(i) with
    | Obj.Tensor p ->
        Nimble_device.Pool.record_free prof.Profiler.pool p.Obj.device
          ~bytes:(Tensor.size_in_bytes p.Obj.data)
    | Obj.Storage s when s.Storage.live -> ()
    | _ -> ());
    regs.(i) <- o
  in
  let get i = regs.(i) in
  let code = f.Exe.code in
  let pc = ref 0 in
  let result = ref None in
  while !result = None do
    if !pc < 0 || !pc >= Array.length code then
      err "fn %s: program counter %d out of bounds" f.Exe.name !pc;
    let instr = code.(!pc) in
    (match vm.on_instruction with Some hook -> hook instr | None -> ());
    Profiler.count prof instr;
    let instr_ts = match vm.trace with Some tr -> Trace.now_us tr | None -> 0.0 in
    (* classify anything the current instruction throws into a typed
       [failure]; the QoS hook above runs outside this so [Preempted]
       (and hook exceptions) propagate unwrapped, per the hook contract *)
    let fail_here ?(transient = false) kind msg =
      raise
        (Vm_failure
           {
             fail_kind = kind;
             fail_func = f.Exe.name;
             fail_pc = !pc;
             fail_instr = Fmt.str "%a" Isa.pp instr;
             fail_msg = msg;
             fail_transient = transient;
           })
    in
    let instr_kind () =
      match instr with
      | Isa.InvokePacked { packed_index; _ } -> (
          match (Exe.get_packed vm.exe packed_index).Exe.kind with
          | `Kernel -> Kernel_trap
          | `Shape_func -> Shape_func
          | exception _ -> Internal)
      | Isa.AllocStorage _ | Isa.AllocTensor _ | Isa.AllocTensorReg _
      | Isa.BindArena _ ->
          Alloc
      | _ -> Internal
    in
    (try
       match instr with
    | Isa.Move { src; dst } ->
        regs.(dst) <- get src;
        incr pc
    | Isa.Ret { result = r } -> result := Some (get r)
    | Isa.Invoke { func_index; args; dst } ->
        let argv = Array.map get args in
        regs.(dst) <- exec_func vm ~depth:(depth + 1) func_index argv;
        incr pc
    | Isa.InvokeClosure { closure; args; dst } ->
        let func_index, captured = Obj.to_closure (get closure) in
        let argv = Array.append captured (Array.map get args) in
        regs.(dst) <- exec_func vm ~depth:(depth + 1) func_index argv;
        incr pc
    | Isa.InvokePacked { packed_index; args; outs; upper_bound } ->
        let packed = Exe.get_packed vm.exe packed_index in
        Fault.check
          (match packed.Exe.kind with
          | `Kernel -> "kernel_launch"
          | `Shape_func -> "shape_func");
        let placed_ins = Array.map (fun r -> Obj.to_placed (get r)) args in
        let placed_outs = Array.map (fun r -> Obj.to_placed (get r)) outs in
        (* all operands of a packed call share one device (paper §4.4) *)
        let dev =
          if Array.length placed_outs > 0 then placed_outs.(0).Obj.device
          else Nimble_device.Device.cpu
        in
        Array.iteri
          (fun i (p : Obj.placed) ->
            if not (Nimble_device.Device.equal p.Obj.device dev) then
              err "packed %s: input %d on %a but kernel on %a (missing device_copy?)"
                packed.Exe.packed_name i Nimble_device.Device.pp p.Obj.device
                Nimble_device.Device.pp dev)
          placed_ins;
        let ts_us =
          match vm.trace with
          | Some tr ->
              Nimble_codegen.Dispatch.clear_last_selection ();
              Trace.now_us tr
          | None -> 0.0
        in
        let par_before = Nimble_parallel.Parallel.snapshot () in
        let t0 = now () in
        let results =
          packed.Exe.run
            (Array.to_list (Array.map (fun p -> p.Obj.data) placed_ins))
            (Array.map (fun p -> p.Obj.data) placed_outs)
        in
        let dt = now () -. t0 in
        let par =
          Nimble_parallel.Parallel.diff ~before:par_before
            ~after:(Nimble_parallel.Parallel.snapshot ())
        in
        (match packed.Exe.kind with
        | `Kernel ->
            prof.Profiler.kernel_seconds <- prof.Profiler.kernel_seconds +. dt;
            prof.Profiler.kernel_invocations <- prof.Profiler.kernel_invocations + 1
        | `Shape_func ->
            prof.Profiler.shape_func_invocations <-
              prof.Profiler.shape_func_invocations + 1);
        Profiler.record_kernel ~par prof packed.Exe.packed_name ~seconds:dt;
        (match vm.trace with
        | Some tr ->
            let par_args =
              if par.Nimble_parallel.Parallel.sn_par_runs > 0 then
                [
                  ("parallel", Trace.Bool true);
                  ("par_workers", Trace.Int par.Nimble_parallel.Parallel.sn_workers);
                  ("par_chunks", Trace.Int par.Nimble_parallel.Parallel.sn_chunks);
                  ("par_runs", Trace.Int par.Nimble_parallel.Parallel.sn_par_runs);
                ]
              else [ ("parallel", Trace.Bool false) ]
            in
            let cat, extra =
              match packed.Exe.kind with
              | `Kernel -> (Trace.cat_kernel, par_args @ dispatch_args ())
              | `Shape_func ->
                  ( Trace.cat_shape_func,
                    [
                      ( "mode",
                        Trace.Str (Option.value ~default:"?" packed.Exe.mode) );
                    ] )
            in
            Trace.record tr ~name:packed.Exe.packed_name ~cat ~ts_us
              ~dur_us:(dt *. 1e6)
              ([
                 ( "in_shapes",
                   Trace.Str
                     (shapes_arg
                        (Array.to_list (Array.map (fun p -> p.Obj.data) placed_ins))) );
                 ("out_shapes", Trace.Str (shapes_arg (Array.to_list results)));
                 ("upper_bound", Trace.Bool upper_bound);
               ]
              @ extra)
        | None -> ());
        if Array.length results <> Array.length outs then
          err "packed %s: %d results for %d outputs" packed.Exe.packed_name
            (Array.length results) (Array.length outs);
        Array.iteri
          (fun i res -> regs.(outs.(i)) <- store_output ~upper_bound placed_outs.(i) res)
          results;
        incr pc
    | Isa.AllocStorage { size; alignment; dtype; device_id; arena; dst } ->
        let t0 = now () in
        Fault.check "storage_alloc";
        let shape_t = Obj.to_tensor (get size) in
        let bytes = storage_bytes shape_t dtype ~alignment in
        let device = Nimble_device.Device.of_id device_id in
        (* every allocation request is counted; pooled hits just cost less *)
        Nimble_device.Pool.record_alloc prof.Profiler.pool device ~bytes;
        let storage, pool_hit =
          if vm.pooling && depth = 0 then begin
            let key = Fmt.str "%d:%d:%d:%d" fi !pc device_id bytes in
            match Hashtbl.find_opt vm.arenas key with
            | Some cached -> (cached, true)
            | None ->
                (match vm.max_pool_bytes with
                | Some cap when vm.pool_bytes + bytes > cap ->
                    err "storage pool byte cap exceeded: %d retained + %d > %d"
                      vm.pool_bytes bytes cap
                | _ -> ());
                let fresh = Storage.create ~device ~bytes ~is_arena:arena in
                vm.pool_bytes <- vm.pool_bytes + bytes;
                Hashtbl.replace vm.arenas key fresh;
                (fresh, false)
          end
          else (Storage.create ~device ~bytes ~is_arena:arena, false)
        in
        if pool_hit then prof.Profiler.pool_hits <- prof.Profiler.pool_hits + 1;
        let dt = now () -. t0 in
        prof.Profiler.alloc_seconds <- prof.Profiler.alloc_seconds +. dt;
        (match vm.trace with
        | Some tr ->
            Trace.record tr ~name:"alloc_storage" ~cat:Trace.cat_alloc
              ~ts_us:instr_ts ~dur_us:(dt *. 1e6)
              [
                ("bytes", Trace.Int bytes);
                ("device", Trace.Int device_id);
                ("pool_hit", Trace.Bool pool_hit);
                ("arena", Trace.Bool arena);
              ]
        | None -> ());
        set_reg dst (Obj.Storage storage);
        incr pc
    | Isa.AllocTensor { storage; offset; shape; dtype; dst } ->
        let t0 = now () in
        let s = Obj.to_storage (get storage) in
        let data = Storage.alloc_tensor s ~offset ~shape ~dtype in
        let dt = now () -. t0 in
        prof.Profiler.alloc_seconds <- prof.Profiler.alloc_seconds +. dt;
        (match vm.trace with
        | Some tr ->
            Trace.record tr ~name:"alloc_tensor" ~cat:Trace.cat_alloc
              ~ts_us:instr_ts ~dur_us:(dt *. 1e6)
              [
                ("bytes", Trace.Int (Tensor.size_in_bytes data));
                ("shape", Trace.Str (Shape.to_string (Tensor.shape data)));
              ]
        | None -> ());
        set_reg dst (Obj.Tensor { Obj.data; device = s.Storage.device });
        incr pc
    | Isa.AllocTensorReg { storage; offset; shape; dtype; plan; slot; dst } ->
        let t0 = now () in
        let s = Obj.to_storage (get storage) in
        let dims = Tensor.to_shape (Obj.to_tensor (get shape)) in
        let offset =
          if plan < 0 then offset
          else
            match Hashtbl.find_opt (Lazy.force plan_offsets) plan with
            | Some offs when slot >= 0 && slot < Array.length offs -> offs.(slot)
            | Some offs ->
                err "AllocTensorReg: slot %d outside plan%d's %d slots" slot plan
                  (Array.length offs)
            | None -> err "AllocTensorReg: plan%d used before bind_arena" plan
        in
        let data = Storage.alloc_tensor s ~offset ~shape:dims ~dtype in
        let dt = now () -. t0 in
        prof.Profiler.alloc_seconds <- prof.Profiler.alloc_seconds +. dt;
        (match vm.trace with
        | Some tr ->
            Trace.record tr ~name:"alloc_tensor_reg" ~cat:Trace.cat_alloc
              ~ts_us:instr_ts ~dur_us:(dt *. 1e6)
              [
                ("bytes", Trace.Int (Tensor.size_in_bytes data));
                ("shape", Trace.Str (Shape.to_string (Tensor.shape data)));
              ]
        | None -> ());
        set_reg dst (Obj.Tensor { Obj.data; device = s.Storage.device });
        incr pc
    | Isa.AllocADT { tag; fields; dst } ->
        set_reg dst (Obj.Adt { tag; fields = Array.map get fields });
        incr pc
    | Isa.AllocClosure { func_index; captured; dst } ->
        set_reg dst (Obj.Closure { func_index; captured = Array.map get captured });
        incr pc
    | Isa.GetField { obj; index; dst } ->
        let _, fields = Obj.to_adt (get obj) in
        if index < 0 || index >= Array.length fields then
          err "GetField: index %d out of bounds" index;
        regs.(dst) <- fields.(index);
        incr pc
    | Isa.GetTag { obj; dst } ->
        let tag, _ = Obj.to_adt (get obj) in
        regs.(dst) <- Obj.int tag;
        incr pc
    | Isa.If { test; target; true_offset; false_offset } ->
        if Obj.scalar_value (get test) = Obj.scalar_value (get target) then
          pc := !pc + true_offset
        else pc := !pc + false_offset
    | Isa.Goto off -> pc := !pc + off
    | Isa.LoadConst { index; dst } ->
        if index < 0 || index >= Array.length vm.exe.Exe.constants then
          err "LoadConst: bad constant index %d" index;
        (* constants stay in the pool; loading shares, no copy (paper §5.2) *)
        regs.(dst) <- Obj.tensor vm.exe.Exe.constants.(index);
        incr pc
    | Isa.LoadConsti { value; dst } ->
        set_reg dst (Obj.Int value);
        incr pc
    | Isa.DeviceCopy { src; dst_device_id; dst } ->
        let p = Obj.to_placed (get src) in
        let device = Nimble_device.Device.of_id dst_device_id in
        let data = Tensor.copy p.Obj.data in
        Nimble_device.Pool.record_transfer prof.Profiler.pool ~dst:device
          ~bytes:(Tensor.size_in_bytes data);
        (match vm.trace with
        | Some tr ->
            Trace.record tr ~name:"device_copy" ~cat:Trace.cat_device_copy
              ~ts_us:instr_ts
              ~dur_us:(Trace.now_us tr -. instr_ts)
              [
                ("bytes", Trace.Int (Tensor.size_in_bytes data));
                ("src_device", Trace.Int p.Obj.device.Nimble_device.Device.id);
                ("dst_device", Trace.Int dst_device_id);
              ]
        | None -> ());
        set_reg dst (Obj.Tensor { Obj.data; device });
        incr pc
    | Isa.ShapeOf { tensor; dst } ->
        let p = Obj.to_placed (get tensor) in
        (* shape metadata is host-accessible regardless of placement *)
        set_reg dst (Obj.tensor (Tensor.shape_tensor p.Obj.data));
        incr pc
    | Isa.ReshapeTensor { tensor; shape; dst } ->
        let p = Obj.to_placed (get tensor) in
        let dims = Tensor.to_shape (Obj.to_tensor (get shape)) in
        set_reg dst (Obj.Tensor { Obj.data = Tensor.reshape p.Obj.data dims; device = p.Obj.device });
        incr pc
    | Isa.Fatal msg -> err "fatal: %s" msg
    | Isa.BindArena { plan_index; dst } ->
        let t0 = now () in
        if plan_index < 0 || plan_index >= Array.length vm.exe.Exe.plans then
          err "BindArena: bad plan index %d" plan_index;
        let p = vm.exe.Exe.plans.(plan_index).Exe.p_arena in
        let shape_of_arg i =
          if i < 0 || i >= Array.length args then None
          else
            match args.(i) with
            | Obj.Tensor pl -> Some (Tensor.shape pl.Obj.data)
            | _ -> None
        in
        let lookup =
          match bind_plan_dims p shape_of_arg with
          | Ok f -> f
          | Error msg -> err "%s" msg
        in
        let bytes = Nimble_shape.Sym_expr.eval lookup p.Arena_plan.total in
        if bytes < 0 then err "BindArena: negative arena size %d" bytes;
        let offsets =
          Array.map
            (fun (s : Arena_plan.slot) -> Nimble_shape.Sym_expr.eval lookup s.s_offset)
            p.Arena_plan.slots
        in
        Hashtbl.replace (Lazy.force plan_offsets) plan_index offsets;
        let device = Nimble_device.Device.of_id p.Arena_plan.device in
        let persistent = vm.pooling && depth = 0 in
        let storage, reused =
          acquire_plan_arena vm ~persistent ~plan_index ~device ~bytes
        in
        if reused then
          prof.Profiler.arena_rebinds <- prof.Profiler.arena_rebinds + 1;
        let dt = now () -. t0 in
        prof.Profiler.alloc_seconds <- prof.Profiler.alloc_seconds +. dt;
        (match vm.trace with
        | Some tr ->
            Trace.record tr ~name:"bind_arena" ~cat:Trace.cat_alloc
              ~ts_us:instr_ts ~dur_us:(dt *. 1e6)
              [
                ("bytes", Trace.Int bytes);
                ("device", Trace.Int p.Arena_plan.device);
                ("reused", Trace.Bool reused);
                ("plan", Trace.Int plan_index);
              ]
        | None -> ());
        set_reg dst (Obj.Storage storage);
        incr pc
     with
     | (Vm_failure _ | Preempted) as e -> raise e
     | Fault.Injected { point; mode } ->
         fail_here
           ~transient:(mode = Fault.Transient)
           (instr_kind ())
           (Fmt.str "injected fault at %s" point)
     | Nimble_shape.Shape_func.Shape_func_error msg ->
         fail_here Shape_func msg
     | Vm_error msg -> fail_here (instr_kind ()) msg
     | Obj.Object_error msg -> fail_here Internal msg
     | (Stack_overflow | Out_of_memory) as e ->
         (* resource exhaustion stays fatal *)
         raise e
     | e -> fail_here (instr_kind ()) (Printexc.to_string e));
    (match vm.trace with
    | Some tr ->
        Trace.record tr
          ~name:(Isa.opcode_name (Isa.opcode instr))
          ~cat:Trace.cat_instr ~ts_us:instr_ts
          ~dur_us:(Trace.now_us tr -. instr_ts)
          []
    | None -> ())
  done;
  Option.get !result

(* With pooling, result tensors may alias pooled buffers that the next
   invocation will overwrite; copy them out at the API boundary. *)
let rec escape_pool (o : Obj.t) : Obj.t =
  match o with
  | Obj.Tensor p -> Obj.Tensor { p with Obj.data = Tensor.copy p.Obj.data }
  | Obj.Adt { tag; fields } -> Obj.Adt { tag; fields = Array.map escape_pool fields }
  | Obj.Storage _ | Obj.Closure _ | Obj.Int _ -> o

(** Invoke a VM function by name, surfacing failures as typed values:
    [Error failure] instead of an exception. Anything that escapes the
    dispatch loop (including pre-loop arity / recursion errors) is
    classified; [Preempted] and caller API misuse (unknown function name)
    still raise. Records a [vm.fail] trace span on the error path. *)
let invoke_result ?(func = "main") ?ctx vm (args : Obj.t list) :
    (Obj.t, failure) result =
  let fi = Exe.func_index vm.exe func in
  let ts_us = match vm.trace with Some tr -> Trace.now_us tr | None -> 0.0 in
  let t0 = now () in
  let finish_failure fl =
    let dt = now () -. t0 in
    vm.profiler.Profiler.total_seconds <-
      vm.profiler.Profiler.total_seconds +. dt;
    (match vm.trace with
    | Some tr ->
        Trace.record tr ~name:"vm.fail" ~cat:Trace.cat_invoke ~ts_us
          ~dur_us:(dt *. 1e6)
          [
            ("kind", Trace.Str (kind_name fl.fail_kind));
            ("func", Trace.Str fl.fail_func);
            ("pc", Trace.Int fl.fail_pc);
            ("instr", Trace.Str fl.fail_instr);
            ("transient", Trace.Bool fl.fail_transient);
            ("msg", Trace.Str fl.fail_msg);
          ]
    | None -> ());
    Error fl
  in
  match exec_func vm ?ctx ~depth:0 fi (Array.of_list args) with
  | result ->
      let result = if vm.pooling then escape_pool result else result in
      let dt = now () -. t0 in
      vm.profiler.Profiler.total_seconds <-
        vm.profiler.Profiler.total_seconds +. dt;
      (match vm.trace with
      | Some tr ->
          Trace.record tr ~name:("invoke:" ^ func) ~cat:Trace.cat_invoke ~ts_us
            ~dur_us:(dt *. 1e6) []
      | None -> ());
      Ok result
  | exception Vm_failure fl -> finish_failure fl
  | exception Vm_error msg ->
      (* pre-loop entry errors: bad arity, recursion limit at depth 0 *)
      finish_failure (internal_failure ~func msg)

(** Invoke a VM function by name.
    @raise Vm_error on any execution failure (the [fail_msg] of the
    underlying typed failure, verbatim); use {!invoke_result} for the
    structured channel. *)
let invoke ?func ?ctx vm (args : Obj.t list) : Obj.t =
  match invoke_result ?func ?ctx vm args with
  | Ok result -> result
  | Error fl -> raise (Vm_error fl.fail_msg)

(** Convenience: tensor inputs, tensor output. @raise Vm_error on failure. *)
let run_tensors ?func ?ctx vm inputs =
  let args = List.map (fun t -> Obj.tensor t) inputs in
  Obj.to_tensor (invoke ?func ?ctx vm args)

(** Pre-bind the persistent arenas of [func]'s symbolic plans against the
    shapes [shape_of_arg] yields (e.g. a serve bucket's upper bound), so
    subsequent invocations whose bound dims fit rebind instead of
    allocating. Plans whose binders the shapes cannot satisfy are skipped,
    and warming failures (byte-cap, injected faults) are swallowed — the
    actual [BindArena] will surface them through the typed channel.
    Returns the number of arenas bound. No-op (0) when pooling is off. *)
let warm_arenas ?(func = "main") vm (shape_of_arg : int -> int array option) :
    int =
  if not vm.pooling then 0
  else begin
    let fi = Exe.func_index vm.exe func in
    let bound = ref 0 in
    Array.iteri
      (fun plan_index { Exe.p_func; p_arena = p } ->
        if p_func = fi then
          match bind_plan_dims p shape_of_arg with
          | Error _ -> ()
          | Ok lookup -> (
              try
                let bytes = Nimble_shape.Sym_expr.eval lookup p.Arena_plan.total in
                if bytes >= 0 then begin
                  let device = Nimble_device.Device.of_id p.Arena_plan.device in
                  let (_ : Storage.t * bool) =
                    acquire_plan_arena vm ~persistent:true ~plan_index ~device
                      ~bytes
                  in
                  incr bound
                end
              with Vm_error _ | Fault.Injected _ -> ()))
      vm.exe.Exe.plans;
    !bound
  end

let profiler vm = vm.profiler
