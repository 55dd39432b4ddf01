(** Bytecode emitter: lowers a fully-processed IR module (post fusion,
    manifest alloc, device placement, memory planning) into a VM executable.

    Virtual registers are allocated fresh per value (the paper's "infinite
    set of virtual registers" that simplifies allocation, SSA-style).
    Nested non-primitive functions are lambda-lifted into closures. *)

open Nimble_tensor
open Nimble_ir
open Nimble_passes
open Nimble_vm

exception Emit_error of string

let err fmt = Fmt.kstr (fun s -> raise (Emit_error s)) fmt

type options = {
  dense_dispatch : int option;
      (** [Some k]: symbolic residue dispatch with [k] generated kernels for
          dense ops; [None]: reference (library-style) dense kernel *)
  profile_extern : bool;
      (** profile generated vs third-party-library kernels at compile time
          and let the dispatch function route to whichever is faster
          (paper SS4.5) *)
  guards : bool;
      (** emit gradual-typing entry guards (paper §4.1): residual checks on
          each named function's tensor parameters — concrete dims, identical-
          [Any] equalities, dtypes — enforced by the VM at the API boundary *)
}

let default_options =
  { dense_dispatch = Some 8; profile_extern = false; guards = true }

type state = {
  opts : options;
  constants : Tensor.t list ref;  (** reversed *)
  mutable n_constants : int;
  packed : (string, int) Hashtbl.t;  (** name -> index *)
  packed_list : Exe.packed list ref;  (** reversed *)
  mutable funcs : (string * Expr.fn option) list;
      (** function slots, in index order; [None] = being compiled *)
  compiled : (string, Exe.vmfunc) Hashtbl.t;
  mutable closure_counter : int;
  mutable plans : Exe.plan list;  (** symbolic memory plans, reversed *)
  mutable n_plans : int;
}

let create_state opts =
  {
    opts;
    constants = ref [];
    n_constants = 0;
    packed = Hashtbl.create 32;
    packed_list = ref [];
    funcs = [];
    compiled = Hashtbl.create 8;
    closure_counter = 0;
    plans = [];
    n_plans = 0;
  }

(* Constants are deduplicated by physical identity: model builders share
   weight tensors across call sites (an LSTM cell's weights appear once per
   recursive function), so the pool stores each once. *)
let add_constant st t =
  let rec find i = function
    | [] -> None
    | c :: _ when c == t -> Some (st.n_constants - 1 - i)
    | _ :: rest -> find (i + 1) rest
  in
  match find 0 !(st.constants) with
  | Some idx -> idx
  | None ->
      st.constants := t :: !(st.constants);
      let idx = st.n_constants in
      st.n_constants <- st.n_constants + 1;
      idx

let func_index st name =
  let rec go i = function
    | [] -> err "unknown function @%s" name
    | (n, _) :: _ when String.equal n name -> i
    | _ :: rest -> go (i + 1) rest
  in
  go 0 st.funcs

(* ------------------------------------------------------------------ *)
(* Packed function registration                                        *)
(* ------------------------------------------------------------------ *)

(* Packed functions are deduplicated by name: the first call site builds
   the implementation ([impl] runs only then), later ones share its index. *)
let register_packed st name (impl : unit -> Exe.packed) =
  match Hashtbl.find_opt st.packed name with
  | Some idx -> idx
  | None ->
      let idx = List.length !(st.packed_list) in
      Hashtbl.replace st.packed name idx;
      st.packed_list := impl () :: !(st.packed_list);
      idx

let kernel_of_primitive st (prim : Expr.fn) =
  let name = Fusion.primitive_name prim in
  register_packed st name (fun () ->
      let dispatch =
        match st.opts.dense_dispatch with
        | Some k when List.mem "dense" (Fusion.primitive_ops prim) ->
            let d = Nimble_codegen.Dispatch.create ~name ~num_kernels:k () in
            if
              st.opts.profile_extern
              && Nimble_codegen.Tuner.profile_extern ~n:64 ~k:64 () = `Extern
            then
              Nimble_codegen.Dispatch.set_extern d
                Nimble_codegen.Dense_kernels.extern_library_kernel;
            Some d
        | _ -> None
      in
      { Exe.packed_name = name; kind = `Kernel; mode = None;
        run = Nimble_codegen.Lower.lower ?dispatch ~name prim; dispatch })

(* The mode only decides what the shape function receives: the
   argument values (data-dependent and proven groups) or their shapes. *)
let shape_func_of_primitive st (prim : Expr.fn) ~(mode : string) =
  let name = Fusion.primitive_name prim ^ "$shape" in
  register_packed st name (fun () ->
      let input =
        match mode with
        | "proven" | "data_dep" -> Nimble_shape.Shape_func.with_data
        | "data_indep" | "upper_bound" ->
            fun t -> Nimble_shape.Shape_func.shape_only (Tensor.to_shape t)
        | m -> err "unknown shape function mode %s" m
      in
      let f = Nimble_codegen.Lower.shape_func_of_primitive ~name prim in
      let fail fmt =
        Fmt.kstr (fun s -> raise (Nimble_codegen.Lower.Lower_error (name ^ ": " ^ s))) fmt
      in
      (* each shape goes into its i64 destination, checked once *)
      let write dsts i s =
        let d = dsts.(i) in
        match d.Tensor.buf with
        | Tensor.Ints b
          when Dtype.equal (Tensor.dtype d) Dtype.I64
               && Tensor.shape d = [| Array.length s |]
               && Array.length b = Array.length s ->
            Array.blit s 0 b 0 (Array.length s)
        | _ ->
            fail "shape %d of rank %d into a %a %a destination" i (Array.length s) Shape.pp
              (Tensor.shape d) Dtype.pp (Tensor.dtype d)
      in
      let run ins dsts =
        let shapes = f (List.map input ins) in
        if List.length shapes <> Array.length dsts then
          fail "%d shapes for %d destinations" (List.length shapes) (Array.length dsts);
        List.iteri (write dsts) shapes;
        dsts
      in
      { Exe.packed_name = name; kind = `Shape_func; mode = Some mode; run; dispatch = None })

(* ------------------------------------------------------------------ *)
(* Function compilation                                                *)
(* ------------------------------------------------------------------ *)

type fctx = {
  st : state;
  fname : string;
  regs : (int, int) Hashtbl.t;  (** vid -> register *)
  mutable next_reg : int;
  code : Isa.t Vec.t;
  mutable plan_regs : (int * int) list;
      (** register holding a [BindArena] result -> its plan index, so
          [plan_slot] tensor allocations can name their plan *)
}

let fresh_reg ctx =
  let r = ctx.next_reg in
  ctx.next_reg <- r + 1;
  r

let bind_var ctx (v : Expr.var) r = Hashtbl.replace ctx.regs v.Expr.vid r

let var_reg ctx (v : Expr.var) =
  match Hashtbl.find_opt ctx.regs v.Expr.vid with
  | Some r -> r
  | None -> err "%s: unbound variable %%%s#%d" ctx.fname v.Expr.vname v.Expr.vid

let emit ctx i = Vec.add_last ctx.code i
let here ctx = Vec.length ctx.code

let patch ctx idx f = Vec.set ctx.code idx (f (Vec.get ctx.code idx))

let dtype_attr attrs =
  match Attrs.find_str attrs "dtype" with
  | Some s -> Option.value ~default:Dtype.F32 (Dtype.of_string s)
  | None -> Dtype.F32

let rec compile_expr ctx (e : Expr.t) : int =
  match e with
  | Expr.Var v -> var_reg ctx v
  | Expr.Const t ->
      let idx = add_constant ctx.st t in
      let r = fresh_reg ctx in
      emit ctx (Isa.LoadConst { index = idx; dst = r });
      r
  | Expr.Global g ->
      (* a bare global used as a value becomes a capture-free closure *)
      let fi = func_index ctx.st g in
      let r = fresh_reg ctx in
      emit ctx (Isa.AllocClosure { func_index = fi; captured = [||]; dst = r });
      r
  | Expr.Op name -> err "%s: bare operator %s has no runtime value" ctx.fname name
  | Expr.Ctor c -> err "%s: bare constructor %s has no runtime value" ctx.fname c.Adt.ctor_name
  | Expr.Tuple es ->
      let fields = Array.of_list (List.map (compile_expr ctx) es) in
      let r = fresh_reg ctx in
      emit ctx (Isa.AllocADT { tag = Obj.tuple_tag; fields; dst = r });
      r
  | Expr.Proj (e1, i) ->
      let ro = compile_expr ctx e1 in
      let r = fresh_reg ctx in
      emit ctx (Isa.GetField { obj = ro; index = i; dst = r });
      r
  | Expr.Call { callee = Expr.Op name; args; attrs } -> compile_op ctx name args attrs
  | Expr.Call { callee = Expr.Ctor c; args; _ } ->
      let fields = Array.of_list (List.map (compile_expr ctx) args) in
      let r = fresh_reg ctx in
      emit ctx (Isa.AllocADT { tag = c.Adt.tag; fields; dst = r });
      r
  | Expr.Call { callee = Expr.Global g; args; _ } ->
      let argv = Array.of_list (List.map (compile_expr ctx) args) in
      let fi = func_index ctx.st g in
      let r = fresh_reg ctx in
      emit ctx (Isa.Invoke { func_index = fi; args = argv; dst = r });
      r
  | Expr.Call { callee = Expr.Fn prim; _ } when Fusion.is_primitive prim ->
      err "%s: primitive call outside invoke_mut (run manifest_alloc first)" ctx.fname
  | Expr.Call { callee; args; _ } ->
      let rc = compile_expr ctx callee in
      let argv = Array.of_list (List.map (compile_expr ctx) args) in
      let r = fresh_reg ctx in
      emit ctx (Isa.InvokeClosure { closure = rc; args = argv; dst = r });
      r
  | Expr.Fn fn -> compile_closure ctx fn
  | Expr.Let (v, Expr.Var w, body) ->
      (* alias: copy so kills on [w] cannot clobber [v] *)
      let r = fresh_reg ctx in
      emit ctx (Isa.Move { src = var_reg ctx w; dst = r });
      bind_var ctx v r;
      compile_expr ctx body
  | Expr.Let (v, bound, body) ->
      let r = compile_expr ctx bound in
      bind_var ctx v r;
      compile_expr ctx body
  | Expr.If (c, t, f) -> compile_if ctx c t f
  | Expr.Match (scrut, clauses) -> compile_match ctx scrut clauses

and compile_if ctx c t f =
  let rc = compile_expr ctx c in
  let rz = fresh_reg ctx in
  emit ctx (Isa.LoadConsti { value = 0L; dst = rz });
  let r_out = fresh_reg ctx in
  let if_idx = here ctx in
  (* test == 0 -> false branch; placeholder offsets patched below *)
  emit ctx (Isa.If { test = rc; target = rz; true_offset = 0; false_offset = 1 });
  (* false==0 means condition is false: true_offset jumps to the ELSE code *)
  let rt = compile_expr ctx t in
  emit ctx (Isa.Move { src = rt; dst = r_out });
  let goto_idx = here ctx in
  emit ctx (Isa.Goto 0);
  let else_start = here ctx in
  let rf = compile_expr ctx f in
  emit ctx (Isa.Move { src = rf; dst = r_out });
  let end_idx = here ctx in
  patch ctx if_idx (function
    | Isa.If { test; target; _ } ->
        Isa.If { test; target; true_offset = else_start - if_idx; false_offset = 1 }
    | i -> i);
  patch ctx goto_idx (function Isa.Goto _ -> Isa.Goto (end_idx - goto_idx) | i -> i);
  r_out

and compile_match ctx scrut clauses =
  let rs = compile_expr ctx scrut in
  let rtag = fresh_reg ctx in
  emit ctx (Isa.GetTag { obj = rs; dst = rtag });
  let r_out = fresh_reg ctx in
  let exit_gotos = ref [] in
  let pending_test = ref None in
  (* patch the previous clause's failing test to jump here *)
  let land_here () =
    match !pending_test with
    | Some test_idx ->
        let target = here ctx in
        patch ctx test_idx (function
          | Isa.If { test; target = tr; true_offset; _ } ->
              Isa.If { test; target = tr; true_offset; false_offset = target - test_idx }
          | i -> i);
        pending_test := None
    | None -> ()
  in
  List.iter
    (fun { Expr.pat; rhs } ->
      land_here ();
      (match pat with
      | Expr.Pwild -> ()
      | Expr.Pvar v ->
          let r = fresh_reg ctx in
          emit ctx (Isa.Move { src = rs; dst = r });
          bind_var ctx v r
      | Expr.Pctor (c, ps) ->
          let rt = fresh_reg ctx in
          emit ctx (Isa.LoadConsti { value = Int64.of_int c.Adt.tag; dst = rt });
          let test_idx = here ctx in
          emit ctx (Isa.If { test = rtag; target = rt; true_offset = 1; false_offset = 0 });
          pending_test := Some test_idx;
          List.iteri
            (fun i p ->
              match p with
              | Expr.Pwild -> ()
              | Expr.Pvar v ->
                  let r = fresh_reg ctx in
                  emit ctx (Isa.GetField { obj = rs; index = i; dst = r });
                  bind_var ctx v r
              | Expr.Pctor _ ->
                  err "%s: nested constructor patterns are not supported" ctx.fname)
            ps);
      let rr = compile_expr ctx rhs in
      emit ctx (Isa.Move { src = rr; dst = r_out });
      let g = here ctx in
      emit ctx (Isa.Goto 0);
      exit_gotos := g :: !exit_gotos)
    clauses;
  land_here ();
  emit ctx (Isa.Fatal "match failure: no clause matched");
  let end_idx = here ctx in
  List.iter
    (fun g -> patch ctx g (function Isa.Goto _ -> Isa.Goto (end_idx - g) | i -> i))
    !exit_gotos;
  r_out

and compile_op ctx name args attrs : int =
  match name with
  | "memory.alloc_storage" -> (
      match args with
      | [ size ] ->
          let rsize = compile_expr ctx size in
          let r = fresh_reg ctx in
          emit ctx
            (Isa.AllocStorage
               {
                 size = rsize;
                 alignment = Attrs.get_int ~default:64 attrs "alignment";
                 dtype = dtype_attr attrs;
                 device_id = Attrs.get_int ~default:0 attrs "device";
                 arena = Attrs.get_bool attrs "arena";
                 dst = r;
               });
          r
      | _ -> err "alloc_storage: expected 1 argument")
  | "memory.alloc_tensor" -> (
      match args with
      | [ storage; shape ] -> (
          let rstorage = compile_expr ctx storage in
          let r = fresh_reg ctx in
          match Attrs.find_ints attrs "const_shape" with
          | Some s ->
              emit ctx
                (Isa.AllocTensor
                   {
                     storage = rstorage;
                     offset = Attrs.get_int ~default:0 attrs "offset";
                     shape = Array.of_list s;
                     dtype = dtype_attr attrs;
                     dst = r;
                   });
              r
          | None ->
              let rshape = compile_expr ctx shape in
              let slot = Attrs.get_int ~default:(-1) attrs "plan_slot" in
              let plan =
                if slot < 0 then -1
                else
                  match List.assoc_opt rstorage ctx.plan_regs with
                  | Some p -> p
                  | None ->
                      err "%s: plan_slot %d on a storage that is not a bind_arena result"
                        ctx.fname slot
              in
              emit ctx
                (Isa.AllocTensorReg
                   {
                     storage = rstorage;
                     offset = Attrs.get_int ~default:0 attrs "offset";
                     shape = rshape;
                     dtype = dtype_attr attrs;
                     plan;
                     slot;
                     dst = r;
                   });
              r)
      | _ -> err "alloc_tensor: expected 2 arguments")
  | "memory.bind_arena" -> (
      match args with
      | [] ->
          let plan =
            match Nimble_shape.Arena_plan.of_attrs attrs with
            | Ok p_arena -> { Exe.p_func = func_index ctx.st ctx.fname; p_arena }
            | Error msg -> err "%s: bind_arena: %s" ctx.fname msg
          in
          let plan_index = ctx.st.n_plans in
          ctx.st.plans <- plan :: ctx.st.plans;
          ctx.st.n_plans <- ctx.st.n_plans + 1;
          let r = fresh_reg ctx in
          emit ctx (Isa.BindArena { plan_index; dst = r });
          ctx.plan_regs <- (r, plan_index) :: ctx.plan_regs;
          r
      | _ -> err "bind_arena: expected no arguments")
  | "memory.invoke_mut" -> (
      match args with
      | Expr.Fn prim :: rest when Fusion.is_primitive prim ->
          let n_in = Attrs.get_int attrs "num_inputs" in
          let ins = List.filteri (fun i _ -> i < n_in) rest in
          let outs = List.filteri (fun i _ -> i >= n_in) rest in
          let pidx = kernel_of_primitive ctx.st prim in
          let rins = Array.of_list (List.map (compile_expr ctx) ins) in
          let routs = Array.of_list (List.map (compile_expr ctx) outs) in
          emit ctx
            (Isa.InvokePacked
               {
                 packed_index = pidx;
                 args = rins;
                 outs = routs;
                 upper_bound = Attrs.get_bool attrs "upper_bound";
               });
          unit_reg ctx
      | _ -> err "invoke_mut: first argument must be a primitive function")
  | "memory.invoke_shape_func" -> (
      match args with
      | Expr.Fn prim :: rest when Fusion.is_primitive prim ->
          let n_in = Attrs.get_int attrs "num_inputs" in
          let ins = List.filteri (fun i _ -> i < n_in) rest in
          let outs = List.filteri (fun i _ -> i >= n_in) rest in
          let mode = Option.value ~default:"data_indep" (Attrs.find_str attrs "mode") in
          let pidx = shape_func_of_primitive ctx.st prim ~mode in
          let rins = Array.of_list (List.map (compile_expr ctx) ins) in
          let routs = Array.of_list (List.map (compile_expr ctx) outs) in
          emit ctx
            (Isa.InvokePacked
               { packed_index = pidx; args = rins; outs = routs; upper_bound = false });
          unit_reg ctx
      | _ -> err "invoke_shape_func: first argument must be a primitive function")
  | "memory.kill" -> (
      match args with
      | [ Expr.Var v ] ->
          (* drop the register's reference; the VM releases the object *)
          emit ctx (Isa.LoadConsti { value = 0L; dst = var_reg ctx v });
          unit_reg ctx
      | _ -> err "kill: expected a variable argument")
  | "shape_of" -> (
      match args with
      | [ t ] ->
          let rt = compile_expr ctx t in
          let r = fresh_reg ctx in
          emit ctx (Isa.ShapeOf { tensor = rt; dst = r });
          r
      | _ -> err "shape_of: expected 1 argument")
  | "reshape_tensor" -> (
      match args with
      | [ t; s ] ->
          let rt = compile_expr ctx t in
          let rshape = compile_expr ctx s in
          let r = fresh_reg ctx in
          emit ctx (Isa.ReshapeTensor { tensor = rt; shape = rshape; dst = r });
          r
      | _ -> err "reshape_tensor: expected 2 arguments")
  | "device_copy" -> (
      match args with
      | [ t ] ->
          let rt = compile_expr ctx t in
          let r = fresh_reg ctx in
          emit ctx
            (Isa.DeviceCopy
               {
                 src = rt;
                 dst_device_id = Attrs.get_int ~default:0 attrs "dst_device";
                 dst = r;
               });
          r
      | _ -> err "device_copy: expected 1 argument")
  | name ->
      err "%s: operator %s survived to emission (pipeline bug: fusion should have wrapped it)"
        ctx.fname name

and unit_reg ctx =
  let r = fresh_reg ctx in
  emit ctx (Isa.AllocADT { tag = Obj.tuple_tag; fields = [||]; dst = r });
  r

(* Lambda-lift a nested function into a fresh VM function; the closure's
   captured environment is prepended to its parameters. *)
and compile_closure ctx (fn : Expr.fn) : int =
  let free = Expr.free_vars (Expr.Fn fn) in
  ctx.st.closure_counter <- ctx.st.closure_counter + 1;
  let name = Fmt.str "%s$closure%d" ctx.fname ctx.st.closure_counter in
  let lifted =
    { fn with Expr.params = free @ fn.Expr.params; Expr.fn_attrs = Attrs.empty }
  in
  ctx.st.funcs <- ctx.st.funcs @ [ (name, Some lifted) ];
  compile_function ctx.st name lifted;
  let fi = func_index ctx.st name in
  let captured = Array.of_list (List.map (fun v -> var_reg ctx v) free) in
  let r = fresh_reg ctx in
  emit ctx (Isa.AllocClosure { func_index = fi; captured; dst = r });
  r

and compile_function st name (fn : Expr.fn) : unit =
  if Hashtbl.mem st.compiled name then ()
  else begin
    let ctx =
      {
        st;
        fname = name;
        regs = Hashtbl.create 32;
        next_reg = 0;
        code = Vec.create ();
        plan_regs = [];
      }
    in
    List.iter
      (fun (p : Expr.var) ->
        let r = fresh_reg ctx in
        bind_var ctx p r)
      fn.Expr.params;
    let r = compile_expr ctx fn.Expr.body in
    emit ctx (Isa.Ret { result = r });
    Hashtbl.replace st.compiled name
      {
        Exe.name;
        arity = List.length fn.Expr.params;
        register_count = ctx.next_reg;
        code = Vec.to_array ctx.code;
      }
  end

(* ------------------------------------------------------------------ *)

(* Entry guards (paper §4.1): the residual checks that type inference
   could not discharge statically, attached to each named function's
   tensor parameters. [Static n] dims become exact checks, [Any] is
   unconstrained, and [Sym s] dims — identical-[Any] classes the
   inference proved equal — become cross-argument equality checks on
   symbol [s]. Parameters without a resolved tensor type (tuples,
   functions, unresolved) are left unguarded. *)
let guard_of_param i (p : Expr.var) : Exe.guard option =
  match p.Expr.vty with
  | Some (Ty.Tensor { dims; dtype }) ->
      Some
        {
          Exe.g_arg = i;
          g_name = p.Expr.vname;
          g_dims =
            Array.map
              (function
                | Dim.Static n -> Exe.Check_exact n
                | Dim.Any -> Exe.Check_any
                | Dim.Sym s -> Exe.Check_eq s)
              dims;
          g_dtype = Some dtype;
        }
  | _ -> None

(** Emit a processed module into a linked executable. Each packed kernel
    carries the dense dispatcher it routes through, and packed names come
    from the module ([Fusion] names primitives per module), so this
    executable can relink any decoded copy of itself ([Exe.relink]). *)
let emit_module ?(options = default_options) (m : Irmod.t) : Exe.t =
  let st = create_state options in
  let named = List.map fst (Irmod.functions m) in
  st.funcs <- List.map (fun (name, fn) -> (name, Some fn)) (Irmod.functions m);
  List.iter
    (fun (name, fn) ->
      match fn with Some fn -> compile_function st name fn | None -> ())
    st.funcs;
  (* The function list may have grown with lifted closures; compile order
     guarantees they are all in [st.compiled] now. *)
  let funcs =
    Array.of_list (List.map (fun (name, _) -> Hashtbl.find st.compiled name) st.funcs)
  in
  let exe =
    Exe.create ~funcs
      ~constants:(Array.of_list (List.rev !(st.constants)))
      ~packed_names:
        (Array.of_list
           (List.rev_map (fun p -> (p.Exe.packed_name, p.Exe.kind)) !(st.packed_list)))
  in
  (if options.guards then
     (* guard only the module's named entry functions: lifted closures are
        internal (never invoked at the API boundary) and their captured
        parameters have no declared types *)
     let guards =
       Array.of_list
         (List.map
            (fun (name, fn) ->
              match fn with
              | Some fn when List.mem name named ->
                  Array.of_list
                    (List.filter_map Fun.id
                       (List.mapi guard_of_param fn.Expr.params))
              | _ -> [||])
            st.funcs)
     in
     Exe.set_guards exe guards);
  Exe.set_plans exe (Array.of_list (List.rev st.plans));
  List.iter (Exe.link exe) !(st.packed_list);
  exe
