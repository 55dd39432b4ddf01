(** VM executables (paper §5): platform-independent bytecode (functions,
    constant pool, ADT layouts, packed-function names) plus the
    platform-dependent kernel implementations, which are linked in by name
    after compilation or deserialization. *)

open Nimble_tensor

type vmfunc = {
  name : string;
  arity : int;
  register_count : int;
  code : Isa.t array;
}

(** One per-dimension residual check of a gradual-typing entry guard
    (paper §4.1): [Check_any] accepts any extent, [Check_exact n] requires
    exactly [n], and [Check_eq s] requires the extent to equal every other
    dimension guarded with the same symbol [s] in the same call — the
    "identical Any" cross-argument equality that inference proved but
    could not resolve to a constant. *)
type dim_check = Check_any | Check_exact of int | Check_eq of int

(** An entry guard for one argument of a VM function: the declared rank,
    per-dimension checks and (optionally) the declared element type of
    parameter [g_name] at position [g_arg]. Emitted by the compiler from
    the resolved parameter types; enforced by the interpreter at the API
    boundary (depth-0 invocations only). *)
type guard = {
  g_arg : int;  (** argument position *)
  g_name : string;  (** source parameter name, for diagnostics *)
  g_dims : dim_check array;  (** one check per declared dimension *)
  g_dtype : Dtype.t option;  (** declared element type, when known *)
}

(** A packed function: a compiled kernel or a compiled shape function.
    [run] takes input tensors and freshly computes outputs; the interpreter
    blits them into the pre-allocated destinations of [InvokePacked]. *)
type packed = {
  packed_name : string;
  kind : [ `Kernel | `Shape_func ];
  mode : string option;
      (** shape-function mode ("data_indep" / "data_dep" / "upper_bound" /
          "proven"), carried for trace tagging; [None] for kernels *)
  run : Tensor.t list -> Tensor.t list;
  dispatch : Nimble_codegen.Dispatch.t option;
      (** the dense dispatcher [run] routes through, for kernels with
          residue dispatch; tune replay and the online tuner reach it here *)
}

(** A symbolic memory plan (paper §4.3): the arena layout the memory
    planner emitted for function [p_func], bound per request by
    [BindArena] (see [docs/MEMORY.md]). *)
type plan = {
  p_func : int;  (** function the plan belongs to *)
  p_arena : Nimble_shape.Arena_plan.t;  (** device, binders, slots, total *)
}

(** One persisted tune decision (paper §4.5 online specialization): install
    a [tn_tile_m]-tiled kernel for exact extent [tn_extent] into the
    dispatcher of packed kernel [tn_kernel]. Written by
    [Serve.Cache.persist_tunes] from the live dispatch tables, applied after
    relink on warm restart so the executable starts pre-specialized (see
    [docs/TUNING.md]). *)
type tune = { tn_kernel : string; tn_extent : int; tn_tile_m : int }

type t = {
  funcs : vmfunc array;
  constants : Tensor.t array;
  packed_names : (string * [ `Kernel | `Shape_func ]) array;
  mutable packed : packed option array;  (** linked implementations *)
  mutable guards : guard array array;
      (** entry guards per function, indexed like [funcs]; [[||]] means the
          function was compiled unguarded *)
  mutable plans : plan array;
      (** symbolic memory plans, [BindArena.plan_index]-indexed *)
  mutable tunes : tune array;
      (** persisted autotune decisions (NMBLEXE4 tune table) *)
}

let create ~funcs ~constants ~packed_names =
  {
    funcs;
    constants;
    packed_names;
    packed = Array.make (Array.length packed_names) None;
    guards = Array.make (Array.length funcs) [||];
    plans = [||];
    tunes = [||];
  }

(** Attach the compiler-emitted symbolic memory plans ([BindArena] operand
    table). *)
let set_plans t plans = t.plans <- plans

(** Attach persisted autotune decisions (the NMBLEXE4 tune table). *)
let set_tunes t tunes = t.tunes <- tunes

(** Attach compiler-emitted entry guards, one (possibly empty) array per
    function in [funcs] order. *)
let set_guards t guards =
  if Array.length guards <> Array.length t.funcs then
    Fmt.invalid_arg "Exe.set_guards: %d guard entries for %d functions"
      (Array.length guards) (Array.length t.funcs);
  t.guards <- guards

let guards t = t.guards

let func_index t name =
  let found = ref None in
  Array.iteri (fun i f -> if String.equal f.name name then found := Some i) t.funcs;
  match !found with
  | Some i -> i
  | None -> Fmt.invalid_arg "Exe.func_index: no function %s" name

let packed_index t name =
  let found = ref None in
  Array.iteri
    (fun i (n, _) -> if String.equal n name then found := Some i)
    t.packed_names;
  !found

(** Link one packed implementation by name. *)
let link t (p : packed) =
  match packed_index t p.packed_name with
  | Some i -> t.packed.(i) <- Some p
  | None -> Fmt.invalid_arg "Exe.link: executable has no packed function %s" p.packed_name

let linked t =
  Array.for_all Option.is_some t.packed

let get_packed t i =
  match t.packed.(i) with
  | Some p -> p
  | None ->
      let name, _ = t.packed_names.(i) in
      Fmt.invalid_arg "Exe.get_packed: %s not linked" name

(** Link every packed function of [t] by name from [from], a linked
    executable of the same module: packed names are a function of the
    module, so any compile of it will do. *)
let relink ~from t =
  let declared_only_by a b side =
    Array.iter
      (fun (name, _) ->
        if packed_index b name = None then
          Fmt.invalid_arg "Exe.relink: %s is declared only by the %s" name side)
      a.packed_names
  in
  declared_only_by t from "executable being linked";
  declared_only_by from t "executable linked from";
  Array.iteri
    (fun i (name, _) ->
      t.packed.(i) <- Some (get_packed from (Option.get (packed_index from name))))
    t.packed_names

(** The dense dispatchers the linked kernels route through, with their
    kernel names, in packed order. *)
let dispatchers t =
  Array.to_list t.packed
  |> List.filter_map (function
       | Some { packed_name; dispatch = Some d; _ } -> Some (packed_name, d)
       | _ -> None)

(** Human-readable disassembly. *)
let disassemble ppf t =
  Fmt.pf ppf "constants: %d@." (Array.length t.constants);
  Array.iteri
    (fun i (name, kind) ->
      Fmt.pf ppf "packed%d: %s (%s)@." i name
        (match kind with `Kernel -> "kernel" | `Shape_func -> "shape_func"))
    t.packed_names;
  Array.iteri
    (fun i p ->
      Fmt.pf ppf "plan %d: func=%d %a@." i p.p_func Nimble_shape.Arena_plan.pp p.p_arena)
    t.plans;
  Array.iter
    (fun f ->
      Fmt.pf ppf "@.fn %s(arity=%d, regs=%d):@." f.name f.arity f.register_count;
      Array.iteri (fun pc instr -> Fmt.pf ppf "  %3d: %a@." pc Isa.pp instr) f.code)
    t.funcs

let instruction_count t =
  Array.fold_left (fun acc f -> acc + Array.length f.code) 0 t.funcs
