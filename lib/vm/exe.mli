(** VM executables (paper §5): platform-independent bytecode (functions,
    constant pool, packed-function names) plus the platform-dependent kernel
    implementations, linked in by name after compilation or deserialization.
    Packed names are a function of the compiled module alone, so a decoded
    executable relinks from any linked compile of the same module
    ({!relink}). *)

open Nimble_tensor

(** One lowered VM function: straight-line {!Isa} bytecode over a
    frame-local register file of [register_count] virtual registers, the
    first [arity] of which hold the arguments on entry. *)
type vmfunc = {
  name : string;
  arity : int;
  register_count : int;
  code : Isa.t array;
}

(** One per-dimension residual check of a gradual-typing entry guard
    (paper §4.1): [Check_any] accepts any extent, [Check_exact n] requires
    exactly [n], and [Check_eq s] requires the extent to equal every other
    dimension guarded with symbol [s] in the same call (the "identical
    Any" cross-argument equality). *)
type dim_check = Check_any | Check_exact of int | Check_eq of int

(** An entry guard for one argument of a VM function: declared rank,
    per-dimension checks, and optionally the declared element type of
    parameter [g_name] at position [g_arg]. Emitted by the compiler from
    resolved parameter types; enforced by {!Interp} at the API boundary.
    See [docs/ROBUSTNESS.md]. *)
type guard = {
  g_arg : int;  (** argument position *)
  g_name : string;  (** source parameter name, for diagnostics *)
  g_dims : dim_check array;  (** one check per declared dimension *)
  g_dtype : Dtype.t option;  (** declared element type, when known *)
}

(** A packed function: a compiled kernel or a compiled shape function.
    [run] computes fresh outputs; the interpreter blits them into the
    pre-allocated destinations of [InvokePacked]. Packed implementations
    are platform-dependent and therefore never serialized; {!Serialize}
    stores only [packed_names] and {!relink} reattaches implementations by
    name. *)
type packed = {
  packed_name : string;
  kind : [ `Kernel | `Shape_func ];
  mode : string option;
      (** shape-function mode ("data_indep" / "data_dep" / "upper_bound"),
          carried for trace tagging; [None] for kernels *)
  run : Tensor.t list -> Tensor.t list;
  dispatch : Nimble_codegen.Dispatch.t option;
      (** the dense dispatcher [run] routes through, for kernels compiled
          with residue dispatch: tune replay and the online tuner reach the
          executable's dispatch tables through it (see {!dispatchers}) *)
}

(** A symbolic memory plan (paper §4.3, BladeDISC++-style): the arena
    layout the memory planner emitted for function [p_func], bound per
    request by the [BindArena] instruction, with tensor slots suballocated
    by [AllocTensorReg]. See [docs/MEMORY.md]. *)
type plan = {
  p_func : int;  (** function the plan belongs to *)
  p_arena : Nimble_shape.Arena_plan.t;  (** device, binders, slots, total *)
}

(** One persisted tune decision (paper §4.5 online specialization): install
    a [tn_tile_m]-tiled kernel for exact extent [tn_extent] into the
    dispatcher of packed kernel [tn_kernel]. Written by
    [Serve.Cache.persist_tunes] from the live dispatch tables and applied
    after relink on warm restart, so the executable starts pre-specialized.
    See [docs/TUNING.md]. *)
type tune = { tn_kernel : string; tn_extent : int; tn_tile_m : int }

(** An executable: the serializable, platform-independent part (bytecode
    functions, constant pool, packed-function names, guards, memory plans,
    tune decisions) plus the linked-in platform-dependent implementations. *)
type t = {
  funcs : vmfunc array;
  constants : Tensor.t array;
  packed_names : (string * [ `Kernel | `Shape_func ]) array;
  mutable packed : packed option array;  (** linked implementations *)
  mutable guards : guard array array;
      (** entry guards per function, indexed like [funcs]; [[||]] = the
          function was compiled unguarded *)
  mutable plans : plan array;
      (** symbolic memory plans, [BindArena.plan_index]-indexed *)
  mutable tunes : tune array;
      (** persisted autotune decisions (NMBLEXE4 tune table) *)
}

(** Assemble an executable with every packed slot unlinked; call {!link}
    for each name in [packed_names] before handing it to the interpreter. *)
val create :
  funcs:vmfunc array ->
  constants:Tensor.t array ->
  packed_names:(string * [ `Kernel | `Shape_func ]) array ->
  t

(** Attach compiler-emitted entry guards, one (possibly empty) array per
    function in [funcs] order.
    @raise Invalid_argument when the array length disagrees with [funcs]. *)
val set_guards : t -> guard array array -> unit

(** The executable's entry guards, indexed like [funcs]. *)
val guards : t -> guard array array

(** Attach the compiler-emitted symbolic memory plans (the [BindArena]
    operand table). *)
val set_plans : t -> plan array -> unit

(** Attach persisted autotune decisions (the NMBLEXE4 tune table). *)
val set_tunes : t -> tune array -> unit

(** Index of a VM function by name. @raise Invalid_argument if absent. *)
val func_index : t -> string -> int

(** Index of a declared packed function by name; [None] if undeclared. *)
val packed_index : t -> string -> int option

(** Link one packed implementation by name.
    @raise Invalid_argument for names the executable does not declare. *)
val link : t -> packed -> unit

(** [relink ~from t] links every packed function of [t] by name from
    [from], a linked executable of the same module — the one way to link
    a decoded executable. The two share implementations and dispatchers
    afterwards.
    @raise Invalid_argument naming the first packed function declared by
    only one of the two, before anything is linked, or when [from] is not
    linked. *)
val relink : from:t -> t -> unit

(** Every declared packed function has an implementation. *)
val linked : t -> bool

(** The linked implementation at a packed index.
    @raise Invalid_argument if that slot was never {!link}ed. *)
val get_packed : t -> int -> packed

(** The dense dispatchers the linked kernels route through, each with its
    packed kernel name, in packed order — what tune replay, tune capture
    and the serving engine's online tuner walk. *)
val dispatchers : t -> (string * Nimble_codegen.Dispatch.t) list

(** Human-readable disassembly: packed names, the plan table, then each
    function's bytecode. *)
val disassemble : Format.formatter -> t -> unit

(** Total bytecode instructions across all functions (the [instructions]
    field of the compile report). *)
val instruction_count : t -> int
