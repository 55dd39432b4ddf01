(** Memory planning (paper §4.3, evaluated in §6.3).

    On the manifest-alloc IR: coalesces static storage allocations into one
    liveness-packed arena per device per straight-line region (first-fit
    offset assignment over alias-aware lifetime intervals, so storage is
    reused across tensors whose lifetimes do not overlap), folds bindable
    dynamic allocations into a symbolic per-device plan carried by a
    [memory.bind_arena] op (a {!Nimble_shape.Arena_plan} encoded in its
    attributes: offsets/sizes as {!Nimble_shape.Sym_expr} expressions over
    the function's symbolic dims, BladeDISC++-style), and
    inserts [memory.kill] after the last use of tensors that stay
    dynamically allocated. See [docs/MEMORY.md] for the dialect handbook. *)

open Nimble_ir

type stats = {
  mutable storages_before : int;  (** storages found (static + plannable dynamic) *)
  mutable storages_after : int;  (** arenas emitted *)
  mutable arena_bytes : int;  (** total coalesced arena size *)
  mutable sum_bytes : int;  (** what the un-coalesced storages added up to *)
  mutable kills_inserted : int;
  mutable symbolic_slots : int;  (** dynamic sites folded into a symbolic plan *)
}

(** A zeroed {!stats} record — the planner's accumulator, also what the
    compile report carries when planning is disabled. *)
val fresh_stats : unit -> stats

(** Aligned byte size of a storage holding [shape] elements of the
    [dtype]/[alignment] named in [attrs] (defaults: f32, 64) — the sizing
    rule both the planner and the memory lint use. *)
val storage_size_bytes : attrs:Attrs.t -> int array -> int

(** Symbolic binders of a function: maps each parameter-level [Dim.Sym] id
    to the (parameter index, dim index) the VM reads it from at runtime
    (first occurrence wins). Exposed for tests. *)
val binders_of_params : Expr.var list -> (int * (int * int)) list

(** Plan one expression (exposed for tests); [binders] enables the
    symbolic phase for this region (pass [[]] for static-only planning);
    branches are planned recursively as separate static regions. *)
val plan_expr : stats -> binders:(int * (int * int)) list -> Expr.t -> Expr.t

(** Run the planner over every function; returns module-wide statistics.
    [symbolic] (default on) enables the symbolic phase, with binders drawn
    from each function's parameter types. *)
val run : ?symbolic:bool -> Irmod.t -> stats
