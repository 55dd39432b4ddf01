(** Symbolic arena plans (paper §4.3, BladeDISC++-style): the one
    representation of a [memory.bind_arena] layout, shared by the memory
    planner that emits it, the emitter that lowers it into the
    executable's plan table, the IR lint and the bytecode verifier that
    check it, and the VM that binds it per request.

    A plan lays out one arena on one device: [binders] say how to read
    each free symbolic dim from the argument shapes, and every slot's
    byte offset and size, as well as the arena [total], are {!Sym_expr}
    expressions over those dims. See [docs/MEMORY.md]. *)

open Nimble_ir

(** One symbolic-dim binding: at bind time the VM reads dimension [b_dim]
    of argument [b_arg]'s shape as the value of symbolic dim [b_sym]. *)
type binder = { b_arg : int; b_dim : int; b_sym : int }

(** One arena slot: byte offset and size over the bound symbolic dims. *)
type slot = { s_offset : Sym_expr.t; s_size : Sym_expr.t }

(** A plan for one function x device. *)
type t = {
  device : int;  (** device the arena lives on *)
  align : int;  (** arena alignment in bytes *)
  binders : binder array;  (** how to bind each free symbolic dim *)
  slots : slot array;  (** slot layouts, [AllocTensorReg.slot]-indexed *)
  total : Sym_expr.t;  (** total arena bytes *)
}

(** The distinct symbolic dims any slot expression or the total mentions,
    sorted. *)
val free_dims : t -> int list

(** {2 IR codec}

    In the IR a plan travels as the attributes of its [memory.bind_arena]
    call: [alignment], [device], [binders] (flattened [(arg, dim, sym)]
    triples), [slots] (["offset|size"] pairs joined by [';'], each
    expression in {!Sym_expr.to_string} syntax) and [total], plus the
    storage attributes every arena carries ([dtype = "uint8"],
    [arena = true]). These two functions are the only encoder and decoder
    of that form. *)

(** The attributes of the [memory.bind_arena] call carrying the plan. *)
val to_attrs : t -> Attrs.t

(** Decode {!to_attrs}'s form. [device] defaults to 0 and [alignment] to
    64 when absent; everything else is required. [Error] names the first
    malformed attribute: binders that are not triples, missing or
    malformed slots, an unparseable expression, a missing total. *)
val of_attrs : Attrs.t -> (t, string) result

(** One-line rendering for disassembly and diagnostics, e.g.
    [device=0 align=64 total=(+ 64 s1)] followed by one indented line per
    binder and slot. *)
val pp : Format.formatter -> t -> unit
