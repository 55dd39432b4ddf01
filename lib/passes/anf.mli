(** A-normal form conversion.

    Every compound subexpression is let-bound so later passes see flat
    chains of lets whose right-hand sides are single operations over atoms.
    Conversion is {e DAG-aware}: model builders reuse OCaml expression nodes
    wherever a value is reused, and memoizing on physical identity keeps the
    output linear where a tree walk would explode exponentially (a 12-layer
    BERT reuses each layer output ~5 times). Branch conversions get a copy
    of the memo, so bindings never leak across control-flow scopes. *)

open Nimble_ir

(** Atoms: variables, constants, globals, operators, constructors. *)
val is_atom : Expr.t -> bool

(** Convert an expression to ANF. *)
val convert : Expr.t -> Expr.t

(** Convert a function body to ANF. *)
val convert_fn : Expr.fn -> Expr.fn

(** Convert every function in a module. *)
val run : Irmod.t -> Irmod.t

(** Distinct expression nodes across a module's functions, each node the
    builder shares counted once by physical identity, as conversion's memo
    sees them. A tree walk ({!Expr.size}) counts a shared node once per
    path to it, which grows ~8x per BERT layer. *)
val dag_size : Irmod.t -> int

(** Validate ANF shape (pass precondition; used by tests). *)
val is_anf : Expr.t -> bool
