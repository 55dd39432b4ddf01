(** Lowering straight-line bodies to runners, once, at link time.

    A fused primitive (paper §4.2) and the [main] of a fused static module
    are straight-line bodies: parameters, let-bindings, tuples,
    projections and calls. {!compile} turns one into a runner; kernels
    ({!lower}), composed shape functions ({!shape_func_of_primitive}) and
    the static executor ([Nimble_compiler.Static_exec]) are its three
    uses.

    A runner keeps no state between calls: each call fills a fresh slot
    array, and what it shares with other calls (the resolved call sites
    and the already-evaluated constants) is only read. One runner may
    therefore serve several domains at once, as the serving workers do. *)

open Nimble_tensor
open Nimble_ir

(** Raised by kernels and composed shape functions: a wrong argument
    count, a call that is not an operator, an unproven dynamic member
    inside a fused group, or a value a shape function needs that its
    inputs do not carry. *)
exception Lower_error of string

(** A body's value: one leaf (a tensor, a shape, ...) or a tuple. *)
type 'a value = Leaf of 'a | Tuple of 'a value list

(** An operator's output list as one value: a single output is a leaf,
    any other count a tuple of leaves. *)
val outputs : 'a list -> 'a value

(** [compile ~error ~name ~const ~call fn] numbers [fn]'s parameters and
    let-bindings into slots and resolves each call site with
    [call callee attrs], once. The returned runner takes one leaf per
    parameter and returns the body's value; a call receives its arguments
    flattened to leaves, left to right. Constants become [Leaf (const t)]
    at link time.
    @raise error (with a message prefixed by [name]) at link time on an
    unbound variable or on control flow or function values inside the
    body, and at run time on a wrong argument count or a projection out of
    a value that lacks it. *)
val compile :
  error:(string -> exn) ->
  name:string ->
  const:(Tensor.t -> 'a) ->
  call:(Expr.t -> Attrs.t -> 'a list -> 'a value) ->
  Expr.fn ->
  'a list ->
  'a value

(** [lower ?dispatch ~name fn] is primitive [fn]'s kernel: input tensors
    to output tensors. Each operator runs through [Trace.eval_op]; a
    [dense] runs through [dispatch] when given, then reports with
    [Trace.record_op].
    @raise Lower_error when the body calls anything but operators. *)
val lower :
  ?dispatch:Dispatch.t -> name:string -> Expr.fn -> Tensor.t list -> Tensor.t list

(** [shape_func_of_primitive ~name fn] composes the shape functions of
    [fn]'s members (§4.2): it maps the primitive's inputs to its output
    shapes. Each input is a shape, or a value when the caller has it
    (data-dependent and dominance-proven groups). A member whose shape
    function reads values (a proven or data-dependent site) gets them
    from its inputs; the chains feeding it are evaluated on demand
    through [Trace.eval_op], and no other member's value is computed.
    @raise Lower_error when the body calls anything but operators, when
    a fused group holds an unproven dynamic member, or when a member
    needs a value its inputs do not carry.
    @raise Nimble_shape.Shape_func.Shape_func_error when a member's own
    shape function fails. *)
val shape_func_of_primitive :
  name:string -> Expr.fn -> Nimble_shape.Shape_func.input list -> Shape.t list
