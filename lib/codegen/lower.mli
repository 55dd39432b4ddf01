(** Lowering straight-line bodies to runners, once, at link time.

    A fused primitive (paper §4.2) and the [main] of a fused static module
    are straight-line bodies: parameters, let-bindings, tuples,
    projections and calls. {!compile} turns one into a runner; composed
    shape functions ({!shape_func_of_primitive}) and the static executor
    ([Nimble_compiler.Static_exec]) use it. Kernels ({!lower}) are staged
    from the same sites: every call site is resolved once, each maximal
    chain of elementwise operators runs as one strided loop whose
    intermediates live in scratch strips, and the kernel writes the
    destinations [invoke_mut] hands it (paper §4.3).

    A runner keeps no state between calls: each call fills a fresh slot
    array, and what it shares with other calls (the resolved call sites,
    the link-time loop plans and the already-evaluated constants) is only
    read. One runner may therefore serve several domains at once, as the
    serving workers do. *)

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

(** A kernel: [k ins dsts] computes its outputs from [ins] into the
    destinations [dsts] and returns [dsts]. An output whose extent
    differs from its destination's (an upper-bound output, paper §4.3)
    is returned in the destination's place instead, and the caller
    decides whether it may replace it. With [dsts = [||]] the kernel
    allocates its outputs and returns them. *)
type kernel = Tensor.t list -> Tensor.t array -> Tensor.t array

(** [lower ?dispatch ~name fn] is primitive [fn]'s staged kernel.

    Every maximal chain of elementwise operators — unary and binary
    arithmetic, [bias_add], and a [strided_slice] read as an offset and
    strides into its input — runs as one {!Nimble_tensor.Strided} loop
    over the chain's output with each leaf as an operand: the operators
    apply through scratch strips of at most 256 elements, in
    {!Nimble_tensor.Ops_elem}'s loops, and the last one writes the
    destination. A chain whose leaf shapes are static plans its loop here,
    once; a dynamic one plans per call. Every other operator is resolved
    once with [Op_eval.resolve] ([dense] through [dispatch] when given),
    and where one ends the body the kernel copies its result into the
    destination. Each call checks each destination's shape and dtype, and
    raises [Lower_error] when a destination is one of [ins]. Under a
    {!Trace} listener a call reports one [Op_exec] per operator, in body
    order, after it runs.
    @raise Lower_error when the body calls anything but operators. *)
val lower : ?dispatch:Dispatch.t -> name:string -> Expr.fn -> kernel

(** [shape_func_of_primitive ~name fn] composes the shape functions of
    [fn]'s members (§4.2): it maps the primitive's inputs to its output
    shapes. Each input is a shape, or a value when the caller has it
    (data-dependent and dominance-proven groups). A member whose shape
    function reads values (a proven or data-dependent site) gets them
    from its inputs; the chains feeding it are evaluated on demand,
    through operators resolved here and reported to {!Trace}, and no
    other member's value is computed.
    @raise Lower_error when the body calls anything but operators, when
    a fused group holds an unproven dynamic member, or when a member
    needs a value its inputs do not carry.
    @raise Nimble_shape.Shape_func.Shape_func_error when a member's own
    shape function fails. *)
val shape_func_of_primitive :
  name:string -> Expr.fn -> Nimble_shape.Shape_func.input list -> Shape.t list
