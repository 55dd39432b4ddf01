(** Instrumented operator sets for the baseline frameworks.

    Each baseline executes the *same kernels* as Nimble (so outputs are
    bit-comparable) but through its own dispatch architecture, reporting
    the framework-side actions it performs — per-op dynamic dispatch,
    trace/graph node construction, control-flow primitives, recompilation —
    to {!Nimble_codegen.Trace}. The performance simulator prices those
    actions per platform; the kernel work itself is priced from the same
    trace events Nimble's kernels emit. *)

open Nimble_tensor
open Nimble_models
module Trace = Nimble_codegen.Trace

module type CONFIG = sig
  val dispatch_event : string
  (** emitted once per operator call (framework dispatch cost) *)

  val graph_event : string option
  (** emitted once per operator call when the framework also materializes a
      graph/trace node per invocation (define-by-run frameworks) *)
end

module Make_ops (C : CONFIG) : Model_ops.OPS with type t = Tensor.t = struct
  type t = Tensor.t

  let dispatch name attrs args =
    Trace.record_framework C.dispatch_event ();
    (match C.graph_event with
    | Some ev -> Trace.record_framework ev ()
    | None -> ());
    Trace.eval_op name ~attrs args

  let one name attrs args =
    match dispatch name attrs args with
    | [ t ] -> t
    | _ -> invalid_arg (name ^ ": expected single output")

  let const t = t
  let dense a b = one "dense" [] [ a; b ]
  let bias_add a b = one "bias_add" [] [ a; b ]
  let add a b = one "add" [] [ a; b ]
  let sub a b = one "subtract" [] [ a; b ]
  let mul a b = one "multiply" [] [ a; b ]
  let sigmoid a = one "sigmoid" [] [ a ]
  let tanh a = one "tanh" [] [ a ]
  let gelu a = one "gelu" [] [ a ]
  let softmax ~axis a = one "softmax" [ ("axis", Nimble_ir.Attrs.Int axis) ] [ a ]
  let layer_norm a ~gamma ~beta = one "layer_norm" [] [ a; gamma; beta ]

  let split ~axis ~sections a =
    dispatch "split"
      [ ("axis", Nimble_ir.Attrs.Int axis); ("sections", Nimble_ir.Attrs.Int sections) ]
      [ a ]

  let slice ~begins ~ends a =
    one "strided_slice"
      [
        ("begins", Nimble_ir.Attrs.Ints (Array.to_list begins));
        ("ends", Nimble_ir.Attrs.Ints (Array.to_list ends));
      ]
      [ a ]

  let reshape s a =
    one "reshape" [ ("newshape", Nimble_ir.Attrs.Ints (Array.to_list s)) ] [ a ]

  let transpose ~axes a =
    one "transpose" [ ("axes", Nimble_ir.Attrs.Ints (Array.to_list axes)) ] [ a ]

  let batch_matmul a b = one "batch_matmul" [] [ a; b ]
  let mul_scalar c a = one "multiply" [] [ a; Tensor.scalar c ]
  let concat ~axis ts = one "concat" [ ("axis", Nimble_ir.Attrs.Int axis) ] ts
  let relu a = one "relu" [] [ a ]

  let conv2d ~stride ~padding d w =
    one "conv2d"
      [ ("stride", Nimble_ir.Attrs.Int stride); ("padding", Nimble_ir.Attrs.Int padding) ]
      [ d; w ]

  let max_pool2d ~window ~stride a =
    one "max_pool2d"
      [ ("window", Nimble_ir.Attrs.Int window); ("stride", Nimble_ir.Attrs.Int stride) ]
      [ a ]

  let global_avg_pool2d a = one "global_avg_pool2d" [] [ a ]

  let batch_norm a ~gamma ~beta ~mean ~var =
    one "batch_norm" [] [ a; gamma; beta; mean; var ]
end
