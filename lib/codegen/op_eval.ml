(** Reference execution of a single primitive operator.

    This is the "kernel library" every executor in the repo shares: the VM's
    packed functions, the baselines' eager dispatch, and constant folding all
    bottom out here. Heavy ops ([dense]) may be overridden by tuned kernels
    from {!Dense_kernels} at lowering time.

    Every route out of here executes on the [Nimble_parallel] domain pool:
    [dense]/[matmul]/[batch_matmul] partition over output rows, elementwise
    maps over elements, [softmax]/[layer_norm] over rows, and single-axis
    reductions over output elements — all grain-gated so small dynamic
    shapes stay sequential, and all bitwise-identical to
    [NIMBLE_NUM_DOMAINS=1] (see [docs/PARALLELISM.md]). *)

open Nimble_tensor
open Nimble_ir

exception Eval_error of string

let err fmt = Fmt.kstr (fun s -> raise (Eval_error s)) fmt

let one = function
  | [ t ] -> t
  | ts -> err "expected 1 argument, got %d" (List.length ts)

let two = function
  | [ a; b ] -> (a, b)
  | ts -> err "expected 2 arguments, got %d" (List.length ts)

let three = function
  | [ a; b; c ] -> (a, b, c)
  | ts -> err "expected 3 arguments, got %d" (List.length ts)

let un f args = [ f (one args) ]
let bin f args = let a, b = two args in [ f a b ]

(* Every operator but the elementwise ones. *)
let resolve_other name ~(attrs : Attrs.t) : Tensor.t list -> Tensor.t list =
  match name with
  | "where" -> fun args -> let c, a, b = three args in [ Ops_elem.where c a b ]
  | "log_softmax" ->
      let axis = Attrs.get_int ~default:(-1) attrs "axis" in
      un (Ops_nn.log_softmax ~axis)
  | "cast" ->
      let dt =
        match Attrs.find_str attrs "dtype" with
        | Some s -> Option.get (Dtype.of_string s)
        | None -> err "cast: missing dtype"
      in
      un (fun t -> Tensor.astype t dt)
  | "dense" -> bin Ops_matmul.dense
  | "matmul" -> bin Ops_matmul.matmul
  | "batch_matmul" -> bin Ops_matmul.batch_matmul
  | "conv2d" ->
      let stride = Attrs.get_int ~default:1 attrs "stride" in
      let padding = Attrs.get_int ~default:0 attrs "padding" in
      bin (Ops_nn.conv2d ~stride ~padding)
  | "max_pool2d" ->
      let window = Attrs.get_int attrs "window" in
      let stride = Attrs.get_int ~default:2 attrs "stride" in
      un (Ops_nn.max_pool2d ~stride ~window)
  | "avg_pool2d" ->
      let window = Attrs.get_int attrs "window" in
      let stride = Attrs.get_int ~default:2 attrs "stride" in
      un (Ops_nn.avg_pool2d ~stride ~window)
  | "global_avg_pool2d" -> un Ops_nn.global_avg_pool2d
  | "softmax" ->
      let axis = Attrs.get_int ~default:(-1) attrs "axis" in
      un (Ops_nn.softmax ~axis)
  | "layer_norm" -> fun args -> let a, gamma, beta = three args in [ Ops_nn.layer_norm a ~gamma ~beta ]
  | "batch_norm" -> (
      function
      | [ a; gamma; beta; mean; var ] -> [ Ops_nn.batch_norm a ~gamma ~beta ~mean ~var ]
      | _ -> err "batch_norm: expected 5 arguments")
  | "embedding" -> bin Ops_nn.embedding
  | "reshape" ->
      let target = Array.of_list (Attrs.get_ints attrs "newshape") in
      un (fun t -> Tensor.reshape t target)
  | "transpose" ->
      let axes = Option.map Array.of_list (Attrs.find_ints attrs "axes") in
      un (Ops_shape.transpose ?axes)
  | "expand_dims" ->
      let axis = Attrs.get_int attrs "axis" in
      un (fun t -> Tensor.reshape t (Shape.insert_axis (Tensor.shape t) axis))
  | "squeeze" ->
      let axis = Attrs.get_int attrs "axis" in
      un (fun t ->
          let axis = Shape.normalize_axis ~rank:(Tensor.rank t) axis in
          if (Tensor.shape t).(axis) <> 1 then err "squeeze: axis %d not 1" axis;
          Tensor.reshape t (Shape.remove_axis (Tensor.shape t) axis))
  | "concat" ->
      let axis = Attrs.get_int attrs "axis" in
      fun args -> [ Ops_shape.concat ~axis args ]
  | "split" ->
      let axis = Attrs.get_int attrs "axis" and sections = Attrs.get_int attrs "sections" in
      fun args -> Ops_shape.split ~axis ~sections (one args)
  | "strided_slice" ->
      let begins = Array.of_list (Attrs.get_ints attrs "begins") in
      let ends = Array.of_list (Attrs.get_ints attrs "ends") in
      un (Ops_shape.strided_slice ~begins ~ends)
  | "take" ->
      let axis = Attrs.get_int ~default:0 attrs "axis" in
      bin (Ops_shape.take ~axis)
  | "tile" ->
      let reps = Array.of_list (Attrs.get_ints attrs "reps") in
      un (Ops_shape.tile ~reps)
  | "sum" | "max" | "min" | "mean" ->
      let keepdims = Attrs.get_bool attrs "keepdims" in
      let axis = Attrs.find_int attrs "axis" in
      un
        (match name with
        | "sum" -> Ops_reduce.sum ?axis ~keepdims
        | "max" -> Ops_reduce.max ?axis ~keepdims
        | "min" -> Ops_reduce.min ?axis ~keepdims
        | _ -> Ops_reduce.mean ?axis ~keepdims)
  | "argmax" ->
      let axis = Attrs.get_int attrs "axis" in
      un (Ops_reduce.argmax ~axis)
  | "arange" ->
      let dtype =
        match Attrs.find_str attrs "dtype" with
        | Some s -> Option.value ~default:Dtype.F32 (Dtype.of_string s)
        | None -> Dtype.F32
      in
      fun args ->
        let start, stop, step = three args in
        [ Ops_shape.arange ~dtype ~start:(Tensor.item start) ~stop:(Tensor.item stop)
            ~step:(Tensor.item step) () ]
  | "unique" -> un Ops_shape.unique
  | "nms" ->
      let iou = Attrs.get_float ~default:0.5 attrs "iou" in
      let score = Attrs.get_float ~default:0.0 attrs "score" in
      un (Ops_nn.nms ~iou_threshold:iou ~score_threshold:score)
  | "shape_of" -> un Tensor.shape_tensor
  | "reshape_tensor" -> bin (fun t shape -> Tensor.reshape t (Tensor.to_shape shape))
  | "device_copy" -> un Tensor.copy
  | _ -> err "op_eval: no kernel for operator %s" name

(** [resolve name ~attrs] reads operator [name]'s attributes once and
    returns its kernel, from input tensors to outputs (singleton for all
    ops except [split]). [Lower] resolves each site of a fused body once,
    at link time.
    @raise Eval_error for an unknown operator. *)
let resolve name ~attrs =
  match (Ops_elem.unop_of_name name, Ops_elem.binop_of_name name) with
  | Some op, _ -> un (Ops_elem.unop op)
  | _, Some op -> bin (Ops_elem.binop op)
  | None, None -> resolve_other name ~attrs

(** [eval name ~attrs args] runs operator [name] and returns its outputs:
    {!resolve} applied. *)
let eval name ~attrs args = resolve name ~attrs args

let eval1 name ~attrs args = one (eval name ~attrs args)

(** FLOP estimate for an operator invocation — consumed by the platform cost
    models in [Nimble_perfsim]. *)
let flops name ~(attrs : Attrs.t) (in_shapes : Shape.t list) (out_shapes : Shape.t list) =
  let out_elems = List.fold_left (fun acc s -> acc + Shape.numel s) 0 out_shapes in
  match (name, in_shapes) with
  | "dense", [ d; w ] -> 2 * d.(0) * d.(1) * w.(0)
  | "matmul", [ a; b ] -> 2 * a.(0) * a.(1) * b.(1)
  | "batch_matmul", [ a; b ] -> 2 * a.(0) * a.(1) * a.(2) * b.(2)
  | "conv2d", [ _d; w ] ->
      let per_out = 2 * w.(1) * w.(2) * w.(3) in
      ignore attrs;
      out_elems * per_out
  | ("exp" | "log" | "tanh" | "sigmoid" | "gelu" | "softmax" | "erf"), _ ->
      8 * out_elems (* transcendental: ~8 flops each *)
  | ("layer_norm" | "batch_norm"), _ -> 8 * out_elems
  | _ -> out_elems
