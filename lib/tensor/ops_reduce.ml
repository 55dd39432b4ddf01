(** Reductions over one axis or the whole tensor.

    A single-axis reduction is one {!Strided.iter} loop with the reduced
    axis innermost and stride 0 in the output, so each output element is
    accumulated by exactly one domain, in ascending axis order. Results
    are bitwise identical at any pool width. Whole-tensor reductions
    stay sequential: splitting one accumulator would reassociate
    floating-point addition. *)

let reduce_all init f a =
  let acc = ref init in
  for i = 0 to Tensor.numel a - 1 do
    acc := f !acc (Tensor.get_float a i)
  done;
  Tensor.scalar ~dtype:(Tensor.dtype a) !acc

(* Run [body] over [a] with [axis] innermost. Operand 0 is a row-major
   output of [a]'s shape without [axis], with stride 0 along it; operand
   1 is [a]; operand 2's offset is the index along [axis]. *)
let along ~axis a body =
  let s = Tensor.shape a in
  let st = Shape.strides s and kept = Shape.remove_axis s axis in
  let last x v = Array.append x [| v |] in
  Strided.iter (last kept s.(axis))
    [|
      (0, last (Shape.strides kept) 0);
      (0, last (Shape.remove_axis st axis) st.(axis));
      (0, last (Array.map (fun _ -> 0) kept) 1);
    |]
    body

(** Reduce along [axis]; [keepdims] keeps it as size 1. An integer
    tensor accumulates as floats and stores each partial result as
    {!Tensor.set_float} does. *)
let reduce_axis init f ?(keepdims = false) ~axis a =
  let s = Tensor.shape a in
  let axis = Shape.normalize_axis ~rank:(Shape.rank s) axis in
  let out_shape =
    if keepdims then Array.mapi (fun i d -> if i = axis then 1 else d) s
    else Shape.remove_axis s axis
  in
  let out = Tensor.full ~dtype:(Tensor.dtype a) out_shape init in
  let src = Tensor.floats a in
  let get, set =
    match out.Tensor.buf with
    | Tensor.Floats d -> (Array.unsafe_get d, Array.unsafe_set d)
    | Tensor.Ints d ->
        ( (fun k -> float_of_int (Array.unsafe_get d k)),
          fun k v -> Array.unsafe_set d k (Tensor.clamp (Tensor.dtype a) (int_of_float v)) )
  in
  along ~axis a (fun o st n ->
      for i = 0 to n - 1 do
        let k = o.(0) + (i * st.(0)) in
        set k (f (get k) (Array.unsafe_get src (o.(1) + (i * st.(1)))))
      done);
  out

let sum ?axis ?(keepdims = false) a =
  match axis with
  | None -> reduce_all 0.0 ( +. ) a
  | Some axis -> reduce_axis 0.0 ( +. ) ~keepdims ~axis a

let max ?axis ?(keepdims = false) a =
  match axis with
  | None -> reduce_all Float.neg_infinity Float.max a
  | Some axis -> reduce_axis Float.neg_infinity Float.max ~keepdims ~axis a

let min ?axis ?(keepdims = false) a =
  match axis with
  | None -> reduce_all Float.infinity Float.min a
  | Some axis -> reduce_axis Float.infinity Float.min ~keepdims ~axis a

let mean ?axis ?(keepdims = false) a =
  let s = Tensor.shape a in
  match axis with
  | None ->
      let n = Stdlib.max 1 (Tensor.numel a) in
      Ops_elem.mul_scalar (sum a) (1.0 /. float_of_int n)
  | Some axis ->
      let ax = Shape.normalize_axis ~rank:(Shape.rank s) axis in
      let n = Stdlib.max 1 s.(ax) in
      Ops_elem.mul_scalar (sum ~axis ~keepdims a) (1.0 /. float_of_int n)

(** Index of the max element along [axis]; output dtype i64. *)
let argmax ~axis a =
  let s = Tensor.shape a in
  let axis = Shape.normalize_axis ~rank:(Shape.rank s) axis in
  let out_shape = Shape.remove_axis s axis in
  let dst = Array.make (Shape.numel out_shape) 0 in
  let best = Array.make (Shape.numel out_shape) Float.neg_infinity in
  let src = Tensor.floats a in
  along ~axis a (fun o st n ->
      for i = 0 to n - 1 do
        let k = o.(0) + (i * st.(0)) and v = src.(o.(1) + (i * st.(1))) in
        if v > best.(k) then begin
          best.(k) <- v;
          dst.(k) <- o.(2) + (i * st.(2))
        end
      done);
  { Tensor.shape = out_shape; dtype = Dtype.I64; buf = Tensor.Ints dst }
