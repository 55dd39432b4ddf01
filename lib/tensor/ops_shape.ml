(** Shape-manipulating operators: transpose, concat, split, slice, take,
    and the data-dependent-shape operators the paper calls out ([arange],
    [unique]). Each layout operator copies a strided region of its input
    into a fresh output, integers as integers. *)

(** [copy dims (dst, dst_off, dst_st) (src, src_off, src_st)] copies the
    region of [src] at [src_off] with strides [src_st] over [dims] to the
    region of [dst] so described; both have one dtype. *)
let copy dims (dst, dst_off, dst_st) (src, src_off, src_st) =
  let ops = [| (dst_off, dst_st); (src_off, src_st) |] in
  match (dst.Tensor.buf, src.Tensor.buf) with
  | Tensor.Floats d, Tensor.Floats s ->
      Strided.iter dims ops (fun o st n ->
          let od = o.(0) and os = o.(1) and sd = st.(0) and ss = st.(1) in
          for i = 0 to n - 1 do
            Array.unsafe_set d (od + (i * sd)) (Array.unsafe_get s (os + (i * ss)))
          done)
  | Tensor.Ints d, Tensor.Ints s ->
      Strided.iter dims ops (fun o st n ->
          let od = o.(0) and os = o.(1) and sd = st.(0) and ss = st.(1) in
          for i = 0 to n - 1 do
            Array.unsafe_set d (od + (i * sd)) (Array.unsafe_get s (os + (i * ss)))
          done)
  | _ ->
      Tensor.type_err "copy: %a into %a" Dtype.pp (Tensor.dtype src) Dtype.pp
        (Tensor.dtype dst)

(* The region of [src] at [src_off] with strides [src_st] over [dims], as
   a fresh row-major tensor. *)
let gather dims src src_off src_st =
  let out = Tensor.empty ~dtype:(Tensor.dtype src) dims in
  copy dims (out, 0, Shape.strides dims) (src, src_off, src_st);
  out

(** Permute dimensions; [axes] defaults to full reversal. *)
let transpose ?axes a =
  let s = Tensor.shape a in
  let r = Shape.rank s in
  let axes =
    match axes with
    | Some ax -> ax
    | None -> Array.init r (fun i -> r - 1 - i)
  in
  if Array.length axes <> r then
    Tensor.type_err "transpose: %d axes for rank %d" (Array.length axes) r;
  let axes = Array.map (Shape.normalize_axis ~rank:r) axes in
  let seen = Array.make r false in
  Array.iter
    (fun ax ->
      if seen.(ax) then Tensor.type_err "transpose: duplicate axis %d" ax;
      seen.(ax) <- true)
    axes;
  let st = Shape.strides s in
  gather (Array.map (fun ax -> s.(ax)) axes) a 0 (Array.map (fun ax -> st.(ax)) axes)

(** Concatenate along [axis]; all other dims must match. The output has
    the first input's dtype, to which {!Tensor.astype} converts the rest. *)
let concat ~axis (ts : Tensor.t list) =
  match ts with
  | [] -> Tensor.type_err "concat: empty input list"
  | first :: _ ->
      let r = Tensor.rank first in
      let axis = Shape.normalize_axis ~rank:r axis in
      let base = Tensor.shape first in
      let total =
        List.fold_left
          (fun acc t ->
            let s = Tensor.shape t in
            if Shape.rank s <> r then
              Tensor.type_err "concat: rank mismatch %a vs %a" Shape.pp base Shape.pp s;
            Array.iteri
              (fun i d ->
                if i <> axis && d <> base.(i) then
                  Tensor.type_err "concat: dim %d mismatch %a vs %a" i Shape.pp base
                    Shape.pp s)
              s;
            acc + s.(axis))
          0 ts
      in
      let dt = Tensor.dtype first in
      let out_shape = Array.mapi (fun i d -> if i = axis then total else d) base in
      let out = Tensor.empty ~dtype:dt out_shape in
      let out_st = Shape.strides out_shape and offset = ref 0 in
      (* each input fills its window of the output along [axis] *)
      List.iter
        (fun t ->
          let t = if Dtype.equal (Tensor.dtype t) dt then t else Tensor.astype t dt in
          let s = Tensor.shape t in
          copy s (out, !offset * out_st.(axis), out_st) (t, 0, Shape.strides s);
          offset := !offset + s.(axis))
        ts;
      out

(** Split into [sections] equal parts along [axis]. *)
let split ~axis ~sections a =
  let s = Tensor.shape a in
  let axis = Shape.normalize_axis ~rank:(Shape.rank s) axis in
  if sections <= 0 || s.(axis) mod sections <> 0 then
    Tensor.type_err "split: dim %d not divisible into %d sections" s.(axis) sections;
  let part = s.(axis) / sections in
  let out_shape = Array.mapi (fun i d -> if i = axis then part else d) s in
  let st = Shape.strides s in
  List.init sections (fun sec -> gather out_shape a (sec * part * st.(axis)) st)

(** [slice_window s ~begins ~ends] is the window [(lo, hi)] per dim that
    {!strided_slice} takes of shape [s]: from [begins] (inclusive) to
    [ends] (exclusive), step 1. Negative indices count from the end; ends
    are clamped. *)
let slice_window s ~begins ~ends =
  let r = Shape.rank s in
  if Array.length begins <> r || Array.length ends <> r then
    Tensor.type_err "strided_slice: begins/ends rank mismatch";
  let lo = Array.make r 0 and hi = Array.make r 0 in
  for i = 0 to r - 1 do
    let norm v = if v < 0 then v + s.(i) else v in
    lo.(i) <- Stdlib.max 0 (Stdlib.min (norm begins.(i)) s.(i));
    hi.(i) <- Stdlib.max lo.(i) (Stdlib.min (norm ends.(i)) s.(i))
  done;
  (lo, hi)

(** [strided_slice ~begins ~ends a]: [a]'s {!slice_window}. *)
let strided_slice ~begins ~ends a =
  let s = Tensor.shape a in
  let lo, hi = slice_window s ~begins ~ends in
  let st = Shape.strides s in
  let off = Array.fold_left ( + ) 0 (Array.map2 ( * ) lo st) in
  gather (Array.mapi (fun i h -> h - lo.(i)) hi) a off st

(** Gather rows: [take ~axis data indices] with integer [indices]. *)
let take ?(axis = 0) data indices =
  let s = Tensor.shape data in
  let axis = Shape.normalize_axis ~rank:(Shape.rank s) axis in
  let is = Tensor.shape indices in
  (* Output shape: s with dim [axis] replaced by the index shape. *)
  let out_shape =
    Array.concat
      [ Array.sub s 0 axis; is; Array.sub s (axis + 1) (Shape.rank s - axis - 1) ]
  in
  let out = Tensor.empty ~dtype:(Tensor.dtype data) out_shape in
  (* with [data] as (outer, s.(axis), inner) and the output as (outer, k,
     inner), index [j] copies one (outer, inner) block *)
  let outer = Shape.numel (Array.sub s 0 axis) and inner = (Shape.strides s).(axis) in
  let k = Shape.numel is in
  Array.iteri
    (fun j which ->
      let which = if which < 0 then which + s.(axis) else which in
      if which < 0 || which >= s.(axis) then
        Tensor.type_err "take: index %d out of bounds for dim %d" which s.(axis);
      copy [| outer; inner |]
        (out, j * inner, [| k * inner; 1 |])
        (data, which * inner, [| s.(axis) * inner; 1 |]))
    (Tensor.to_int_array indices);
  out

(** [arange start stop step]: data-dependent output shape (paper §4.2). *)
let arange ?(dtype = Dtype.F32) ~start ~stop ~step () =
  if step = 0.0 then Tensor.type_err "arange: step must be nonzero";
  let n = Stdlib.max 0 (int_of_float (Float.ceil ((stop -. start) /. step))) in
  let out = Tensor.empty ~dtype [| n |] in
  for i = 0 to n - 1 do
    Tensor.set_float out i (start +. (float_of_int i *. step))
  done;
  out

(** Unique elements of a rank-1 tensor, in order of first occurrence:
    data-dependent output shape (paper §4.2). *)
let unique a =
  if Tensor.rank a <> 1 then
    Tensor.type_err "unique: expected rank-1, got %a" Shape.pp (Tensor.shape a);
  let seen = Hashtbl.create 16 in
  let acc = ref [] in
  for i = 0 to Tensor.numel a - 1 do
    let v = Tensor.get_float a i in
    if not (Hashtbl.mem seen v) then begin
      Hashtbl.add seen v ();
      acc := v :: !acc
    end
  done;
  let vals = Array.of_list (List.rev !acc) in
  Tensor.of_float_array ~dtype:(Tensor.dtype a) [| Array.length vals |] vals

(** Repeat the tensor along each axis per [reps]. *)
let tile ~reps a =
  let s = Tensor.shape a in
  let r = Shape.rank s in
  if Array.length reps <> r then Tensor.type_err "tile: reps rank mismatch";
  (* the output is row-major over the dims (reps.(0), s.(0), reps.(1),
     s.(1), ...), and the input repeats with stride 0 along each reps.(i) *)
  let st = Shape.strides s and pairs f = Array.concat (List.init r f) in
  let dims = pairs (fun i -> [| reps.(i); s.(i) |]) in
  let out = gather dims a 0 (pairs (fun i -> [| 0; st.(i) |])) in
  { out with Tensor.shape = Array.mapi (fun i d -> d * reps.(i)) s }

(** Stack rank-r tensors into a rank-(r+1) tensor along a new leading axis. *)
let stack (ts : Tensor.t list) =
  if ts = [] then Tensor.type_err "stack: empty input list";
  concat ~axis:0 (List.map (fun t -> Tensor.reshape t (Shape.insert_axis (Tensor.shape t) 0)) ts)
