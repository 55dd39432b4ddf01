(* The per-element index loops that lib/tensor's layout, broadcast and
   reduction operators ran before they shared one strided loop
   (Strided.iter), kept verbatim as the oracle test_tensor checks that
   loop against. Each visits its output (or input) one element at a time:
   unravel the linear index, map the multi-index back through
   [Shape.broadcast_offset] or [Shape.linear_index], and move the element
   through [get_float]/[set_float]. So an integer above 2^53 loses bits
   here, which the strided operators fix; the oracle property draws
   integers that a float holds exactly. *)

open Nimble_tensor
module Parallel = Nimble_parallel.Parallel

module Shape = struct
  include Shape

  (** Inverse of [linear_index]: decompose a linear offset into a multi-index. *)
  let unravel (s : t) (lin : int) : int array =
    let n = Array.length s in
    let idx = Array.make n 0 in
    let rem = ref lin in
    let st = strides s in
    for i = 0 to n - 1 do
      if s.(i) > 0 then begin
        idx.(i) <- !rem / st.(i);
        rem := !rem mod st.(i)
      end
    done;
    idx

  (** Map an index in the broadcast output shape back to a linear offset in an
      input of shape [src] (dimensions of size 1 are repeated). *)
  let broadcast_offset ~(src : t) ~(out : t) (out_idx : int array) =
    let rs = rank src and ro = rank out in
    let st = strides src in
    let acc = ref 0 in
    for i = 0 to rs - 1 do
      let oi = out_idx.(ro - rs + i) in
      let si = if src.(i) = 1 then 0 else oi in
      acc := !acc + (si * st.(i))
    done;
    !acc
end

(* Ops_elem *)

let elem_grain = Parallel.default_min_work

let same_shape_floats a b =
  match (a.Tensor.buf, b.Tensor.buf) with
  | Tensor.Floats ba, Tensor.Floats bb
    when Shape.equal (Tensor.shape a) (Tensor.shape b) ->
      Some (ba, bb)
  | _ -> None

(** Apply [f] elementwise over the broadcast of [a] and [b]. *)
let binop ?out_dtype name f a b =
  let out_shape =
    match Shape.broadcast (Tensor.shape a) (Tensor.shape b) with
    | Some s -> s
    | None ->
        Tensor.type_err "%s: cannot broadcast %a with %a" name Shape.pp
          (Tensor.shape a) Shape.pp (Tensor.shape b)
  in
  let dt =
    match out_dtype with
    | Some dt -> dt
    | None -> Dtype.promote (Tensor.dtype a) (Tensor.dtype b)
  in
  let out = Tensor.empty ~dtype:dt out_shape in
  (match (same_shape_floats a b, out.Tensor.buf, out_dtype) with
  | Some (ba, bb), Tensor.Floats bo, None ->
      Parallel.parallel_for ~grain:elem_grain (Array.length bo) (fun lo hi ->
          for i = lo to hi - 1 do
            Array.unsafe_set bo i (f (Array.unsafe_get ba i) (Array.unsafe_get bb i))
          done)
  | _ ->
      let n = Shape.numel out_shape in
      for i = 0 to n - 1 do
        let idx = Shape.unravel out_shape i in
        let ia = Shape.broadcast_offset ~src:(Tensor.shape a) ~out:out_shape idx in
        let ib = Shape.broadcast_offset ~src:(Tensor.shape b) ~out:out_shape idx in
        Tensor.set_float out i (f (Tensor.get_float a ia) (Tensor.get_float b ib))
      done);
  out

(** [where cond a b] selects elementwise from [a] where [cond] is nonzero. *)
let where cond a b =
  let s1 = Shape.broadcast_exn (Tensor.shape cond) (Tensor.shape a) in
  let out_shape = Shape.broadcast_exn s1 (Tensor.shape b) in
  let dt = Dtype.promote (Tensor.dtype a) (Tensor.dtype b) in
  let out = Tensor.empty ~dtype:dt out_shape in
  for i = 0 to Shape.numel out_shape - 1 do
    let idx = Shape.unravel out_shape i in
    let ic = Shape.broadcast_offset ~src:(Tensor.shape cond) ~out:out_shape idx in
    let ia = Shape.broadcast_offset ~src:(Tensor.shape a) ~out:out_shape idx in
    let ib = Shape.broadcast_offset ~src:(Tensor.shape b) ~out:out_shape idx in
    let v =
      if Tensor.get_float cond ic <> 0.0 then Tensor.get_float a ia
      else Tensor.get_float b ib
    in
    Tensor.set_float out i v
  done;
  out

(* Ops_reduce *)

(** Reduce along [axis]; [keepdims] keeps it as size 1. *)
let reduce_axis name init f ?(keepdims = false) ~axis a =
  ignore name;
  let s = Tensor.shape a in
  let axis = Shape.normalize_axis ~rank:(Shape.rank s) axis in
  let out_shape =
    if keepdims then Array.mapi (fun i d -> if i = axis then 1 else d) s
    else Shape.remove_axis s axis
  in
  let out = Tensor.full ~dtype:(Tensor.dtype a) out_shape init in
  (match (a.Tensor.buf, out.Tensor.buf) with
  | Tensor.Floats src, Tensor.Floats dst ->
      (* Each output element o = (outer, inner) reduces the [len] input
         elements at [outer*len*inner_sz + inner + j*inner_sz], j
         ascending — the same order the linear sweep below visits them
         in, so this path is bitwise-identical to it. *)
      let len = s.(axis) in
      let inner_sz =
        let p = ref 1 in
        for j = axis + 1 to Shape.rank s - 1 do
          p := !p * s.(j)
        done;
        !p
      in
      let grain =
        Parallel.grain_for ~work_per_item:len ~min_work:Parallel.default_min_work
      in
      Parallel.parallel_for ~grain (Array.length dst) (fun lo hi ->
          for o = lo to hi - 1 do
            let outer = o / inner_sz and inner = o mod inner_sz in
            let base = (outer * len * inner_sz) + inner in
            let acc = ref init in
            for j = 0 to len - 1 do
              acc := f !acc (Array.unsafe_get src (base + (j * inner_sz)))
            done;
            Array.unsafe_set dst o !acc
          done)
  | _ ->
      (* Offset in output for each input element: drop the axis coordinate. *)
      let n = Tensor.numel a in
      for i = 0 to n - 1 do
        let idx = Shape.unravel s i in
        let out_idx =
          if keepdims then Array.mapi (fun j v -> if j = axis then 0 else v) idx
          else
            Array.init (Array.length idx - 1) (fun j ->
                if j < axis then idx.(j) else idx.(j + 1))
        in
        let o = Shape.linear_index out_shape out_idx in
        Tensor.set_float out o (f (Tensor.get_float out o) (Tensor.get_float a i))
      done);
  out

(** Index of the max element along [axis]; output dtype i64. *)
let argmax ~axis a =
  let s = Tensor.shape a in
  let axis = Shape.normalize_axis ~rank:(Shape.rank s) axis in
  let out_shape = Shape.remove_axis s axis in
  let out = Tensor.zeros ~dtype:Dtype.I64 out_shape in
  let best = Tensor.full ~dtype:Dtype.F64 out_shape Float.neg_infinity in
  for i = 0 to Tensor.numel a - 1 do
    let idx = Shape.unravel s i in
    let out_idx =
      Array.init (Array.length idx - 1) (fun j -> if j < axis then idx.(j) else idx.(j + 1))
    in
    let o = Shape.linear_index out_shape out_idx in
    let v = Tensor.get_float a i in
    if v > Tensor.get_float best o then begin
      Tensor.set_float best o v;
      Tensor.set_int out o idx.(axis)
    end
  done;
  out

(* Ops_shape *)

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
  let seen = Array.make r false in
  Array.iter
    (fun ax ->
      let ax = Shape.normalize_axis ~rank:r ax in
      if seen.(ax) then Tensor.type_err "transpose: duplicate axis %d" ax;
      seen.(ax) <- true)
    axes;
  let out_shape = Array.map (fun ax -> s.(Shape.normalize_axis ~rank:r ax)) axes in
  let out = Tensor.empty ~dtype:(Tensor.dtype a) out_shape in
  for i = 0 to Tensor.numel a - 1 do
    let out_idx = Shape.unravel out_shape i in
    let in_idx = Array.make r 0 in
    Array.iteri (fun j ax -> in_idx.(Shape.normalize_axis ~rank:r ax) <- out_idx.(j)) axes;
    Tensor.set_float out i (Tensor.get_float a (Shape.linear_index s in_idx))
  done;
  out

(** Concatenate along [axis]; all other dims must match. *)
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
      let out_shape = Array.mapi (fun i d -> if i = axis then total else d) base in
      let out = Tensor.empty ~dtype:(Tensor.dtype first) out_shape in
      (* Copy each input into its slice of the output along [axis]. *)
      let offset = ref 0 in
      List.iter
        (fun t ->
          let s = Tensor.shape t in
          for i = 0 to Tensor.numel t - 1 do
            let idx = Shape.unravel s i in
            idx.(axis) <- idx.(axis) + !offset;
            Tensor.set_float out (Shape.linear_index out_shape idx) (Tensor.get_float t i)
          done;
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
  List.init sections (fun sec ->
      let out = Tensor.empty ~dtype:(Tensor.dtype a) out_shape in
      for i = 0 to Tensor.numel out - 1 do
        let idx = Shape.unravel out_shape i in
        idx.(axis) <- idx.(axis) + (sec * part);
        Tensor.set_float out i (Tensor.get_float a (Shape.linear_index s idx))
      done;
      out)

(** [strided_slice ~begins ~ends a]: per-dim windows from [begins]
    (inclusive) to [ends] (exclusive), step 1. Negative indices count from
    the end; ends are clamped. *)
let strided_slice ~begins ~ends a =
  let s = Tensor.shape a in
  let r = Shape.rank s in
  if Array.length begins <> r || Array.length ends <> r then
    Tensor.type_err "strided_slice: begins/ends rank mismatch";
  let lo = Array.make r 0 and hi = Array.make r 0 in
  for i = 0 to r - 1 do
    let norm v = if v < 0 then v + s.(i) else v in
    lo.(i) <- Stdlib.max 0 (Stdlib.min (norm begins.(i)) s.(i));
    hi.(i) <- Stdlib.max lo.(i) (Stdlib.min (norm ends.(i)) s.(i))
  done;
  let out_shape = Array.init r (fun i -> hi.(i) - lo.(i)) in
  let out = Tensor.empty ~dtype:(Tensor.dtype a) out_shape in
  for i = 0 to Tensor.numel out - 1 do
    let idx = Shape.unravel out_shape i in
    let src = Array.mapi (fun j v -> v + lo.(j)) idx in
    Tensor.set_float out i (Tensor.get_float a (Shape.linear_index s src))
  done;
  out

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
  let ir = Shape.rank is in
  for i = 0 to Tensor.numel out - 1 do
    let idx = Shape.unravel out_shape i in
    let ind_idx = Array.sub idx axis ir in
    let which = Tensor.get_int indices (Shape.linear_index is ind_idx) in
    let which = if which < 0 then which + s.(axis) else which in
    if which < 0 || which >= s.(axis) then
      Tensor.type_err "take: index %d out of bounds for dim %d" which s.(axis);
    let src =
      Array.concat
        [ Array.sub idx 0 axis; [| which |];
          Array.sub idx (axis + ir) (Array.length idx - axis - ir) ]
    in
    Tensor.set_float out i (Tensor.get_float data (Shape.linear_index s src))
  done;
  out

(** Repeat the tensor along each axis per [reps]. *)
let tile ~reps a =
  let s = Tensor.shape a in
  let r = Shape.rank s in
  if Array.length reps <> r then Tensor.type_err "tile: reps rank mismatch";
  let out_shape = Array.mapi (fun i d -> d * reps.(i)) s in
  let out = Tensor.empty ~dtype:(Tensor.dtype a) out_shape in
  for i = 0 to Tensor.numel out - 1 do
    let idx = Shape.unravel out_shape i in
    let src = Array.mapi (fun j v -> v mod s.(j)) idx in
    Tensor.set_float out i (Tensor.get_float a (Shape.linear_index s src))
  done;
  out

(* Tensor *)

let init ?(dtype = Dtype.F32) shape f =
  let t = Tensor.empty ~dtype shape in
  for i = 0 to Tensor.numel t - 1 do
    Tensor.set_float t i (f (Shape.unravel shape i))
  done;
  t
