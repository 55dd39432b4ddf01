(** Dense n-dimensional tensors.

    A tensor owns a contiguous row-major buffer. Buffers are plain OCaml
    arrays — [float array] for floating dtypes, [int array] for integer
    dtypes — because the native compiler produces far better code for them
    than for Bigarrays (unboxed access, register-tiled loops); the dtype
    remains a logical tag that drives promotion, serialization width and
    byte accounting. Layout, broadcast and reduction operators walk their
    operands through offsets and strides ({!Strided}), and every operator
    called alone returns a fresh tensor: no tensor is a view of another.
    The Nimble VM needs that, since it overwrites its pooled storage
    between calls, and a result aliasing an input would change under it.
    Views exist only inside a fused kernel, for the length of one call: a
    staged elementwise chain reads a [strided_slice] as an offset and
    strides into its input and writes the destination the VM hands it
    ([Nimble_codegen.Lower]). *)

type buf =
  | Floats of float array  (** F32 / F64 *)
  | Ints of int array  (** I32 / I64 / U8 *)

type f32_buf = float array
(** The raw buffer type kernel code works on. *)

type t = { shape : Shape.t; dtype : Dtype.t; buf : buf }

exception Type_error of string

let type_err fmt = Fmt.kstr (fun s -> raise (Type_error s)) fmt

let shape t = t.shape
let rank t = Shape.rank t.shape
let numel t = Shape.numel t.shape
let dtype t = t.dtype

let size_in_bytes t = numel t * Dtype.size_in_bytes t.dtype

(* ------------------------------------------------------------------ *)
(* Creation                                                            *)
(* ------------------------------------------------------------------ *)

let alloc_buf (dt : Dtype.t) n : buf =
  if Dtype.is_float dt then Floats (Array.make n 0.0) else Ints (Array.make n 0)

let empty ?(dtype = Dtype.F32) shape =
  Shape.validate shape;
  { shape = Array.copy shape; dtype; buf = alloc_buf dtype (Shape.numel shape) }

(** An integer element of dtype [dt] as stored: wrapped for U8. *)
let clamp dt v = if dt = Dtype.U8 then v land 0xff else v

(* An integer tensor filled with ±infinity holds the extreme integer of
   that sign ([int_of_float] of an infinity is unspecified), so a max or
   min reduction's starting value is its identity at every dtype. *)
let fill_float t v =
  (match t.buf with
  | Floats b -> Array.fill b 0 (Array.length b) v
  | Ints b ->
      let i =
        if v = Float.infinity then max_int
        else if v = Float.neg_infinity then min_int
        else int_of_float v
      in
      Array.fill b 0 (Array.length b) (clamp t.dtype i));
  t

let full ?(dtype = Dtype.F32) shape v = fill_float (empty ~dtype shape) v
let zeros ?(dtype = Dtype.F32) shape = full ~dtype shape 0.0
let ones ?(dtype = Dtype.F32) shape = full ~dtype shape 1.0
let scalar ?(dtype = Dtype.F32) v = full ~dtype Shape.scalar v

(* ------------------------------------------------------------------ *)
(* Element access                                                      *)
(* ------------------------------------------------------------------ *)

let get_float t i =
  match t.buf with
  | Floats b -> Array.unsafe_get b i
  | Ints b -> float_of_int (Array.unsafe_get b i)

let set_float t i v =
  match t.buf with
  | Floats b -> Array.unsafe_set b i v
  | Ints b -> Array.unsafe_set b i (clamp t.dtype (int_of_float v))

let get_int t i =
  match t.buf with
  | Floats b -> int_of_float (Array.unsafe_get b i)
  | Ints b -> Array.unsafe_get b i

let set_int t i v =
  match t.buf with
  | Floats b -> Array.unsafe_set b i (float_of_int v)
  | Ints b -> Array.unsafe_set b i (clamp t.dtype v)

let get t idx = get_float t (Shape.linear_index t.shape idx)
let set t idx v = set_float t (Shape.linear_index t.shape idx) v

let item t =
  if numel t <> 1 then type_err "item: tensor has %d elements" (numel t);
  get_float t 0

let item_int t =
  if numel t <> 1 then type_err "item_int: tensor has %d elements" (numel t);
  get_int t 0

(** Raw float buffer of a floating tensor (for hand-written kernels). *)
let float_buf t =
  match t.buf with
  | Floats b -> b
  | Ints _ -> type_err "float_buf: tensor has dtype %a" Dtype.pp t.dtype

(** The elements as floats, for a kernel that only reads them: the buffer
    itself for a floating tensor, a converted copy for an integer one. *)
let floats t =
  match t.buf with Floats b -> b | Ints b -> Array.map float_of_int b

(* ------------------------------------------------------------------ *)
(* Conversions                                                         *)
(* ------------------------------------------------------------------ *)

let of_float_array ?(dtype = Dtype.F32) shape (src : float array) =
  if Array.length src <> Shape.numel shape then
    type_err "of_float_array: %d elements for shape %a" (Array.length src)
      Shape.pp shape;
  if Dtype.is_float dtype then
    (* already the buffer representation: one copy, no per-element dispatch *)
    { shape = Array.copy shape; dtype; buf = Floats (Array.copy src) }
  else begin
    let t = empty ~dtype shape in
    Array.iteri (fun i v -> set_float t i v) src;
    t
  end

let of_int_array ?(dtype = Dtype.I64) shape (src : int array) =
  if Array.length src <> Shape.numel shape then
    type_err "of_int_array: %d elements for shape %a" (Array.length src)
      Shape.pp shape;
  let t = empty ~dtype shape in
  Array.iteri (fun i v -> set_int t i v) src;
  t

let to_float_array t =
  match t.buf with Floats b -> Array.copy b | Ints _ -> floats t

let to_int_array t =
  match t.buf with
  | Ints b -> Array.copy b
  | Floats _ -> Array.init (numel t) (get_int t)

(** A fresh tensor with identical contents. *)
let copy t =
  let buf =
    match t.buf with
    | Floats b -> Floats (Array.copy b)
    | Ints b -> Ints (Array.copy b)
  in
  { shape = Array.copy t.shape; dtype = t.dtype; buf }

(** Copy contents of [src] into [dst] (same element count), converting
    between float and integer buffers: how a fused kernel stores a result
    it did not compute in place into its destination. *)
let blit ~src ~dst =
  if numel src <> numel dst then
    type_err "blit: element count mismatch (%d vs %d)" (numel src) (numel dst);
  match (src.buf, dst.buf) with
  | Floats a, Floats b -> Array.blit a 0 b 0 (Array.length a)
  | Ints a, Ints b -> Array.blit a 0 b 0 (Array.length a)
  | _ ->
      for i = 0 to numel src - 1 do
        set_float dst i (get_float src i)
      done

(** Same data, new shape (copies; element count must match). *)
let reshape t target =
  let new_shape = Shape.resolve_reshape ~from:t.shape target in
  let out = copy t in
  { out with shape = new_shape }

let astype t dt =
  if Dtype.equal t.dtype dt then copy t
  else begin
    let out = empty ~dtype:dt t.shape in
    if Dtype.is_float dt then
      for i = 0 to numel t - 1 do
        set_float out i (get_float t i)
      done
    else
      for i = 0 to numel t - 1 do
        set_int out i (get_int t i)
      done;
    out
  end

(** A rank-1 i64 tensor holding the shape of [t] — the runtime value produced
    by the VM's [ShapeOf] instruction. *)
let shape_tensor t = of_int_array ~dtype:Dtype.I64 [| rank t |] (Array.copy t.shape)

(** Interpret a rank-1 integer tensor as a shape. *)
let to_shape t =
  if rank t <> 1 then type_err "to_shape: expected rank-1, got %a" Shape.pp t.shape;
  to_int_array t

(* ------------------------------------------------------------------ *)
(* Structural helpers                                                  *)
(* ------------------------------------------------------------------ *)

let equal_shape a b = Shape.equal a.shape b.shape

let approx_equal ?(atol = 1e-5) ?(rtol = 1e-4) a b =
  equal_shape a b
  && Dtype.equal a.dtype b.dtype
  &&
  let n = numel a in
  let rec go i =
    if i >= n then true
    else
      let x = get_float a i and y = get_float b i in
      let tol = atol +. (rtol *. Float.abs y) in
      if Float.abs (x -. y) <= tol then go (i + 1) else false
  in
  go 0

let equal a b = approx_equal ~atol:0.0 ~rtol:0.0 a b

(** [init shape f] sets each element to [f] of its multi-index, calling
    [f] in row-major order on the calling domain. *)
let init ?(dtype = Dtype.F32) shape f =
  let t = empty ~dtype shape and r = Shape.rank shape in
  (* operand [k + 1] has stride 1 on dim [k] only: its offset is the index there *)
  let ops = Array.init (r + 1) (fun k -> (0, Array.init r (fun j -> Bool.to_int (j = k - 1)))) in
  ops.(0) <- (0, Shape.strides shape);
  Nimble_parallel.Parallel.pinned_sequential (fun () ->
      Strided.iter shape ops (fun o st n ->
          for i = 0 to n - 1 do
            let idx = Array.init r (fun k -> o.(k + 1) + (i * st.(k + 1))) in
            set_float t (o.(0) + (i * st.(0))) (f idx)
          done));
  t

let randn ?(dtype = Dtype.F32) ?(scale = 1.0) rng shape =
  let t = empty ~dtype shape in
  for i = 0 to numel t - 1 do
    set_float t i (scale *. Rng.normal rng)
  done;
  t

let rand_uniform ?(dtype = Dtype.F32) rng ~lo ~hi shape =
  let t = empty ~dtype shape in
  for i = 0 to numel t - 1 do
    set_float t i (Rng.uniform rng ~lo ~hi)
  done;
  t

let pp ppf t =
  let n = numel t in
  let max_show = 12 in
  let elems =
    List.init (min n max_show) (fun i ->
        if Dtype.is_float t.dtype then Fmt.str "%g" (get_float t i)
        else string_of_int (get_int t i))
  in
  let suffix = if n > max_show then "; ..." else "" in
  Fmt.pf ppf "Tensor%a<%a>[%s%s]" Shape.pp t.shape Dtype.pp t.dtype
    (String.concat "; " elems)
    suffix

let to_string t = Fmt.str "%a" pp t
