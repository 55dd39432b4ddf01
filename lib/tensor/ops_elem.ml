(** Elementwise operators with NumPy-style broadcasting.

    A binary operator is one {!Strided.iter} loop with stride 0 on each
    broadcast dim of an input; same-shape operands merge into one
    contiguous run. A unary operator maps the buffer. Both run over the
    {!Nimble_parallel.Parallel} domain pool, each element written by
    exactly one domain (bitwise-identical to sequential); small tensors
    stay under the grain and never synchronize. *)

module Parallel = Nimble_parallel.Parallel

(* Elementwise maps cost ~1 scalar op per index, so the grain is simply
   the minimum chunk work. *)
let elem_grain = Parallel.default_min_work

(** Apply [f] elementwise over the broadcast of [a] and [b]. [f] sees
    every element as a float; an integer output stores its result as
    {!Tensor.set_float} does. *)
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
  let xa = Tensor.floats a and xb = Tensor.floats b in
  (* an integer output is computed in floats, then stored *)
  let res = if Dtype.is_float dt then Tensor.float_buf out else Array.make (Tensor.numel out) 0.0 in
  let ops = Strided.broadcast out_shape [ Tensor.shape a; Tensor.shape b ] in
  Strided.iter out_shape ops (fun o st n ->
      let oo = o.(0) and oa = o.(1) and ob = o.(2) in
      let so = st.(0) and sa = st.(1) and sb = st.(2) in
      for i = 0 to n - 1 do
        Array.unsafe_set res (oo + (i * so))
          (f (Array.unsafe_get xa (oa + (i * sa))) (Array.unsafe_get xb (ob + (i * sb))))
      done);
  (match out.Tensor.buf with
  | Tensor.Ints bo -> Array.iteri (fun i v -> bo.(i) <- Tensor.clamp dt (int_of_float v)) res
  | Tensor.Floats _ -> ());
  out

(** Apply [f] elementwise. *)
let unop ?out_dtype f a =
  let dt = match out_dtype with Some dt -> dt | None -> Tensor.dtype a in
  let out = Tensor.empty ~dtype:dt (Tensor.shape a) in
  (match (a.Tensor.buf, out.Tensor.buf) with
  | Tensor.Floats ba, Tensor.Floats bo ->
      Parallel.parallel_for ~grain:elem_grain (Array.length bo) (fun lo hi ->
          for i = lo to hi - 1 do
            Array.unsafe_set bo i (f (Array.unsafe_get ba i))
          done)
  | _ ->
      for i = 0 to Tensor.numel a - 1 do
        Tensor.set_float out i (f (Tensor.get_float a i))
      done);
  out

let add a b = binop "add" ( +. ) a b
let sub a b = binop "subtract" ( -. ) a b
let mul a b = binop "multiply" ( *. ) a b

let div a b =
  binop "divide" (fun x y -> if y = 0.0 then Float.nan else x /. y) a b

let maximum a b = binop "maximum" Float.max a b
let minimum a b = binop "minimum" Float.min a b
let pow a b = binop "power" Float.pow a b

let neg a = unop Float.neg a
let abs a = unop Float.abs a
let exp a = unop Stdlib.exp a
let log a = unop Stdlib.log a
let sqrt a = unop Stdlib.sqrt a
let tanh a = unop Stdlib.tanh a
let sigmoid a = unop (fun x -> 1.0 /. (1.0 +. Stdlib.exp (-.x))) a
let relu a = unop (fun x -> Float.max 0.0 x) a

(** Gaussian error linear unit (the tanh approximation used by BERT). *)
let gelu a =
  let c = Stdlib.sqrt (2.0 /. Float.pi) in
  unop
    (fun x -> 0.5 *. x *. (1.0 +. Stdlib.tanh (c *. (x +. (0.044715 *. x *. x *. x)))))
    a

let erf_approx x =
  (* Abramowitz & Stegun 7.1.26; enough precision for tests and models. *)
  let sign = if x < 0.0 then -1.0 else 1.0 in
  let x = Float.abs x in
  let t = 1.0 /. (1.0 +. (0.3275911 *. x)) in
  let poly =
    (((((1.061405429 *. t) -. 1.453152027) *. t) +. 1.421413741) *. t
    -. 0.284496736)
    *. t
    +. 0.254829592
  in
  sign *. (1.0 -. (poly *. t *. Stdlib.exp (-.x *. x)))

let erf a = unop erf_approx a

let add_scalar a c = unop (fun x -> x +. c) a
let mul_scalar a c = unop (fun x -> x *. c) a

let bool_binop name f a b =
  binop ~out_dtype:Dtype.U8 name (fun x y -> if f x y then 1.0 else 0.0) a b

let equal a b = bool_binop "equal" (fun x y -> x = y) a b
let not_equal a b = bool_binop "not_equal" (fun x y -> x <> y) a b
let less a b = bool_binop "less" ( < ) a b
let less_equal a b = bool_binop "less_equal" ( <= ) a b
let greater a b = bool_binop "greater" ( > ) a b
let greater_equal a b = bool_binop "greater_equal" ( >= ) a b

let logical_and a b = bool_binop "logical_and" (fun x y -> x <> 0.0 && y <> 0.0) a b
let logical_or a b = bool_binop "logical_or" (fun x y -> x <> 0.0 || y <> 0.0) a b
let logical_not a = unop ~out_dtype:Dtype.U8 (fun x -> if x = 0.0 then 1.0 else 0.0) a

(** [where cond a b] selects elementwise from [a] where [cond] is nonzero.
    Integer elements are copied as integers. *)
let where cond a b =
  let s1 = Shape.broadcast_exn (Tensor.shape cond) (Tensor.shape a) in
  let out_shape = Shape.broadcast_exn s1 (Tensor.shape b) in
  let dt = Dtype.promote (Tensor.dtype a) (Tensor.dtype b) in
  let out = Tensor.empty ~dtype:dt out_shape in
  let ops = Strided.broadcast out_shape (List.map Tensor.shape [ cond; a; b ]) in
  let xc = Tensor.floats cond in
  let select bo ba bb =
    Strided.iter out_shape ops (fun o st n ->
        for i = 0 to n - 1 do
          let at k = o.(k) + (i * st.(k)) in
          bo.(at 0) <- (if xc.(at 1) <> 0.0 then ba.(at 2) else bb.(at 3))
        done)
  in
  (match (out.Tensor.buf, a.Tensor.buf, b.Tensor.buf) with
  | Tensor.Ints bo, Tensor.Ints ba, Tensor.Ints bb -> select bo ba bb
  | _ -> select (Tensor.float_buf out) (Tensor.floats a) (Tensor.floats b));
  out
