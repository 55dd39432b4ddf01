(** Elementwise operators with NumPy-style broadcasting.

    Every operator is a variant ({!unop}, {!binop}), and {!map1} and
    {!map2} are its loops: each picks the operator once per run, by a
    [match] outside the element loop, and reads and writes its operands
    through an offset and a step, so the same loops serve a tensor, a
    strided view and a scratch strip (the staged kernels of
    [Nimble_codegen.Lower] call them too). A binary operator is one
    {!Strided.run} over a plan with stride 0 on each broadcast dim of an
    input; same-shape operands merge into one contiguous run. A unary
    operator maps the buffer. Both run over the {!Nimble_parallel.Parallel}
    domain pool, each element written by exactly one domain
    (bitwise-identical to sequential); small tensors stay under the grain
    and never synchronize. *)

module Parallel = Nimble_parallel.Parallel

(* Elementwise maps cost ~1 scalar op per index, so the grain is simply
   the minimum chunk work. *)
let elem_grain = Parallel.default_min_work

type unop =
  | Neg
  | Abs
  | Exp
  | Log
  | Sqrt
  | Tanh
  | Sigmoid
  | Relu
  | Gelu  (** the tanh approximation used by BERT *)
  | Erf  (** Abramowitz & Stegun 7.1.26 *)
  | Not  (** logical not: 1.0 where the element is 0.0, else 0.0 *)
  | Add_scalar of float
  | Mul_scalar of float

type binop =
  | Add
  | Sub
  | Mul
  | Div  (** a zero divisor gives nan *)
  | Max
  | Min
  | Pow
  | Eq
  | Ne
  | Lt
  | Le
  | Gt
  | Ge
  | And
  | Or

let binop_name = function
  | Add -> "add"
  | Sub -> "subtract"
  | Mul -> "multiply"
  | Div -> "divide"
  | Max -> "maximum"
  | Min -> "minimum"
  | Pow -> "power"
  | Eq -> "equal"
  | Ne -> "not_equal"
  | Lt -> "less"
  | Le -> "less_equal"
  | Gt -> "greater"
  | Ge -> "greater_equal"
  | And -> "logical_and"
  | Or -> "logical_or"

(** The operator an IR name denotes, if it is elementwise. *)
let unop_of_name = function
  | "negative" -> Some Neg
  | "abs" -> Some Abs
  | "exp" -> Some Exp
  | "log" -> Some Log
  | "sqrt" -> Some Sqrt
  | "tanh" -> Some Tanh
  | "sigmoid" -> Some Sigmoid
  | "relu" -> Some Relu
  | "gelu" -> Some Gelu
  | "erf" -> Some Erf
  | "logical_not" -> Some Not
  | _ -> None

let binop_of_name = function
  | "add" | "bias_add" -> Some Add
  | "subtract" -> Some Sub
  | "multiply" -> Some Mul
  | "divide" -> Some Div
  | "maximum" -> Some Max
  | "minimum" -> Some Min
  | "power" -> Some Pow
  | "equal" -> Some Eq
  | "not_equal" -> Some Ne
  | "less" -> Some Lt
  | "less_equal" -> Some Le
  | "greater" -> Some Gt
  | "greater_equal" -> Some Ge
  | "logical_and" -> Some And
  | "logical_or" -> Some Or
  | _ -> None

(** The dtype [op] produces from operands of dtypes [a] and [b]:
    comparisons and logical operators give [U8], the rest promote. *)
let binop_dtype op a b =
  match op with
  | Eq | Ne | Lt | Le | Gt | Ge | And | Or -> Dtype.U8
  | Add | Sub | Mul | Div | Max | Min | Pow -> Dtype.promote a b

let unop_dtype op a = match op with Not -> Dtype.U8 | _ -> a

let gelu_c = Stdlib.sqrt (2.0 /. Float.pi)

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

external get : float array -> int -> float = "%array_unsafe_get"
external set : float array -> int -> float -> unit = "%array_unsafe_set"

let b2f b = if b then 1.0 else 0.0

(** [map1 op d od sd x ox sx n] writes [op] of [x.(ox + i * sx)] to
    [d.(od + i * sd)] for [i < n]. The caller checks the offsets; [d]
    may be [x] at the same offset and step. *)
let map1 op (d : float array) od sd (x : float array) ox sx n =
  match op with
  | Neg -> for i = 0 to n - 1 do set d (od + (i * sd)) (Float.neg (get x (ox + (i * sx)))) done
  | Abs -> for i = 0 to n - 1 do set d (od + (i * sd)) (Float.abs (get x (ox + (i * sx)))) done
  | Exp -> for i = 0 to n - 1 do set d (od + (i * sd)) (Stdlib.exp (get x (ox + (i * sx)))) done
  | Log -> for i = 0 to n - 1 do set d (od + (i * sd)) (Stdlib.log (get x (ox + (i * sx)))) done
  | Sqrt -> for i = 0 to n - 1 do set d (od + (i * sd)) (Stdlib.sqrt (get x (ox + (i * sx)))) done
  | Tanh -> for i = 0 to n - 1 do set d (od + (i * sd)) (Stdlib.tanh (get x (ox + (i * sx)))) done
  | Sigmoid ->
      for i = 0 to n - 1 do
        set d (od + (i * sd)) (1.0 /. (1.0 +. Stdlib.exp (-.get x (ox + (i * sx)))))
      done
  | Relu -> for i = 0 to n - 1 do set d (od + (i * sd)) (Float.max 0.0 (get x (ox + (i * sx)))) done
  | Gelu ->
      for i = 0 to n - 1 do
        let v = get x (ox + (i * sx)) in
        set d (od + (i * sd))
          (0.5 *. v *. (1.0 +. Stdlib.tanh (gelu_c *. (v +. (0.044715 *. v *. v *. v)))))
      done
  | Erf -> for i = 0 to n - 1 do set d (od + (i * sd)) (erf_approx (get x (ox + (i * sx)))) done
  | Not -> for i = 0 to n - 1 do set d (od + (i * sd)) (b2f (get x (ox + (i * sx)) = 0.0)) done
  | Add_scalar c -> for i = 0 to n - 1 do set d (od + (i * sd)) (get x (ox + (i * sx)) +. c) done
  | Mul_scalar c -> for i = 0 to n - 1 do set d (od + (i * sd)) (get x (ox + (i * sx)) *. c) done

(** [map2 op d od sd x ox sx y oy sy n] writes [op] of [x.(ox + i * sx)]
    and [y.(oy + i * sy)] to [d.(od + i * sd)] for [i < n], under the
    same contract as {!map1}. *)
let map2 op (d : float array) od sd (x : float array) ox sx (y : float array) oy sy n =
  match op with
  | Add -> for i = 0 to n - 1 do set d (od + (i * sd)) (get x (ox + (i * sx)) +. get y (oy + (i * sy))) done
  | Sub -> for i = 0 to n - 1 do set d (od + (i * sd)) (get x (ox + (i * sx)) -. get y (oy + (i * sy))) done
  | Mul -> for i = 0 to n - 1 do set d (od + (i * sd)) (get x (ox + (i * sx)) *. get y (oy + (i * sy))) done
  | Div ->
      for i = 0 to n - 1 do
        let v = get y (oy + (i * sy)) in
        set d (od + (i * sd)) (if v = 0.0 then Float.nan else get x (ox + (i * sx)) /. v)
      done
  | Max ->
      for i = 0 to n - 1 do
        set d (od + (i * sd)) (Float.max (get x (ox + (i * sx))) (get y (oy + (i * sy))))
      done
  | Min ->
      for i = 0 to n - 1 do
        set d (od + (i * sd)) (Float.min (get x (ox + (i * sx))) (get y (oy + (i * sy))))
      done
  | Pow ->
      for i = 0 to n - 1 do
        set d (od + (i * sd)) (Float.pow (get x (ox + (i * sx))) (get y (oy + (i * sy))))
      done
  | Eq -> for i = 0 to n - 1 do set d (od + (i * sd)) (b2f (get x (ox + (i * sx)) = get y (oy + (i * sy)))) done
  | Ne -> for i = 0 to n - 1 do set d (od + (i * sd)) (b2f (get x (ox + (i * sx)) <> get y (oy + (i * sy)))) done
  | Lt -> for i = 0 to n - 1 do set d (od + (i * sd)) (b2f (get x (ox + (i * sx)) < get y (oy + (i * sy)))) done
  | Le -> for i = 0 to n - 1 do set d (od + (i * sd)) (b2f (get x (ox + (i * sx)) <= get y (oy + (i * sy)))) done
  | Gt -> for i = 0 to n - 1 do set d (od + (i * sd)) (b2f (get x (ox + (i * sx)) > get y (oy + (i * sy)))) done
  | Ge -> for i = 0 to n - 1 do set d (od + (i * sd)) (b2f (get x (ox + (i * sx)) >= get y (oy + (i * sy)))) done
  | And ->
      for i = 0 to n - 1 do
        set d (od + (i * sd)) (b2f (get x (ox + (i * sx)) <> 0.0 && get y (oy + (i * sy)) <> 0.0))
      done
  | Or ->
      for i = 0 to n - 1 do
        set d (od + (i * sd)) (b2f (get x (ox + (i * sx)) <> 0.0 || get y (oy + (i * sy)) <> 0.0))
      done

(* An integer output is computed in floats, then stored as
   {!Tensor.set_float} stores. *)
let store_ints out (res : float array) =
  match out.Tensor.buf with
  | Tensor.Ints bo ->
      let dt = Tensor.dtype out in
      Array.iteri (fun i v -> bo.(i) <- Tensor.clamp dt (int_of_float v)) res
  | Tensor.Floats _ -> ()

(** Apply [op] elementwise over the broadcast of [a] and [b]. Every
    element is read as a float. *)
let binop op a b =
  let out_shape =
    match Shape.broadcast (Tensor.shape a) (Tensor.shape b) with
    | Some s -> s
    | None ->
        Tensor.type_err "%s: cannot broadcast %a with %a" (binop_name op) Shape.pp
          (Tensor.shape a) Shape.pp (Tensor.shape b)
  in
  let dt = binop_dtype op (Tensor.dtype a) (Tensor.dtype b) in
  let out = Tensor.empty ~dtype:dt out_shape in
  let xa = Tensor.floats a and xb = Tensor.floats b in
  let res = if Dtype.is_float dt then Tensor.float_buf out else Array.make (Tensor.numel out) 0.0 in
  let plan = Strided.plan out_shape (Strided.broadcast out_shape [ Tensor.shape a; Tensor.shape b ]) in
  Strided.run plan (fun _ o st n -> map2 op res o.(0) st.(0) xa o.(1) st.(1) xb o.(2) st.(2) n);
  store_ints out res;
  out

(** Apply [op] elementwise. *)
let unop op a =
  let out = Tensor.empty ~dtype:(unop_dtype op (Tensor.dtype a)) (Tensor.shape a) in
  (match (a.Tensor.buf, out.Tensor.buf) with
  | Tensor.Floats ba, Tensor.Floats bo ->
      Parallel.parallel_for ~grain:elem_grain (Array.length bo) (fun lo hi ->
          map1 op bo lo 1 ba lo 1 (hi - lo))
  | _ ->
      let res = Array.make (Tensor.numel a) 0.0 in
      map1 op res 0 1 (Tensor.floats a) 0 1 (Tensor.numel a);
      Array.iteri (Tensor.set_float out) res);
  out

let add a b = binop Add a b
let sub a b = binop Sub a b
let mul a b = binop Mul a b
let div a b = binop Div a b
let maximum a b = binop Max a b
let minimum a b = binop Min a b
let pow a b = binop Pow a b

let neg a = unop Neg a
let abs a = unop Abs a
let exp a = unop Exp a
let log a = unop Log a
let sqrt a = unop Sqrt a
let tanh a = unop Tanh a
let sigmoid a = unop Sigmoid a
let relu a = unop Relu a

(** Gaussian error linear unit (the tanh approximation used by BERT). *)
let gelu a = unop Gelu a

let erf a = unop Erf a

let add_scalar a c = unop (Add_scalar c) a
let mul_scalar a c = unop (Mul_scalar c) a

let equal a b = binop Eq a b
let not_equal a b = binop Ne a b
let less a b = binop Lt a b
let less_equal a b = binop Le a b
let greater a b = binop Gt a b
let greater_equal a b = binop Ge a b

let logical_and a b = binop And a b
let logical_or a b = binop Or a b
let logical_not a = unop Not a

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
