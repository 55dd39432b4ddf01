(** Matrix products: [dense], [matmul], [batch_matmul] and [dense_bias].

    [dense] follows the TVM convention the paper uses: data is [(m, k)],
    weight is [(n, k)] (i.e. already transposed), output is [(m, n)].
    Every product, and every dense schedule of residue dispatch, runs
    through one driver, {!product}. It reads A's rows in place and B
    through an offset and two strides, so dense's [(n, k)] weight and the
    [(k, n)] operand of [matmul] and [batch_matmul] are both read where
    they lie. It sums each output from 0.0 with p ascending, so every
    schedule, register block and pool width gives the same bits. Integer
    operands are converted to floats once ({!Tensor.floats}); the result
    is always F32. *)

module Parallel = Nimble_parallel.Parallel

type schedule = Blocked of int | Row_by_row of int

(* The register blocks. A's row [i] starts at [ao + i * k], B's element
   (p, j) is at [bo + p * sp + j * sj], and C's row [i] starts at
   [co + i * n]. Each block writes every column of its rows, summing each
   output from 0.0 with p ascending. *)

(* One output: the column tail of the four-column blocks. *)
let dot (a : float array) (b : float array) ~k ~sp ~ai ~bj =
  let s = ref 0.0 in
  for p = 0 to k - 1 do
    s := !s +. (Array.unsafe_get a (ai + p) *. Array.unsafe_get b (bj + (p * sp)))
  done;
  !s

(* Eight rows by one column, for B with [sp = 1]: each element of B is
   loaded once for eight rows. *)
let rows8 (a : float array) (b : float array) (c : float array) ~k ~n ~sj ~ao ~bo ~co =
  let a1 = ao + k and a2 = ao + (2 * k) and a3 = ao + (3 * k) in
  let a4 = ao + (4 * k) and a5 = ao + (5 * k) and a6 = ao + (6 * k) and a7 = ao + (7 * k) in
  for j = 0 to n - 1 do
    let bj = bo + (j * sj) in
    let s0 = ref 0.0 and s1 = ref 0.0 and s2 = ref 0.0 and s3 = ref 0.0 in
    let s4 = ref 0.0 and s5 = ref 0.0 and s6 = ref 0.0 and s7 = ref 0.0 in
    for p = 0 to k - 1 do
      let bv = Array.unsafe_get b (bj + p) in
      s0 := !s0 +. (Array.unsafe_get a (ao + p) *. bv);
      s1 := !s1 +. (Array.unsafe_get a (a1 + p) *. bv);
      s2 := !s2 +. (Array.unsafe_get a (a2 + p) *. bv);
      s3 := !s3 +. (Array.unsafe_get a (a3 + p) *. bv);
      s4 := !s4 +. (Array.unsafe_get a (a4 + p) *. bv);
      s5 := !s5 +. (Array.unsafe_get a (a5 + p) *. bv);
      s6 := !s6 +. (Array.unsafe_get a (a6 + p) *. bv);
      s7 := !s7 +. (Array.unsafe_get a (a7 + p) *. bv)
    done;
    Array.unsafe_set c (co + j) !s0;
    Array.unsafe_set c (co + n + j) !s1;
    Array.unsafe_set c (co + (2 * n) + j) !s2;
    Array.unsafe_set c (co + (3 * n) + j) !s3;
    Array.unsafe_set c (co + (4 * n) + j) !s4;
    Array.unsafe_set c (co + (5 * n) + j) !s5;
    Array.unsafe_set c (co + (6 * n) + j) !s6;
    Array.unsafe_set c (co + (7 * n) + j) !s7
  done

(* Two rows by four columns: each element of A is loaded once for four
   columns and each element of B once for two rows. *)
let rows2 (a : float array) (b : float array) (c : float array) ~k ~n ~sp ~sj ~ao ~bo ~co =
  let a1 = ao + k and c1 = co + n in
  let j = ref 0 in
  while !j + 4 <= n do
    let b0 = bo + (!j * sj) in
    let b1 = b0 + sj and b2 = b0 + (2 * sj) and b3 = b0 + (3 * sj) in
    let s00 = ref 0.0 and s01 = ref 0.0 and s02 = ref 0.0 and s03 = ref 0.0 in
    let s10 = ref 0.0 and s11 = ref 0.0 and s12 = ref 0.0 and s13 = ref 0.0 in
    for p = 0 to k - 1 do
      let x0 = Array.unsafe_get a (ao + p) and x1 = Array.unsafe_get a (a1 + p) in
      let q = p * sp in
      let y0 = Array.unsafe_get b (b0 + q) and y1 = Array.unsafe_get b (b1 + q) in
      let y2 = Array.unsafe_get b (b2 + q) and y3 = Array.unsafe_get b (b3 + q) in
      s00 := !s00 +. (x0 *. y0);
      s01 := !s01 +. (x0 *. y1);
      s02 := !s02 +. (x0 *. y2);
      s03 := !s03 +. (x0 *. y3);
      s10 := !s10 +. (x1 *. y0);
      s11 := !s11 +. (x1 *. y1);
      s12 := !s12 +. (x1 *. y2);
      s13 := !s13 +. (x1 *. y3)
    done;
    let j0 = !j in
    Array.unsafe_set c (co + j0) !s00;
    Array.unsafe_set c (co + j0 + 1) !s01;
    Array.unsafe_set c (co + j0 + 2) !s02;
    Array.unsafe_set c (co + j0 + 3) !s03;
    Array.unsafe_set c (c1 + j0) !s10;
    Array.unsafe_set c (c1 + j0 + 1) !s11;
    Array.unsafe_set c (c1 + j0 + 2) !s12;
    Array.unsafe_set c (c1 + j0 + 3) !s13;
    j := j0 + 4
  done;
  for j = !j to n - 1 do
    let bj = bo + (j * sj) in
    Array.unsafe_set c (co + j) (dot a b ~k ~sp ~ai:ao ~bj);
    Array.unsafe_set c (c1 + j) (dot a b ~k ~sp ~ai:a1 ~bj)
  done

(* One row by four columns: each element of A is loaded once for four
   columns. *)
let rows1 (a : float array) (b : float array) (c : float array) ~k ~n ~sp ~sj ~ao ~bo ~co =
  let j = ref 0 in
  while !j + 4 <= n do
    let b0 = bo + (!j * sj) in
    let b1 = b0 + sj and b2 = b0 + (2 * sj) and b3 = b0 + (3 * sj) in
    let s0 = ref 0.0 and s1 = ref 0.0 and s2 = ref 0.0 and s3 = ref 0.0 in
    for p = 0 to k - 1 do
      let x = Array.unsafe_get a (ao + p) and q = p * sp in
      s0 := !s0 +. (x *. Array.unsafe_get b (b0 + q));
      s1 := !s1 +. (x *. Array.unsafe_get b (b1 + q));
      s2 := !s2 +. (x *. Array.unsafe_get b (b2 + q));
      s3 := !s3 +. (x *. Array.unsafe_get b (b3 + q))
    done;
    let j0 = !j in
    Array.unsafe_set c (co + j0) !s0;
    Array.unsafe_set c (co + j0 + 1) !s1;
    Array.unsafe_set c (co + j0 + 2) !s2;
    Array.unsafe_set c (co + j0 + 3) !s3;
    j := j0 + 4
  done;
  for j = !j to n - 1 do
    Array.unsafe_set c (co + j) (dot a b ~k ~sp ~ai:ao ~bj:(bo + (j * sj)))
  done

let product schedule ~batch ~m ~n ~k (a : float array) (b : float array) ~b_batch ~sp ~sj
    (c : float array) =
  let tile, one_row =
    match schedule with Blocked h -> (h, false) | Row_by_row h -> (h, true)
  in
  if tile < 1 then Fmt.invalid_arg "Ops_matmul.product: row tile %d" tile;
  let tiles = (m + tile - 1) / tile in
  let grain =
    Parallel.grain_for ~work_per_item:(tile * n * k) ~min_work:Parallel.default_min_work
  in
  Parallel.parallel_for ~grain (batch * tiles) (fun lo hi ->
      for t = lo to hi - 1 do
        let bi = t / tiles and i0 = (t mod tiles) * tile in
        let last = (bi * m) + Stdlib.min m (i0 + tile) and bo = bi * b_batch in
        (* the widest block that fits the rows left in this tile *)
        let i = ref ((bi * m) + i0) in
        while !i < last do
          let left = last - !i and ao = !i * k and co = !i * n in
          if (not one_row) && left >= 8 && sp = 1 then begin
            rows8 a b c ~k ~n ~sj ~ao ~bo ~co;
            i := !i + 8
          end
          else if (not one_row) && left >= 2 then begin
            rows2 a b c ~k ~n ~sp ~sj ~ao ~bo ~co;
            i := !i + 2
          end
          else begin
            rows1 a b c ~k ~n ~sp ~sj ~ao ~bo ~co;
            incr i
          end
        done
      done)

(* The row tile of [dense], [matmul] and [batch_matmul]. *)
let rows_per_tile = 32

let dense_with schedule data weight =
  let ds = Tensor.shape data and ws = Tensor.shape weight in
  if Shape.rank ds <> 2 || Shape.rank ws <> 2 then
    Tensor.type_err "dense: expected rank-2 inputs, got %a and %a" Shape.pp ds
      Shape.pp ws;
  let m = ds.(0) and k = ds.(1) in
  let n = ws.(0) in
  if ws.(1) <> k then
    Tensor.type_err "dense: reduction dims differ (%d vs %d)" k ws.(1);
  let out = Tensor.empty ~dtype:Dtype.F32 [| m; n |] in
  product schedule ~batch:1 ~m ~n ~k (Tensor.floats data) (Tensor.floats weight)
    ~b_batch:0 ~sp:1 ~sj:k (Tensor.float_buf out);
  out

let dense data weight = dense_with (Blocked rows_per_tile) data weight

let matmul a b =
  let sa = Tensor.shape a and sb = Tensor.shape b in
  if Shape.rank sa <> 2 || Shape.rank sb <> 2 then
    Tensor.type_err "matmul: expected rank-2 inputs, got %a and %a" Shape.pp sa
      Shape.pp sb;
  if sa.(1) <> sb.(0) then
    Tensor.type_err "matmul: inner dims differ (%a vs %a)" Shape.pp sa Shape.pp sb;
  let m = sa.(0) and k = sb.(0) and n = sb.(1) in
  let out = Tensor.empty ~dtype:Dtype.F32 [| m; n |] in
  product (Blocked rows_per_tile) ~batch:1 ~m ~n ~k (Tensor.floats a) (Tensor.floats b)
    ~b_batch:0 ~sp:n ~sj:1 (Tensor.float_buf out);
  out

let batch_matmul a b =
  let sa = Tensor.shape a and sb = Tensor.shape b in
  if Shape.rank sa <> 3 || Shape.rank sb <> 3 then
    Tensor.type_err "batch_matmul: expected rank-3 inputs, got %a and %a"
      Shape.pp sa Shape.pp sb;
  if sa.(0) <> sb.(0) then
    Tensor.type_err "batch_matmul: batch dims differ (%a vs %a)" Shape.pp sa
      Shape.pp sb;
  if sa.(2) <> sb.(1) then
    Tensor.type_err "batch_matmul: inner dims differ (%a vs %a)" Shape.pp sa
      Shape.pp sb;
  let batch = sa.(0) and m = sa.(1) and k = sa.(2) and n = sb.(2) in
  let out = Tensor.empty ~dtype:Dtype.F32 [| batch; m; n |] in
  product (Blocked rows_per_tile) ~batch ~m ~n ~k (Tensor.floats a) (Tensor.floats b)
    ~b_batch:(k * n) ~sp:n ~sj:1 (Tensor.float_buf out);
  out

let dense_bias data weight bias =
  let out = dense data weight in
  let s = Tensor.shape out in
  let m = s.(0) and n = s.(1) in
  if not (Shape.equal (Tensor.shape bias) [| n |]) then
    Tensor.type_err "dense_bias: bias shape %a does not match output cols %d"
      Shape.pp (Tensor.shape bias) n;
  let bo = Tensor.float_buf out and bb = Tensor.floats bias in
  let grain = Parallel.grain_for ~work_per_item:n ~min_work:Parallel.default_min_work in
  Parallel.parallel_for ~grain m (fun lo hi ->
      for i = lo to hi - 1 do
        let row = i * n in
        for j = 0 to n - 1 do
          Array.unsafe_set bo (row + j)
            (Array.unsafe_get bo (row + j) +. Array.unsafe_get bb j)
        done
      done);
  out
