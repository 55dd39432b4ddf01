(* The matrix-product loops that lib/tensor's Ops_matmul and
   lib/codegen's Dense_kernels ran before every product shared one driver
   (Ops_matmul.product), kept verbatim as the oracle test_tensor checks
   that driver against: Ops_matmul's 32-blocked dense, its transpose for
   matmul, batch_matmul's column walk and the get/set fallbacks, then
   Dense_kernels' 8-row microkernel, scalar tail and tiled schedules.
   Every loop sums each output from 0.0 with p ascending, so they all
   agree bitwise. The Dense_kernels loops reject integer operands; the
   oracle holds those schedules to [dense] there. *)

open Nimble_tensor

module Parallel = Nimble_parallel.Parallel

let block = 32

(* Blocked C[m,n] += A[m,k] * B^T[n,k] on raw float buffers, for output
   rows [row_lo, row_hi) only. Row-range partitioning never changes the
   per-element accumulation order (always ascending p), so any split is
   bitwise identical to the full sequential sweep. *)
let dense_rows ~(row_lo : int) ~(row_hi : int) ~(n : int) ~(k : int)
    (a : float array) (b : float array) (c : float array) =
  Array.fill c (row_lo * n) ((row_hi - row_lo) * n) 0.0;
  let ib = ref row_lo in
  while !ib < row_hi do
    let i_hi = min (!ib + block) row_hi in
    let jb = ref 0 in
    while !jb < n do
      let j_hi = min (!jb + block) n in
      let pb = ref 0 in
      while !pb < k do
        let p_hi = min (!pb + block) k in
        for i = !ib to i_hi - 1 do
          let arow = i * k and crow = i * n in
          for j = !jb to j_hi - 1 do
            let brow = j * k in
            let acc = ref (Array.unsafe_get c (crow + j)) in
            for p = !pb to p_hi - 1 do
              acc :=
                !acc
                +. (Array.unsafe_get a (arow + p) *. Array.unsafe_get b (brow + p))
            done;
            Array.unsafe_set c (crow + j) !acc
          done
        done;
        pb := p_hi
      done;
      jb := j_hi
    done;
    ib := i_hi
  done

let dense_floats ~m ~n ~k a b c =
  let grain =
    Parallel.grain_for ~work_per_item:(n * k) ~min_work:Parallel.default_min_work
  in
  Parallel.parallel_for ~grain m (fun lo hi -> dense_rows ~row_lo:lo ~row_hi:hi ~n ~k a b c)

let dense_generic ~m ~n ~k a b c =
  for i = 0 to m - 1 do
    for j = 0 to n - 1 do
      let acc = ref 0.0 in
      for p = 0 to k - 1 do
        acc := !acc +. (Tensor.get_float a ((i * k) + p) *. Tensor.get_float b ((j * k) + p))
      done;
      Tensor.set_float c ((i * n) + j) !acc
    done
  done

(** [dense data weight] with [data : (m, k)], [weight : (n, k)] -> [(m, n)]. *)
let dense data weight =
  let ds = Tensor.shape data and ws = Tensor.shape weight in
  if Shape.rank ds <> 2 || Shape.rank ws <> 2 then
    Tensor.type_err "dense: expected rank-2 inputs, got %a and %a" Shape.pp ds
      Shape.pp ws;
  let m = ds.(0) and k = ds.(1) in
  let n = ws.(0) in
  if ws.(1) <> k then
    Tensor.type_err "dense: reduction dims differ (%d vs %d)" k ws.(1);
  let out = Tensor.empty ~dtype:Dtype.F32 [| m; n |] in
  (match (data.Tensor.buf, weight.Tensor.buf, out.Tensor.buf) with
  | Tensor.Floats a, Tensor.Floats b, Tensor.Floats c -> dense_floats ~m ~n ~k a b c
  | _ -> dense_generic ~m ~n ~k data weight out);
  out

(* Blocked [(k, n)] -> [(n, k)] transpose on raw float buffers: walks
   square tiles so both the read and the write stream stay within a
   cache-sized window. *)
let transpose_floats ~(k : int) ~(n : int) (src : float array) (dst : float array) =
  let pb = ref 0 in
  while !pb < k do
    let p_hi = min (!pb + block) k in
    let jb = ref 0 in
    while !jb < n do
      let j_hi = min (!jb + block) n in
      for p = !pb to p_hi - 1 do
        let srow = p * n in
        for j = !jb to j_hi - 1 do
          Array.unsafe_set dst ((j * k) + p) (Array.unsafe_get src (srow + j))
        done
      done;
      jb := j_hi
    done;
    pb := p_hi
  done

(** Plain [matmul a b] with [a : (m, k)], [b : (k, n)]. *)
let matmul a b =
  let sa = Tensor.shape a and sb = Tensor.shape b in
  if Shape.rank sa <> 2 || Shape.rank sb <> 2 then
    Tensor.type_err "matmul: expected rank-2 inputs, got %a and %a" Shape.pp sa
      Shape.pp sb;
  if sa.(1) <> sb.(0) then
    Tensor.type_err "matmul: inner dims differ (%a vs %a)" Shape.pp sa Shape.pp sb;
  (* Transpose b into weight layout and reuse the dense kernel. *)
  let k = sb.(0) and n = sb.(1) in
  let bt = Tensor.empty ~dtype:(Tensor.dtype b) [| n; k |] in
  (match (b.Tensor.buf, bt.Tensor.buf) with
  | Tensor.Floats src, Tensor.Floats dst -> transpose_floats ~k ~n src dst
  | _ ->
      for p = 0 to k - 1 do
        for j = 0 to n - 1 do
          Tensor.set_float bt ((j * k) + p) (Tensor.get_float b ((p * n) + j))
        done
      done);
  dense a bt

(* One output row [i] of batch [bi]: out[bi,i,:] = a[bi,i,:] * b[bi]. *)
let batch_row ~(m : int) ~(n : int) ~(k : int) (ba : float array) (bb : float array)
    (bo : float array) ~(bi : int) ~(i : int) =
  let offa = bi * m * k and offb = bi * k * n and offo = bi * m * n in
  for j = 0 to n - 1 do
    let acc = ref 0.0 in
    for p = 0 to k - 1 do
      acc :=
        !acc
        +. Array.unsafe_get ba (offa + (i * k) + p)
           *. Array.unsafe_get bb (offb + (p * n) + j)
    done;
    Array.unsafe_set bo (offo + (i * n) + j) !acc
  done

(** Batched matmul: [(b, m, k)] x [(b, k, n)] -> [(b, m, n)]. *)
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
  let bsz = sa.(0) and m = sa.(1) and k = sa.(2) and n = sb.(2) in
  let out = Tensor.empty ~dtype:Dtype.F32 [| bsz; m; n |] in
  (match (a.Tensor.buf, b.Tensor.buf, out.Tensor.buf) with
  | Tensor.Floats ba, Tensor.Floats bb, Tensor.Floats bo ->
      (* partition over batch x row so uneven batch counts still spread *)
      let grain =
        Parallel.grain_for ~work_per_item:(n * k)
          ~min_work:Parallel.default_min_work
      in
      Parallel.parallel_for ~grain (bsz * m) (fun lo hi ->
          for r = lo to hi - 1 do
            batch_row ~m ~n ~k ba bb bo ~bi:(r / m) ~i:(r mod m)
          done)
  | _ ->
      for bi = 0 to bsz - 1 do
        for i = 0 to m - 1 do
          for j = 0 to n - 1 do
            let acc = ref 0.0 in
            for p = 0 to k - 1 do
              acc :=
                !acc
                +. Tensor.get_float a ((bi * m * k) + (i * k) + p)
                   *. Tensor.get_float b ((bi * k * n) + (p * n) + j)
            done;
            Tensor.set_float out ((bi * m * n) + (i * n) + j) !acc
          done
        done
      done);
  out

(** Dense followed by bias add: [(m,k) x (n,k) + (n,) -> (m,n)]. *)
let dense_bias data weight bias =
  let out = dense data weight in
  let s = Tensor.shape out in
  let m = s.(0) and n = s.(1) in
  if not (Shape.equal (Tensor.shape bias) [| n |]) then
    Tensor.type_err "dense_bias: bias shape %a does not match output cols %d"
      Shape.pp (Tensor.shape bias) n;
  (match (out.Tensor.buf, bias.Tensor.buf) with
  | Tensor.Floats bo, Tensor.Floats bb ->
      let grain = Parallel.grain_for ~work_per_item:n ~min_work:Parallel.default_min_work in
      Parallel.parallel_for ~grain m (fun lo hi ->
          for i = lo to hi - 1 do
            let row = i * n in
            for j = 0 to n - 1 do
              Array.unsafe_set bo (row + j)
                (Array.unsafe_get bo (row + j) +. Array.unsafe_get bb j)
            done
          done)
  | _ ->
      for i = 0 to m - 1 do
        for j = 0 to n - 1 do
          Tensor.set_float out ((i * n) + j)
            (Tensor.get_float out ((i * n) + j) +. Tensor.get_float bias j)
        done
      done);
  out

(* Dense_kernels *)

let tile = 8

(* Row-tiles write disjoint output rows, so the tile loop partitions
   over the domain pool bitwise-identically to the sequential sweep.
   Grain keeps at least [default_min_work] flops per chunk. *)
let tile_grain ~rows_per_tile ~n ~k =
  Parallel.grain_for
    ~work_per_item:(rows_per_tile * n * k)
    ~min_work:Parallel.default_min_work

(* Unrolled microkernel: rows [i0, i0+8) of out += a * w^T, full tile.
   Eight unrolled accumulators and, crucially, each weight element is loaded
   once and reused across all eight rows — the data reuse register tiling
   buys when the tile is provably full. *)
let micro8 (a : Tensor.f32_buf) (w : Tensor.f32_buf) (c : Tensor.f32_buf) ~i0 ~n ~k =
  let a0 = i0 * k in
  let a1 = a0 + k and a2 = a0 + (2 * k) and a3 = a0 + (3 * k) in
  let a4 = a0 + (4 * k) and a5 = a0 + (5 * k) and a6 = a0 + (6 * k) and a7 = a0 + (7 * k) in
  for j = 0 to n - 1 do
    let wrow = j * k in
    let s0 = ref 0.0 and s1 = ref 0.0 and s2 = ref 0.0 and s3 = ref 0.0 in
    let s4 = ref 0.0 and s5 = ref 0.0 and s6 = ref 0.0 and s7 = ref 0.0 in
    for p = 0 to k - 1 do
      let wv = Array.unsafe_get w (wrow + p) in
      s0 := !s0 +. (Array.unsafe_get a (a0 + p) *. wv);
      s1 := !s1 +. (Array.unsafe_get a (a1 + p) *. wv);
      s2 := !s2 +. (Array.unsafe_get a (a2 + p) *. wv);
      s3 := !s3 +. (Array.unsafe_get a (a3 + p) *. wv);
      s4 := !s4 +. (Array.unsafe_get a (a4 + p) *. wv);
      s5 := !s5 +. (Array.unsafe_get a (a5 + p) *. wv);
      s6 := !s6 +. (Array.unsafe_get a (a6 + p) *. wv);
      s7 := !s7 +. (Array.unsafe_get a (a7 + p) *. wv)
    done;
    Array.unsafe_set c ((i0 * n) + j) !s0;
    Array.unsafe_set c (((i0 + 1) * n) + j) !s1;
    Array.unsafe_set c (((i0 + 2) * n) + j) !s2;
    Array.unsafe_set c (((i0 + 3) * n) + j) !s3;
    Array.unsafe_set c (((i0 + 4) * n) + j) !s4;
    Array.unsafe_set c (((i0 + 5) * n) + j) !s5;
    Array.unsafe_set c (((i0 + 6) * n) + j) !s6;
    Array.unsafe_set c (((i0 + 7) * n) + j) !s7
  done

(* Check-free tail: [rows] < 8 trailing rows, extent known to the caller. *)
let tail_rows (a : Tensor.f32_buf) (w : Tensor.f32_buf) (c : Tensor.f32_buf) ~i0 ~rows ~n ~k =
  for i = i0 to i0 + rows - 1 do
    let arow = i * k and crow = i * n in
    for j = 0 to n - 1 do
      let wrow = j * k in
      let s = ref 0.0 in
      for p = 0 to k - 1 do
        s := !s +. (Array.unsafe_get a (arow + p) *. Array.unsafe_get w (wrow + p))
      done;
      Array.unsafe_set c (crow + j) !s
    done
  done

let bufs_exn a w out =
  match (a.Tensor.buf, w.Tensor.buf, out.Tensor.buf) with
  | Tensor.Floats ba, Tensor.Floats bw, Tensor.Floats bc -> (ba, bw, bc)
  | _ -> Tensor.type_err "dense kernels require floating-point operands"

let check_dims a w =
  let ds = Tensor.shape a and ws = Tensor.shape w in
  if Shape.rank ds <> 2 || Shape.rank ws <> 2 || ds.(1) <> ws.(1) then
    Tensor.type_err "dense: bad operand shapes %a %a" Shape.pp ds Shape.pp ws;
  (ds.(0), ws.(0), ds.(1))

(** Residue-specialized kernel: correct for any [m] with [m mod 8 = residue]. *)
let residue_kernel ~residue a w =
  let m, n, k = check_dims a w in
  if m mod tile <> residue then
    Tensor.type_err "dense dispatch: kernel for residue %d called with m=%d" residue m;
  let out = Tensor.empty ~dtype:Dtype.F32 [| m; n |] in
  let ba, bw, bc = bufs_exn a w out in
  let q = m / tile in
  Parallel.parallel_for ~grain:(tile_grain ~rows_per_tile:tile ~n ~k) q
    (fun lo hi ->
      for blk = lo to hi - 1 do
        micro8 ba bw bc ~i0:(blk * tile) ~n ~k
      done);
  if residue > 0 then tail_rows ba bw bc ~i0:(q * tile) ~rows:residue ~n ~k;
  out

(** Guarded symbolic kernel (no dispatch): tile fullness cannot be proven
    for a symbolic [m], so the row-validity guard stays in the tile body.
    The guard defeats the 8-row unrolling — the loop nest the compiler can
    still emit clamps each tile (`min`) and processes its rows one at a
    time, re-streaming every weight element once *per row* instead of once
    per tile. The lost register-tile reuse plus the per-tile clamping is
    exactly the boundary-handling cost Figure 3 measures. *)
let guarded_kernel a w =
  let m, n, k = check_dims a w in
  let out = Tensor.empty ~dtype:Dtype.F32 [| m; n |] in
  let ba, bw, bc = bufs_exn a w out in
  let nblocks = (m + tile - 1) / tile in
  Parallel.parallel_for ~grain:(tile_grain ~rows_per_tile:tile ~n ~k) nblocks
    (fun lo hi ->
      for blk = lo to hi - 1 do
        let i0 = blk * tile in
        let rows = Stdlib.min tile (m - i0) in
        (* un-tiled fallback body: one row at a time, no cross-row reuse *)
        tail_rows ba bw bc ~i0 ~rows ~n ~k
      done);
  out

(** Microkernels with other row-tile widths, for the tuner's search space. *)
let tiled_kernel ~tile_m a w =
  let m, n, k = check_dims a w in
  let out = Tensor.empty ~dtype:Dtype.F32 [| m; n |] in
  let ba, bw, bc = bufs_exn a w out in
  if tile_m = tile then begin
    let q = m / tile in
    Parallel.parallel_for ~grain:(tile_grain ~rows_per_tile:tile ~n ~k) q
      (fun lo hi ->
        for blk = lo to hi - 1 do
          micro8 ba bw bc ~i0:(blk * tile) ~n ~k
        done);
    tail_rows ba bw bc ~i0:(q * tile) ~rows:(m mod tile) ~n ~k
  end
  else begin
    let q = m / tile_m in
    Parallel.parallel_for ~grain:(tile_grain ~rows_per_tile:tile_m ~n ~k) q
      (fun lo hi ->
        for blk = lo to hi - 1 do
          let i0 = blk * tile_m in
          for j = 0 to n - 1 do
            let wrow = j * k in
            let acc = Array.make tile_m 0.0 in
            for p = 0 to k - 1 do
              let wv = Array.unsafe_get bw (wrow + p) in
              for r = 0 to tile_m - 1 do
                acc.(r) <- acc.(r) +. (Array.unsafe_get ba (((i0 + r) * k) + p) *. wv)
              done
            done;
            for r = 0 to tile_m - 1 do
              Array.unsafe_set bc (((i0 + r) * n) + j) acc.(r)
            done
          done
        done);
    tail_rows ba bw bc ~i0:(q * tile_m) ~rows:(m mod tile_m) ~n ~k
  end;
  out

(** A deliberately different schedule standing in for a vendor library
    (cuDNN/MKL in the paper): the dispatch function may route to it when
    profiling says it is faster. *)
let extern_library_kernel a w = dense a w
