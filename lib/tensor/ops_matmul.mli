(** Matrix products: [dense], [matmul], [batch_matmul] and [dense_bias].

    Every product runs through one driver: it reads A's rows in place and
    B through an offset and two strides (no transposed copy), sums each
    output from 0.0 with p ascending, and splits work over (batch, row
    tile) across the {!Nimble_parallel.Parallel} pool, never over p. So
    every schedule and every pool width gives the same bits. The register
    block (eight rows by one column, two rows by four columns, or one row
    by four columns) follows from the shape alone. Integer operands are
    converted to floats once ({!Tensor.floats}); results are F32. *)

(** How a product splits its output rows.

    - [Blocked h]: row tiles of [h] rows (the last one clamped), each run
      by the widest register blocks that fit its rows. A tile of at least
      eight rows over dense's weight runs eight rows at once, loading
      each weight element once for all eight.
    - [Row_by_row h]: row tiles of [h] rows, clamped, each row run on its
      own — the loop a compiler can still emit when it cannot prove a
      tile full, which re-streams the weight once per row (paper §4.5,
      Figure 3).

    [h] must be at least 1. *)
type schedule = Blocked of int | Row_by_row of int

(** [dense_with schedule data weight] is [dense data weight] run under
    [schedule]. Every schedule gives the same bits.
    @raise Tensor.Type_error on operands that are not [(m, k)] and [(n, k)]
    @raise Invalid_argument on a row tile below 1. *)
val dense_with : schedule -> Tensor.t -> Tensor.t -> Tensor.t

(** [dense data weight] with [data : (m, k)] and [weight : (n, k)] is
    [(m, n)], the TVM convention the paper uses ([Blocked 32]). *)
val dense : Tensor.t -> Tensor.t -> Tensor.t

(** [matmul a b] with [a : (m, k)] and [b : (k, n)] is [(m, n)]; [b] is
    read in place. *)
val matmul : Tensor.t -> Tensor.t -> Tensor.t

(** Batched matmul: [(b, m, k)] x [(b, k, n)] -> [(b, m, n)]. *)
val batch_matmul : Tensor.t -> Tensor.t -> Tensor.t

(** Dense followed by a bias add: [(m, k)] x [(n, k)] + [(n,)] ->
    [(m, n)], the bias added to each finished sum. *)
val dense_bias : Tensor.t -> Tensor.t -> Tensor.t -> Tensor.t
