(** Dense schedules for symbolic codegen (paper §4.5, Figure 3).

    The symbolic dimension is [m] (e.g. BERT's sequence length) and the
    row tile is {!tile}. Every schedule is one call of the matrix-product
    driver ({!Nimble_tensor.Ops_matmul.dense_with}), so all of them return
    the same bits as [Ops_matmul.dense]; what differs is the loop, and so
    the speed:

    - {b residue dispatch}: [m = 8q + r]; one kernel per covered residue
      [r] runs [q] full tiles eight rows at once, plus a check-free tail
      for its fixed [r]. A dispatcher picks the kernel from [m mod 8] at
      runtime ({!Dispatch}).
    - {b guarded} (no dispatch): one kernel for all [m]. The compiler
      cannot prove a tile full, so it clamps each tile and runs its rows
      one at a time, losing the row tile's weight reuse — the
      boundary-handling cost Figure 3 measures.
    - {b tuned}: row tiles of a height the tuner picked ({!Tuner}).
    - {b extern}: the same driver under [Ops_matmul.dense]'s schedule,
      standing in for a vendor library.

    Operands are [(m, k)] data and an [(n, k)] weight, of any dtype; the
    result is [(m, n)] F32. Each schedule raises [Tensor.Type_error] on
    other shapes. *)

open Nimble_tensor

(** The row tile of residue dispatch: 8. *)
val tile : int

(** [residue_kernel ~residue a w] is the kernel specialized to
    [m mod tile = residue]: full eight-row tiles, then a tail of
    [residue] rows.
    @raise Tensor.Type_error when [m mod tile <> residue]. *)
val residue_kernel : residue:int -> Tensor.t -> Tensor.t -> Tensor.t

(** The guarded kernel for a symbolic [m]: tiles of {!tile} rows,
    clamped, each row run on its own. *)
val guarded_kernel : Tensor.t -> Tensor.t -> Tensor.t

(** [tiled_kernel ~tile_m a w]: row tiles of [tile_m] rows, each run by
    the widest register blocks that fit — the kernel an exact-extent
    tuned entry installs. Any [tile_m >= 1] works; a decoded tune table
    carries one in [\[1, 256\]].
    @raise Invalid_argument when [tile_m < 1]. *)
val tiled_kernel : tile_m:int -> Tensor.t -> Tensor.t -> Tensor.t

(** The kernel the dispatcher routes to when profiling says the "vendor
    library" is faster: [Ops_matmul.dense], a second, differently-tiled
    schedule of the same driver. *)
val extern_library_kernel : Tensor.t -> Tensor.t -> Tensor.t
