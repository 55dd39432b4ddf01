(** Dense schedules for symbolic codegen (paper §4.5, Figure 3). Each is
    one call of the matrix-product driver, {!Ops_matmul.dense_with}, so
    they differ in how they split rows, never in the bits they return. *)

open Nimble_tensor

let tile = 8

let residue_kernel ~residue a w =
  (match Tensor.shape a with
  | [| m; _ |] when m mod tile <> residue ->
      Tensor.type_err "dense dispatch: kernel for residue %d called with m=%d" residue m
  | _ -> ());
  Ops_matmul.dense_with (Blocked tile) a w

let guarded_kernel a w = Ops_matmul.dense_with (Row_by_row tile) a w

let tiled_kernel ~tile_m a w = Ops_matmul.dense_with (Blocked tile_m) a w

let extern_library_kernel a w = Ops_matmul.dense a w
