(** Tree-LSTM sentiment classification over dynamic data structures
    (paper §6, Table 2 workload).

    Each input is a binary constituency tree (an ADT); the compiled
    executable recursively evaluates whatever shape arrives — the paper's
    "dynamic data structure" case that most frameworks cannot compile.
    Also demonstrates TF-Fold-style dynamic batching producing identical
    results.

    Run with: [dune exec examples/treelstm_sentiment.exe] *)

open Nimble_tensor
open Nimble_models
module Nimble = Nimble_compiler.Nimble
module Obj = Nimble_vm.Obj
module Zoo = Nimble_workloads.Zoo

let rec depth = function
  | Tree_lstm.Leaf _ -> 1
  | Tree_lstm.Node (l, r) -> 1 + Stdlib.max (depth l) (depth r)

let () =
  let config = { Tree_lstm.input_size = 48; hidden_size = 64; num_classes = 5 } in
  let w = Tree_lstm.init_weights config in
  let exe = Nimble.compile (Tree_lstm.ir_module w) in
  let vm = Nimble.vm exe in
  Fmt.pr "Tree-LSTM sentiment (5 classes), hidden %d — one executable, any tree@."
    config.Tree_lstm.hidden_size;
  let trees = Nimble_workloads.Sst.trees config 5 in
  List.iteri
    (fun i t ->
      let probs =
        Obj.to_tensor (Nimble_vm.Interp.invoke vm [ Zoo.tensor_tree t ])
      in
      (* the Fold-style dynamically-batched execution matches exactly *)
      let folded = Nimble_baselines.Fold.tree_lstm w t in
      assert (Tensor.approx_equal ~atol:1e-3 ~rtol:1e-3 probs folded);
      let pred = Tensor.item_int (Ops_reduce.argmax ~axis:1 probs) in
      Fmt.pr "tree %d: %2d tokens, depth %2d -> class %d  probs %a@." i
        (Tree_lstm.num_tokens t) (depth t) pred Tensor.pp probs)
    trees;
  Fmt.pr "(Fold-style dynamic batching produced identical outputs)@."
