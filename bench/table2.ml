(** Table 2: Tree-LSTM inference latency (µs/token) on SST-like trees,
    {Nimble, PyTorch, TF Fold} x {Intel CPU, ARM CPU}.

    The paper omits the GPU column (tree control flow cannot saturate a
    GPU) and TF Fold on ARM (it does not build there); this harness prints
    the same cells. *)

open Nimble_tensor
open Nimble_models
module Estimator = Nimble_perfsim.Estimator
module Platform = Nimble_perfsim.Platform
module Framework = Nimble_perfsim.Framework
module Nimble = Nimble_compiler.Nimble
module Obj = Nimble_vm.Obj
module Zoo = Nimble_workloads.Zoo

let corpus_size = 4

let run () =
  let w = Tree_lstm.init_weights Tree_lstm.default_config in
  let corpus = Nimble_workloads.Sst.trees w.Tree_lstm.config corpus_size in
  let tokens = Nimble_workloads.Sst.total_tokens corpus in
  let reference = List.map (Tree_lstm.reference w) corpus in
  let exe = Nimble.compile (Tree_lstm.ir_module w) in
  let vm = Nimble.vm exe in
  let platforms = [ Platform.intel_cpu; Platform.arm_cpu ] in
  let check name outputs =
    List.iter2
      (fun a b ->
        if not (Tensor.approx_equal ~atol:1e-3 ~rtol:1e-3 a b) then
          Fmt.failwith "Table2: %s output mismatch" name)
      reference outputs
  in
  let row name framework ~launch_per_op ~on_arm run =
    let outputs, events = Estimator.record run in
    check name outputs;
    let cells =
      List.map
        (fun platform ->
          if platform.Platform.name = "ARM CPU" && not on_arm then None
          else
            let b = Estimator.price ~platform ~framework ~launch_per_op events in
            Some
              (Bench_util.us (Estimator.total platform framework b)
              /. float_of_int tokens))
        platforms
    in
    (name, cells)
  in
  let rows =
    [
      row "Nimble" Framework.Nimble ~launch_per_op:false ~on_arm:true (fun () ->
          List.map
            (fun t -> Obj.to_tensor (Nimble_runner.invoke vm [ Zoo.tensor_tree t ]))
            corpus);
      row "PyTorch" Framework.Pytorch ~launch_per_op:true ~on_arm:true (fun () ->
          List.map (Nimble_baselines.Eager.tree_lstm w) corpus);
      (* TF Fold does not build on ARM (paper, Table 2 note) *)
      row "TF Fold" Framework.Tf_fold ~launch_per_op:true ~on_arm:false (fun () ->
          List.map (Nimble_baselines.Fold.tree_lstm w) corpus);
    ]
  in
  Bench_util.print_table
    ~title:
      (Fmt.str "Table 2: Tree-LSTM inference latency, SST-like trees (%d tokens)" tokens)
    ~unit:"us/token"
    ~columns:(List.map (fun p -> p.Platform.name) platforms)
    rows
