(** LSTM inference with dynamic control flow (paper §6, Table 1 workload).

    Compiles an LSTM once and feeds it sentences of different lengths — the
    sequence is a [TensorList] ADT, so the recursion over it executes as VM
    control flow (Match/Invoke instructions), not host-language loops.
    Cross-checks against the reference implementation and against the
    PyTorch-like eager baseline, then reports per-length host latency.

    Run with: [dune exec examples/lstm_inference.exe] *)

open Nimble_tensor
open Nimble_models
module Nimble = Nimble_compiler.Nimble
module Interp = Nimble_vm.Interp
module Obj = Nimble_vm.Obj
module Zoo = Nimble_workloads.Zoo

let () =
  let config = { Lstm.input_size = 64; hidden_size = 96; num_layers = 2 } in
  let w = Lstm.init_weights config in
  Fmt.pr "LSTM: input %d, hidden %d, %d layers — compiled once, dynamic length@."
    config.Lstm.input_size config.Lstm.hidden_size config.Lstm.num_layers;
  let exe = Nimble.compile (Lstm.ir_module w) in
  let vm = Nimble.vm exe in
  Fmt.pr "executable: %d instructions, %d constants@."
    (Nimble_vm.Exe.instruction_count exe)
    (Array.length exe.Nimble_vm.Exe.constants);
  List.iter
    (fun len ->
      let xs = Lstm.random_sequence config ~len in
      let t0 = Unix.gettimeofday () in
      let out = Obj.to_tensor (Interp.invoke vm [ Zoo.tensor_list xs ]) in
      let vm_ms = 1e3 *. (Unix.gettimeofday () -. t0) in
      (* reference + eager baseline agree with the VM *)
      let reference = Lstm.reference w xs in
      let eager = Nimble_baselines.Eager.lstm w xs in
      assert (Tensor.approx_equal ~atol:1e-3 ~rtol:1e-3 reference out);
      assert (Tensor.approx_equal ~atol:1e-3 ~rtol:1e-3 reference eager);
      Fmt.pr "length %3d: out %a  host %.2f ms  (reference and eager agree)@." len
        Shape.pp (Tensor.shape out) vm_ms)
    [ 4; 11; 23; 40 ]
