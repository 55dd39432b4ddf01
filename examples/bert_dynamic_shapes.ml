(** BERT with dynamic sequence lengths (paper §6, Table 3 workload), plus
    executable serialization.

    Compiles a small BERT whose sequence dimension is [Any], saves the
    platform-independent bytecode to disk, reloads it, relinks the kernels,
    and serves inputs of several lengths — the deployment flow the paper's
    VM design enables.

    Run with: [dune exec examples/bert_dynamic_shapes.exe] *)

open Nimble_tensor
open Nimble_models
module Nimble = Nimble_compiler.Nimble
module Serialize = Nimble_vm.Serialize

let () =
  let w = Bert.init_weights Bert.small_config in
  let exe = Nimble.compile (Bert.ir_module w) in
  Fmt.pr "BERT (%d layers, hidden %d, %d heads), sequence dimension = Any@."
    w.Bert.config.Bert.num_layers w.Bert.config.Bert.hidden_size
    w.Bert.config.Bert.num_heads;

  (* Serialize the executable: bytecode + constants + kernel names. *)
  let path = Filename.temp_file "bert" ".nimble" in
  Serialize.save_file exe path;
  let bytes = (Unix.stat path).Unix.st_size in
  Fmt.pr "saved executable: %s (%d bytes, %d instructions)@." path bytes
    (Nimble_vm.Exe.instruction_count exe);

  (* Load it back and relink the platform-dependent kernels by name from
     a compile of the same module. *)
  let loaded = Serialize.load_file path in
  Nimble_vm.Exe.relink ~from:exe loaded;
  assert (Nimble_vm.Exe.linked loaded);
  Fmt.pr "reloaded and relinked %d packed functions@."
    (Array.length loaded.Nimble_vm.Exe.packed_names);

  let vm = Nimble.vm loaded in
  List.iter
    (fun len ->
      let x = Bert.embed w (Bert.random_ids w ~len) in
      let t0 = Unix.gettimeofday () in
      let out = Nimble_vm.Interp.run_tensors vm [ x ] in
      let ms = 1e3 *. (Unix.gettimeofday () -. t0) in
      let expected = Bert.reference w x in
      assert (Tensor.approx_equal ~atol:1e-3 ~rtol:1e-3 expected out);
      Fmt.pr "seq %3d -> %a  host %.2f ms  (matches reference)@." len Shape.pp
        (Tensor.shape out) ms)
    [ 5; 12; 27; 48 ];
  Sys.remove path
