(** Table 1: LSTM inference latency (µs/token), 1- and 2-layer models,
    {Nimble, PyTorch, MXNet, TensorFlow} x {Intel CPU, Nvidia GPU, ARM CPU}.

    Every system executes the same MRPC-like corpus for real (outputs are
    cross-checked); latency comes from pricing each system's recorded trace
    under the three platform models. *)

open Nimble_tensor
open Nimble_models
module Estimator = Nimble_perfsim.Estimator
module Platform = Nimble_perfsim.Platform
module Framework = Nimble_perfsim.Framework
module Nimble = Nimble_compiler.Nimble
module Obj = Nimble_vm.Obj
module Zoo = Nimble_workloads.Zoo

let corpus_size = 4

type system = {
  sys_name : string;
  framework : Framework.t;
  launch_per_op : bool;
  run : Tensor.t list list -> Tensor.t list;  (** corpus -> outputs *)
}

let systems (w : Lstm.weights) =
  let exe = Nimble.compile (Lstm.ir_module w) in
  let vm = Nimble.vm exe in
  [
    {
      sys_name = "Nimble";
      framework = Framework.Nimble;
      launch_per_op = false;
      run =
        (fun corpus ->
          List.map
            (fun xs -> Obj.to_tensor (Nimble_runner.invoke vm [ Zoo.tensor_list xs ]))
            corpus);
    };
    {
      sys_name = "PyTorch";
      framework = Framework.Pytorch;
      launch_per_op = true;
      run = (fun corpus -> List.map (Nimble_baselines.Eager.lstm w) corpus);
    };
    {
      sys_name = "MXNet";
      framework = Framework.Mxnet;
      launch_per_op = true;
      run =
        (fun corpus ->
          Nimble_baselines.Hybrid.reset_cache ();
          List.map (Nimble_baselines.Hybrid.lstm w) corpus);
    };
    {
      sys_name = "TensorFlow";
      framework = Framework.Tensorflow;
      launch_per_op = true;
      run = (fun corpus -> List.map (Nimble_baselines.Graph_cf.lstm w) corpus);
    };
  ]

let run_config ~num_layers =
  let config = { Lstm.default_config with Lstm.num_layers } in
  let w = Lstm.init_weights config in
  let corpus = Nimble_workloads.Mrpc.lstm_inputs config corpus_size in
  let tokens = List.fold_left (fun acc xs -> acc + List.length xs) 0 corpus in
  let reference = List.map (Lstm.reference w) corpus in
  let rows =
    List.map
      (fun sys ->
        let outputs, events = Estimator.record (fun () -> sys.run corpus) in
        (* cross-check numerics against the reference implementation *)
        List.iter2
          (fun a b ->
            if not (Tensor.approx_equal ~atol:1e-3 ~rtol:1e-3 a b) then
              Fmt.failwith "Table1: %s output mismatch" sys.sys_name)
          reference outputs;
        let cells =
          List.map
            (fun platform ->
              let b =
                Estimator.price ~platform ~framework:sys.framework
                  ~launch_per_op:sys.launch_per_op events
              in
              Some
                (Bench_util.us (Estimator.total platform sys.framework b)
                /. float_of_int tokens))
            Platform.all
        in
        (sys.sys_name, cells))
      (systems w)
  in
  (rows, tokens)

let run () =
  let columns = List.map (fun p -> p.Platform.name) Platform.all in
  List.iter
    (fun num_layers ->
      let rows, tokens = run_config ~num_layers in
      Bench_util.print_table
        ~title:
          (Fmt.str
             "Table 1 (%d layer%s): LSTM inference latency, MRPC-like lengths (%d \
              tokens)"
             num_layers
             (if num_layers > 1 then "s" else "")
             tokens)
        ~unit:"us/token" ~columns rows)
    [ 1; 2 ]
