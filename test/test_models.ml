(* Model tests: each IR build must compile through the full Nimble pipeline
   and agree numerically with the reference (direct-kernel) execution. *)

open Nimble_tensor
open Nimble_models
module Nimble = Nimble_compiler.Nimble
module Interp = Nimble_vm.Interp
module Obj = Nimble_vm.Obj
module Zoo = Nimble_workloads.Zoo

let tensor_eq = Alcotest.testable Tensor.pp (Tensor.approx_equal ~atol:1e-3 ~rtol:1e-3)

(* ------------------------- LSTM ------------------------- *)

let test_lstm_matches_reference () =
  let w = Lstm.init_weights Lstm.small_config in
  let exe = Nimble.compile (Lstm.ir_module w) in
  let vm = Nimble.vm exe in
  List.iter
    (fun len ->
      let xs = Lstm.random_sequence w.Lstm.config ~len in
      let out = Obj.to_tensor (Interp.invoke vm [ Zoo.tensor_list xs ]) in
      let expected = Lstm.reference w xs in
      Alcotest.check tensor_eq (Fmt.str "len=%d" len) expected out)
    [ 1; 2; 5; 9 ]

let test_lstm_two_layers () =
  let w = Lstm.init_weights { Lstm.small_config with Lstm.num_layers = 2 } in
  let exe = Nimble.compile (Lstm.ir_module w) in
  let vm = Nimble.vm exe in
  let xs = Lstm.random_sequence w.Lstm.config ~len:6 in
  let out = Obj.to_tensor (Interp.invoke vm [ Zoo.tensor_list xs ]) in
  Alcotest.check tensor_eq "2-layer" (Lstm.reference w xs) out

let test_lstm_one_executable_many_lengths () =
  (* the same compiled executable must serve every sequence length *)
  let w = Lstm.init_weights Lstm.small_config in
  let exe = Nimble.compile (Lstm.ir_module w) in
  let vm = Nimble.vm exe in
  List.iter
    (fun len ->
      let xs = Lstm.random_sequence w.Lstm.config ~len in
      let out = Obj.to_tensor (Interp.invoke vm [ Zoo.tensor_list xs ]) in
      Alcotest.(check (array int))
        (Fmt.str "shape len=%d" len)
        [| 1; w.Lstm.config.Lstm.hidden_size |]
        (Tensor.shape out))
    [ 3; 7; 11 ]

(* ------------------------- Tree-LSTM ------------------------- *)

let random_tree config ~tokens ~seed =
  Nimble_workloads.Sst.sample_tree (Rng.create ~seed) config ~tokens

let test_tree_lstm_matches_reference () =
  let w = Tree_lstm.init_weights Tree_lstm.small_config in
  let exe = Nimble.compile (Tree_lstm.ir_module w) in
  let vm = Nimble.vm exe in
  List.iter
    (fun tokens ->
      let t = random_tree w.Tree_lstm.config ~tokens ~seed:(100 + tokens) in
      let out = Obj.to_tensor (Interp.invoke vm [ Zoo.tensor_tree t ]) in
      let expected = Tree_lstm.reference w t in
      Alcotest.check tensor_eq (Fmt.str "tokens=%d" tokens) expected out)
    [ 1; 2; 4; 7 ]

let test_tree_lstm_output_is_distribution () =
  let w = Tree_lstm.init_weights Tree_lstm.small_config in
  let t = random_tree w.Tree_lstm.config ~tokens:5 ~seed:55 in
  let out = Tree_lstm.reference w t in
  let total = Tensor.item (Ops_reduce.sum out) in
  Alcotest.(check bool) "softmax sums to 1" true (Float.abs (total -. 1.0) < 1e-4)

(* ------------------------- BERT ------------------------- *)

let test_bert_matches_reference () =
  let w = Bert.init_weights Bert.small_config in
  let exe = Nimble.compile (Bert.ir_module w) in
  let vm = Nimble.vm exe in
  List.iter
    (fun len ->
      let x = Bert.embed w (Bert.random_ids w ~len) in
      let out = Interp.run_tensors vm [ x ] in
      let expected = Bert.reference w x in
      Alcotest.check tensor_eq (Fmt.str "seq=%d" len) expected out)
    [ 3; 8; 13 ]

let test_bert_static_build () =
  let w = Bert.init_weights Bert.small_config in
  let exe = Nimble.compile (Bert.ir_module_static w ~seq_len:8) in
  let vm = Nimble.vm exe in
  let x = Bert.embed w (Bert.random_ids w ~len:8) in
  let out = Interp.run_tensors vm [ x ] in
  Alcotest.check tensor_eq "static seq=8" (Bert.reference w x) out

let test_bert_static_executor () =
  let w = Bert.init_weights Bert.small_config in
  let plan = Nimble.compile_static (Bert.ir_module_static w ~seq_len:8) in
  let x = Bert.embed w (Bert.random_ids w ~len:8) in
  let out = Nimble_compiler.Static_exec.run plan [ x ] in
  Alcotest.check tensor_eq "static executor" (Bert.reference w x) out

(* ------------------------- Vision ------------------------- *)

let test_vision_compile_and_run () =
  List.iter
    (fun (name, build) ->
      let m = build () in
      let exe = Nimble.compile m in
      let vm = Nimble.vm exe in
      let out = Interp.run_tensors vm [ Vision.random_input () ] in
      Alcotest.(check int) (name ^ " classes") 10 (Tensor.shape out).(1))
    Vision.all

let () =
  Alcotest.run "models"
    [
      ( "lstm",
        [
          Alcotest.test_case "matches reference" `Quick test_lstm_matches_reference;
          Alcotest.test_case "two layers" `Quick test_lstm_two_layers;
          Alcotest.test_case "one exe, many lengths" `Quick
            test_lstm_one_executable_many_lengths;
        ] );
      ( "tree_lstm",
        [
          Alcotest.test_case "matches reference" `Quick test_tree_lstm_matches_reference;
          Alcotest.test_case "softmax head" `Quick test_tree_lstm_output_is_distribution;
        ] );
      ( "bert",
        [
          Alcotest.test_case "matches reference (dynamic)" `Quick test_bert_matches_reference;
          Alcotest.test_case "static build" `Quick test_bert_static_build;
          Alcotest.test_case "static executor" `Quick test_bert_static_executor;
        ] );
      ("vision", [ Alcotest.test_case "compile and run" `Slow test_vision_compile_and_run ]);
    ]
