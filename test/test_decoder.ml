(* Decoder (grow-a-tensor loop) and GRU model tests. *)

open Nimble_tensor
open Nimble_models
module Nimble = Nimble_compiler.Nimble
module Interp = Nimble_vm.Interp
module Obj = Nimble_vm.Obj
module Zoo = Nimble_workloads.Zoo

let tensor_eq = Alcotest.testable Tensor.pp (Tensor.approx_equal ~atol:1e-3 ~rtol:1e-3)

(* ---------------------------- decoder ---------------------------- *)

let test_decoder_matches_reference () =
  let w = Decoder.init_weights Decoder.default_config in
  let exe = Nimble.compile (Decoder.ir_module w) in
  let vm = Nimble.vm exe in
  List.iter
    (fun seed ->
      let h0 = Decoder.random_state ~seed w.Decoder.config in
      let out = Interp.run_tensors vm [ h0 ] in
      let expected = Decoder.reference w h0 in
      Alcotest.check tensor_eq (Fmt.str "seed=%d" seed) expected out)
    [ 1; 7; 23; 99; 123 ]

let test_decoder_output_grows_dynamically () =
  (* different inputs stop at different lengths: the output's leading dim is
     genuinely input-dependent (the paper's grow-tensor case) *)
  let w = Decoder.init_weights Decoder.default_config in
  let exe = Nimble.compile (Decoder.ir_module w) in
  let vm = Nimble.vm exe in
  let lengths =
    List.map
      (fun seed ->
        let out = Interp.run_tensors vm [ Decoder.random_state ~seed w.Decoder.config ] in
        (Tensor.shape out).(0))
      (List.init 12 (fun i -> 7 * (i + 1)))
  in
  List.iter
    (fun l ->
      Alcotest.(check bool) "within budget" true
        (l >= 1 && l <= w.Decoder.config.Decoder.max_steps))
    lengths;
  Alcotest.(check bool) "lengths vary across inputs" true
    (List.length (List.sort_uniq compare lengths) > 1)

let test_decoder_budget_respected () =
  (* an unreachable confidence threshold forces the step budget to bind *)
  let config = { Decoder.default_config with Decoder.confidence = 2.0; max_steps = 5 } in
  let w = Decoder.init_weights config in
  let exe = Nimble.compile (Decoder.ir_module w) in
  let vm = Nimble.vm exe in
  let out = Interp.run_tensors vm [ Decoder.random_state w.Decoder.config ] in
  Alcotest.(check int) "exactly max_steps rows" 5 (Tensor.shape out).(0)

let test_decoder_rows_are_distributions () =
  let w = Decoder.init_weights Decoder.default_config in
  let out = Decoder.reference w (Decoder.random_state w.Decoder.config) in
  let sums = Ops_reduce.sum ~axis:1 out in
  for i = 0 to Tensor.numel sums - 1 do
    Alcotest.(check bool) "row sums to 1" true
      (Float.abs (Tensor.get_float sums i -. 1.0) < 1e-4)
  done

(* ---------------------------- GRU ---------------------------- *)

let test_gru_matches_reference () =
  let w = Gru.init_weights Gru.small_config in
  let exe = Nimble.compile (Gru.ir_module w) in
  let vm = Nimble.vm exe in
  List.iter
    (fun len ->
      let xs = Gru.random_sequence w.Gru.config ~len in
      let out = Obj.to_tensor (Interp.invoke vm [ Zoo.tensor_list xs ]) in
      Alcotest.check tensor_eq (Fmt.str "len=%d" len) (Gru.reference w xs) out)
    [ 1; 3; 8; 14 ]

let test_gru_empty_sequence () =
  (* zero-length input returns the initial (zero) state *)
  let w = Gru.init_weights Gru.small_config in
  let exe = Nimble.compile (Gru.ir_module w) in
  let vm = Nimble.vm exe in
  let out = Obj.to_tensor (Interp.invoke vm [ Zoo.tensor_list [] ]) in
  Alcotest.check tensor_eq "zeros"
    (Tensor.zeros [| 1; w.Gru.config.Gru.hidden_size |])
    out

let prop_gru_any_length =
  QCheck.Test.make ~name:"gru matches reference for any length" ~count:15
    (QCheck.int_range 0 20) (fun len ->
      let w = Gru.init_weights Gru.small_config in
      let exe = Nimble.compile (Gru.ir_module w) in
      let vm = Nimble.vm exe in
      let xs = Gru.random_sequence w.Gru.config ~len in
      let out = Obj.to_tensor (Interp.invoke vm [ Zoo.tensor_list xs ]) in
      Tensor.approx_equal ~atol:1e-3 ~rtol:1e-3 (Gru.reference w xs) out)

(* ---------------------------- Seq2Seq ---------------------------- *)

let test_seq2seq_matches_reference () =
  let w = Seq2seq.init_weights Seq2seq.default_config in
  let exe = Nimble.compile (Seq2seq.ir_module w) in
  let vm = Nimble.vm exe in
  List.iter
    (fun len ->
      let xs = Seq2seq.random_sequence w.Seq2seq.config ~len in
      let out = Obj.to_tensor (Interp.invoke vm [ Zoo.tensor_list xs ]) in
      Alcotest.check tensor_eq (Fmt.str "len=%d" len) (Seq2seq.reference w xs) out)
    [ 1; 4; 9 ]

let test_seq2seq_both_directions_dynamic () =
  (* input length varies AND output length is data-dependent, through one
     compiled executable *)
  let w = Seq2seq.init_weights Seq2seq.default_config in
  let exe = Nimble.compile (Seq2seq.ir_module w) in
  let vm = Nimble.vm exe in
  let out_lens =
    List.map
      (fun len ->
        let xs = Seq2seq.random_sequence w.Seq2seq.config ~len in
        (Tensor.shape (Obj.to_tensor (Interp.invoke vm [ Zoo.tensor_list xs ]))).(0))
      [ 2; 5; 8; 11; 14 ]
  in
  List.iter
    (fun l ->
      Alcotest.(check bool) "within budget" true
        (l >= 1 && l <= w.Seq2seq.config.Seq2seq.max_steps))
    out_lens

let () =
  Alcotest.run "decoder"
    [
      ( "decoder",
        [
          Alcotest.test_case "matches reference" `Quick test_decoder_matches_reference;
          Alcotest.test_case "output grows dynamically" `Quick
            test_decoder_output_grows_dynamically;
          Alcotest.test_case "budget respected" `Quick test_decoder_budget_respected;
          Alcotest.test_case "rows are distributions" `Quick test_decoder_rows_are_distributions;
        ] );
      ( "gru",
        [
          Alcotest.test_case "matches reference" `Quick test_gru_matches_reference;
          Alcotest.test_case "empty sequence" `Quick test_gru_empty_sequence;
          QCheck_alcotest.to_alcotest prop_gru_any_length;
        ] );
      ( "seq2seq",
        [
          Alcotest.test_case "matches reference" `Quick test_seq2seq_matches_reference;
          Alcotest.test_case "dynamic both directions" `Quick
            test_seq2seq_both_directions_dynamic;
        ] );
    ]
