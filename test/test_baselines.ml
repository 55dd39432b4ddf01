(* Baseline framework tests: every baseline must compute exactly what the
   reference computes (their differences are architectural, not numerical),
   and must emit the framework events its cost model prices. *)

open Nimble_tensor
open Nimble_models
open Nimble_baselines
module Trace = Nimble_codegen.Trace

let tensor_eq = Alcotest.testable Tensor.pp (Tensor.approx_equal ~atol:1e-4 ~rtol:1e-4)

let capture f =
  let events = ref [] in
  let result = Trace.with_listener (fun ev -> events := ev :: !events) f in
  (result, List.rev !events)

let count_framework kind events =
  List.fold_left
    (fun acc ev ->
      match ev with
      | Trace.Framework { kind = k; amount } when k = kind -> acc + amount
      | _ -> acc)
    0 events

let count_ops events =
  List.length (List.filter (function Trace.Op_exec _ -> true | _ -> false) events)

(* ---------------------------- LSTM ---------------------------- *)

let lstm_w = Lstm.init_weights Lstm.small_config
let lstm_xs = Lstm.random_sequence Lstm.small_config ~len:5
let lstm_ref = Lstm.reference lstm_w lstm_xs

let test_eager_lstm () =
  let out, events = capture (fun () -> Eager.lstm lstm_w lstm_xs) in
  Alcotest.check tensor_eq "matches reference" lstm_ref out;
  Alcotest.(check bool) "dispatch events" true (count_framework "eager_dispatch" events > 0);
  Alcotest.(check bool) "graph nodes per op" true
    (count_framework "eager_graph_node" events = count_framework "eager_dispatch" events);
  Alcotest.(check int) "host step per token" 5 (count_framework "eager_host_step" events)

let test_graph_cf_lstm () =
  let out, events = capture (fun () -> Graph_cf.lstm lstm_w lstm_xs) in
  Alcotest.check tensor_eq "matches reference" lstm_ref out;
  (* 5 control-flow primitives per loop iteration *)
  List.iter
    (fun p ->
      Alcotest.(check int) ("cf_" ^ p) 5 (count_framework ("cf_" ^ p) events))
    [ "Enter"; "Merge"; "Switch"; "NextIteration"; "Exit" ]

let test_hybrid_lstm_bind_caching () =
  Hybrid.reset_cache ();
  let out, events1 = capture (fun () -> Hybrid.lstm lstm_w lstm_xs) in
  Alcotest.check tensor_eq "matches reference" lstm_ref out;
  Alcotest.(check bool) "bind on first call" true (count_framework "hybrid_bind" events1 > 0);
  let _, events2 = capture (fun () -> Hybrid.lstm lstm_w lstm_xs) in
  Alcotest.(check int) "no rebind on same shape" 0 (count_framework "hybrid_bind" events2);
  Alcotest.(check int) "subgraph exec per step" 5
    (count_framework "hybrid_subgraph_exec" events2)

let test_padded_lstm () =
  let out = Padded.lstm ~max_len:16 lstm_w lstm_xs in
  Alcotest.check tensor_eq "padding preserves result" lstm_ref out;
  Alcotest.(check bool) "waste fraction" true
    (abs_float (Padded.waste ~max_len:10 [ 5; 5 ] -. 0.5) < 1e-9)

let test_padded_rejects_overflow () =
  Alcotest.(check bool) "raises" true
    (try
       ignore (Padded.lstm ~max_len:3 lstm_w lstm_xs);
       false
     with Invalid_argument _ -> true)

(* ---------------------------- Tree-LSTM ---------------------------- *)

let tree_w = Tree_lstm.init_weights Tree_lstm.small_config

let make_tree seed tokens =
  Nimble_workloads.Sst.sample_tree (Rng.create ~seed) Tree_lstm.small_config ~tokens

let test_eager_tree_lstm () =
  let t = make_tree 4 9 in
  let expected = Tree_lstm.reference tree_w t in
  let out, events = capture (fun () -> Eager.tree_lstm tree_w t) in
  Alcotest.check tensor_eq "matches reference" expected out;
  (* one recursion event per tree node: 9 leaves -> 17 nodes *)
  Alcotest.(check int) "per-node recursion" 17 (count_framework "eager_host_recursion" events)

let test_fold_tree_lstm_batching () =
  List.iter
    (fun tokens ->
      let t = make_tree (100 + tokens) tokens in
      let expected = Tree_lstm.reference tree_w t in
      let out, events = capture (fun () -> Fold.tree_lstm tree_w t) in
      Alcotest.check tensor_eq (Fmt.str "tokens=%d" tokens) expected out;
      (* recompilation charged per node, per input *)
      Alcotest.(check int)
        (Fmt.str "recompile nodes=%d" tokens)
        ((2 * tokens) - 1)
        (count_framework "fold_recompile" events);
      (* batching means strictly fewer kernel invocations than eager *)
      let _, eager_events = capture (fun () -> Eager.tree_lstm tree_w t) in
      if tokens > 2 then
        Alcotest.(check bool) "fewer kernels than eager" true
          (count_ops events < count_ops eager_events))
    [ 1; 2; 5; 12 ]

(* ---------------------------- BERT ---------------------------- *)

let bert_w = Bert.init_weights Bert.small_config

let test_all_bert_baselines_agree () =
  let x = Bert.embed bert_w (Bert.random_ids bert_w ~len:7) in
  let expected = Bert.reference bert_w x in
  Hybrid.reset_cache ();
  Alcotest.check tensor_eq "eager" expected (Eager.bert bert_w x);
  Alcotest.check tensor_eq "graph" expected (Graph_cf.bert bert_w x);
  Alcotest.check tensor_eq "hybrid" expected (Hybrid.bert bert_w x)

let test_hybrid_bert_bucketing () =
  Hybrid.reset_cache ();
  let run len =
    capture (fun () -> Hybrid.bert bert_w (Bert.embed bert_w (Bert.random_ids bert_w ~len)))
  in
  let _, e1 = run 7 in
  let _, e2 = run 9 in
  (* 7 and 9 share the 16-bucket: second call must not rebind *)
  Alcotest.(check bool) "first binds" true (count_framework "hybrid_bind" e1 > 0);
  Alcotest.(check int) "bucketed reuse" 0 (count_framework "hybrid_bind" e2);
  let _, e3 = run 20 in
  Alcotest.(check bool) "new bucket binds" true (count_framework "hybrid_bind" e3 > 0)

let prop_fold_matches_reference =
  QCheck.Test.make ~name:"fold batching = reference for random trees" ~count:20
    (QCheck.int_range 1 15) (fun tokens ->
      let t = make_tree (1000 + tokens) tokens in
      Tensor.approx_equal ~atol:1e-4 ~rtol:1e-4
        (Tree_lstm.reference tree_w t)
        (Fold.tree_lstm tree_w t))

let prop_eager_lstm_matches_reference =
  QCheck.Test.make ~name:"eager lstm = reference for random lengths" ~count:15
    (QCheck.int_range 1 12) (fun len ->
      let xs = Lstm.random_sequence Lstm.small_config ~len in
      Tensor.approx_equal ~atol:1e-4 ~rtol:1e-4
        (Lstm.reference lstm_w xs)
        (Eager.lstm lstm_w xs))

let () =
  Alcotest.run "baselines"
    [
      ( "lstm",
        [
          Alcotest.test_case "eager (PyTorch-like)" `Quick test_eager_lstm;
          Alcotest.test_case "graph+cf (TF-like)" `Quick test_graph_cf_lstm;
          Alcotest.test_case "hybrid binds (MXNet-like)" `Quick test_hybrid_lstm_bind_caching;
          Alcotest.test_case "padded static" `Quick test_padded_lstm;
          Alcotest.test_case "padded overflow" `Quick test_padded_rejects_overflow;
          QCheck_alcotest.to_alcotest prop_eager_lstm_matches_reference;
        ] );
      ( "tree_lstm",
        [
          Alcotest.test_case "eager recursion" `Quick test_eager_tree_lstm;
          Alcotest.test_case "fold dynamic batching" `Quick test_fold_tree_lstm_batching;
          QCheck_alcotest.to_alcotest prop_fold_matches_reference;
        ] );
      ( "bert",
        [
          Alcotest.test_case "all baselines agree" `Quick test_all_bert_baselines_agree;
          Alcotest.test_case "hybrid bucketing" `Quick test_hybrid_bert_bucketing;
        ] );
    ]
