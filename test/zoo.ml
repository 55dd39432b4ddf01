(* The eleven zoo models as [(name, build)]: weights are made once, and
   each [build ()] returns fresh IR (the passes mutate the module they
   compile). *)

let models () =
  let open Nimble_models in
  let lstm = Lstm.init_weights Lstm.small_config in
  let posenc = Posenc.init_weights Posenc.default_config in
  let gru = Gru.init_weights Gru.small_config in
  let treelstm = Tree_lstm.init_weights Tree_lstm.small_config in
  let bert = Bert.init_weights Bert.small_config in
  let decoder = Decoder.init_weights Decoder.default_config in
  let seq2seq = Seq2seq.init_weights Seq2seq.default_config in
  [
    ("lstm", fun () -> Lstm.ir_module lstm);
    ("posenc", fun () -> Posenc.ir_module posenc);
    ("gru", fun () -> Gru.ir_module gru);
    ("treelstm", fun () -> Tree_lstm.ir_module treelstm);
    ("bert", fun () -> Bert.ir_module bert);
    ("decoder", fun () -> Decoder.ir_module decoder);
    ("seq2seq", fun () -> Seq2seq.ir_module seq2seq);
  ]
  @ Vision.all
