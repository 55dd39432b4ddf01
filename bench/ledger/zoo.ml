(** compile-zoo: compile every zoo model in a seeded order, one model
    compile per operation, serializing each executable and checking that
    the bytecode verifier accepts it. The only workload where the
    passes, analyses and emitter are the measured work. *)

open Nimble_models
module Nimble = Nimble_compiler.Nimble

(** Every zoo model as [(name, build)]: weights are made once, and each
    [build ()] returns fresh IR (the passes mutate the module). *)
let models () =
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

(** Compile one model, serialize it and verify the bytes; returns the
    compile time and the serialized size. *)
let compile (run : Run.t) (name, build) =
  let ir = build () in
  let exe, dt = Run.timed (fun () -> Nimble.compile ir) in
  let bytes = Nimble_vm.Serialize.to_bytes exe in
  run.Run.attempted <- run.Run.attempted + 1;
  (match Nimble_analysis.Verifier.of_bytes bytes with
  | _ -> ()
  | exception Nimble_analysis.Verifier.Verify_error ds ->
      Run.fail run "%s: %d verifier diagnostics after serialization" name (List.length ds));
  (dt, String.length bytes)

let shuffle rng a =
  let a = Array.copy a in
  for i = Array.length a - 1 downto 1 do
    let j = Nimble_tensor.Rng.int rng (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  a

let run (run : Run.t) : Run.result =
  let setup_s, zoo =
    Run.time_setup (fun () ->
        Spans.span run.Run.spans "setup" (fun () ->
            let zoo = models () in
            ignore (compile run (List.hd zoo));
            zoo))
  in
  let zoo = Array.of_list zoo in
  let input_nodes =
    float_of_int (Array.fold_left (fun a (_, build) -> a + Nimble.ir_size (build ())) 0 zoo)
  in
  let sweep lat models =
    Array.fold_left
      (fun (t, b) m ->
        Run.calibrate run;
        let dt, bytes = compile run m in
        Sample.add lat dt;
        (t +. dt, b + bytes))
      (0.0, 0) models
  in
  (* Fused kernel names carry a process-wide counter, so a model's
     serialized size can change by a few bytes between compiles. The
     warm-up sweep runs at the same point of every run, in zoo order,
     and gives the reported size. *)
  let _, bytes = sweep (Sample.create ()) zoo in
  let peak_rss_mb = Run.peak_rss_mb () in
  let rng = Nimble_tensor.Rng.create ~seed:run.Run.seed in
  let lat = Sample.create () in
  let deadline = Run.now () +. Run.phase_seconds run in
  let rec sweeps acc =
    if acc <> [] && Run.now () >= deadline then acc
    else sweeps (sweep lat (shuffle rng zoo) :: acc)
  in
  let times = List.map fst (sweeps []) in
  let n = float_of_int (Array.length zoo) in
  let end_to_end =
    [
      ("setup_s", setup_s);
      ("latency_p50_ms", 1e3 *. Sample.median lat);
      ("us_per_token", Sample.median_of (List.map (fun t -> 1e6 *. t /. input_nodes) times));
      ("throughput_ops_s", Sample.median_of (List.map (fun t -> n /. t) times));
      ("peak_rss_mb", peak_rss_mb);
      ("exe_bytes", float_of_int bytes);
    ]
  in
  if not run.Run.traced then { Run.end_to_end; per_layer = [] }
  else
    {
      Run.end_to_end;
      per_layer =
        ("latency_p90_ms", 1e3 *. Sample.percentile lat 90.0)
        :: ("latency_p99_ms", 1e3 *. Sample.percentile lat 99.0)
        :: Compile_layers.profile run ~models:(Array.to_list zoo);
    }
