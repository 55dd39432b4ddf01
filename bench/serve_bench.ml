(** Serving-engine benchmark: throughput and latency of the serving
    engine (lib/serve), whose workers take same-bucket batches from the
    pending queue, across a grid of arrival rates and shape mixes.

    Each point drives a fresh {!Nimble_serve.Engine} (engine statistics
    are cumulative) with the open-loop {!Nimble_serve.Loadgen}; the
    executable comes from one warm {!Nimble_serve.Cache}, so the first
    point pays the cold serialize → relink load and the rest are warm
    hits. With bench [--json] the section prints one [nimble-serve/v1]
    JSON line (the committed [BENCH_serve.json] baseline, gated by
    tools/bench_check); otherwise a paper-style table plus per-point
    engine summaries. *)

open Nimble_tensor
open Nimble_ir
module Serve = Nimble_serve
module Json = Nimble_vm.Json
module Nimble = Nimble_compiler.Nimble

(* dense(x: Any x feat, w) |> relu — a small dynamic-shape model whose
   leading dimension varies per request, so bucketing has work to do *)
let feature_dim = 64
let out_dim = 32

let build_module () =
  let rng = Rng.create ~seed:7 in
  let w = Tensor.randn rng [| out_dim; feature_dim |] in
  let x = Expr.fresh_var ~ty:(Ty.tensor [ Dim.Any; Dim.static feature_dim ]) "x" in
  let body = Expr.op_call "relu" [ Expr.op_call "dense" [ Expr.Var x; Expr.Const w ] ] in
  Irmod.of_main (Expr.fn_def [ x ] body)

(* one (rate, mix) measurement point; rows = the dynamic leading dim *)
type point = { p_rate : float; p_mix_name : string; p_rows : (int * float) list }

let points =
  [
    { p_rate = 300.0; p_mix_name = "uniform-8"; p_rows = [ (8, 1.0) ] };
    {
      p_rate = 600.0;
      p_mix_name = "mixed-4-16";
      p_rows = [ (4, 1.0); (8, 2.0); (16, 1.0) ];
    };
    {
      p_rate = 1200.0;
      p_mix_name = "mixed-4-32";
      p_rows = [ (4, 1.0); (8, 1.0); (16, 1.0); (32, 1.0) ];
    };
  ]

let engine_config =
  {
    Serve.Engine.default_config with
    Serve.Engine.workers = 2;
    queue_capacity = 128;
    max_batch = 8;
  }

let duration_s = 0.4

(* inputs are pre-generated per distinct shape (client domains share
   them read-only): content is irrelevant to throughput, and this keeps
   the generator allocation-free on the hot path *)
let make_inputs rows_list =
  let rng = Rng.create ~seed:11 in
  let tbl = Hashtbl.create 8 in
  List.iter
    (fun (rows, _) ->
      if not (Hashtbl.mem tbl rows) then
        Hashtbl.add tbl rows
          (Nimble_vm.Obj.tensor (Tensor.randn rng [| rows; feature_dim |])))
    rows_list;
  fun ~shape -> Hashtbl.find tbl shape.(0)

let run_point exe p =
  let engine = Serve.Engine.create ~config:engine_config exe in
  let config =
    {
      Serve.Loadgen.default_config with
      Serve.Loadgen.rate_rps = p.p_rate;
      duration_s;
      clients = 2;
      mix = List.map (fun (rows, w) -> ([| rows |], w)) p.p_rows;
      seed = 42;
    }
  in
  let result = Serve.Loadgen.run ~config engine ~make_input:(make_inputs p.p_rows) in
  Serve.Engine.shutdown engine;
  result

(* each point is driven twice: once with the symbolic memory plan (the
   served configuration, [r]) and once with it disabled ([r_unplanned]),
   so the committed baseline records the allocation collapse the plan
   buys — compare [allocs_per_request] against
   [allocs_per_request_unplanned] *)
let point_json p (r : Serve.Loadgen.result) (r_unplanned : Serve.Loadgen.result)
    : Json.t =
  let s = r.Serve.Loadgen.summary in
  let su = r_unplanned.Serve.Loadgen.summary in
  Json.Obj
    [
      ("label", Json.String (Fmt.str "%.0frps/%s" p.p_rate p.p_mix_name));
      ("rate_rps", Json.Float p.p_rate);
      ("mix", Json.String p.p_mix_name);
      ("offered", Json.Int r.Serve.Loadgen.offered);
      ("completed", Json.Int s.Serve.Stats.s_completed);
      ("throughput_rps", Json.Float r.Serve.Loadgen.achieved_rps);
      ("p50_ms", Json.Float s.Serve.Stats.s_p50_ms);
      ("p99_ms", Json.Float s.Serve.Stats.s_p99_ms);
      ("mean_batch", Json.Float s.Serve.Stats.s_mean_batch);
      ( "batch_hist",
        Json.Obj
          (List.map
             (fun (size, n) -> (string_of_int size, Json.Int n))
             s.Serve.Stats.s_batch_hist) );
      ("rejected", Json.Int s.Serve.Stats.s_rejected);
      ("timeouts", Json.Int s.Serve.Stats.s_timeouts);
      ("queue_depth_hwm", Json.Int s.Serve.Stats.s_queue_depth_hwm);
      ("allocs_per_request", Json.Float s.Serve.Stats.s_allocs_per_request);
      ("arena_reuses", Json.Int s.Serve.Stats.s_arena_reuses);
      ( "allocs_per_request_unplanned",
        Json.Float su.Serve.Stats.s_allocs_per_request );
    ]

let doc_json results : Json.t =
  Json.Obj
    [
      ("schema", Json.String "nimble-serve/v1");
      ("title", Json.String "Serving engine: shape-bucketed dynamic batching");
      ("model", Json.String (Fmt.str "dense_relu Anyx%d->%d" feature_dim out_dim));
      ( "engine",
        Json.Obj
          [
            ("workers", Json.Int engine_config.Serve.Engine.workers);
            ("max_batch", Json.Int engine_config.Serve.Engine.max_batch);
            ("queue_capacity", Json.Int engine_config.Serve.Engine.queue_capacity);
          ] );
      ( "points",
        Json.List (List.map (fun (p, r, ru) -> point_json p r ru) results) );
    ]

let run () =
  let cache = Serve.Cache.create () in
  let exe = Serve.Cache.load cache ~name:"dense_relu" ~build:build_module in
  let exe_unplanned =
    Serve.Cache.load cache ~name:"dense_relu_unplanned"
      ~options:{ Nimble.default_options with Nimble.symbolic_plan = false }
      ~build:build_module
  in
  let results =
    List.map (fun p -> (p, run_point exe p, run_point exe_unplanned p)) points
  in
  if !Bench_util.json_mode then print_endline (Json.to_string (doc_json results))
  else begin
    Bench_util.print_table
      ~title:
        (Fmt.str "Serving engine (dense_relu Anyx%d->%d, %d workers, batch<=%d)"
           feature_dim out_dim engine_config.Serve.Engine.workers
           engine_config.Serve.Engine.max_batch)
      ~unit:"offered rps / mix"
      ~columns:[ "achieved"; "p50 ms"; "p99 ms"; "mean batch"; "allocs/req" ]
      (List.map
         (fun (p, (r : Serve.Loadgen.result), _) ->
           let s = r.Serve.Loadgen.summary in
           ( Fmt.str "%.0f %s" p.p_rate p.p_mix_name,
             [
               Some r.Serve.Loadgen.achieved_rps;
               Some s.Serve.Stats.s_p50_ms;
               Some s.Serve.Stats.s_p99_ms;
               Some s.Serve.Stats.s_mean_batch;
               Some s.Serve.Stats.s_allocs_per_request;
             ] ))
         results);
    List.iter
      (fun (p, (r : Serve.Loadgen.result), (ru : Serve.Loadgen.result)) ->
        Fmt.pr "@.%.0f rps, %s:@.%a@.(unplanned allocs/request %.3f)@."
          p.p_rate p.p_mix_name Serve.Stats.pp_summary r.Serve.Loadgen.summary
          ru.Serve.Loadgen.summary.Serve.Stats.s_allocs_per_request)
      results
  end
