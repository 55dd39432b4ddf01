(** Chaos benchmark: the serving engine under deterministic fault
    injection (docs/ROBUSTNESS.md).

    One fixed scenario — a seeded [NIMBLE_FAULT_SPEC]-style spec over
    every well-known injection point — drives a request sweep through
    the engine and reports how the resilience machinery absorbed it:
    completions vs typed failures, retries, worker restarts, per-point
    injection counters, and whether every successful response stayed
    bitwise-equal to a fault-free sequential reference. With bench
    [--json] the section prints one [nimble-chaos/v1] JSON line (the
    committed [BENCH_chaos.json] baseline, gated by tools/bench_check);
    otherwise a human summary. *)

open Nimble_tensor
open Nimble_ir
module Serve = Nimble_serve
module Fault = Nimble_fault.Fault
module Interp = Nimble_vm.Interp
module Json = Nimble_vm.Json

let feature_dim = 64
let out_dim = 32
let requests = 96
let fault_spec = "seed=11;*=0.02"

let build_module w =
  let x = Expr.fresh_var ~ty:(Ty.tensor [ Dim.Any; Dim.static feature_dim ]) "x" in
  let body = Expr.op_call "relu" [ Expr.op_call "dense" [ Expr.Var x; Expr.Const w ] ] in
  Irmod.of_main (Expr.fn_def [ x ] body)

let engine_config =
  {
    Serve.Engine.default_config with
    Serve.Engine.workers = 2;
    queue_capacity = 256;
    max_batch = 8;
    max_retries = 3;
    retry_backoff_us = 50.0;
  }

type outcome = {
  o_completed : int;
  o_failed : int;
  o_rejected : int;
  o_bitwise_ok : bool;
  o_stats : Serve.Stats.summary;
  o_attempts : (string * int) list;
  o_hits : (string * int) list;
}

let run_scenario () =
  let rng = Rng.create ~seed:7 in
  let w = Tensor.randn rng [| out_dim; feature_dim |] in
  let exe = Nimble_compiler.Nimble.compile (build_module w) in
  let shapes = [| 4; 8; 12; 16; 24; 32 |] in
  let jobs =
    Array.init requests (fun i ->
        let rows = shapes.(i mod Array.length shapes) in
        (rows, Tensor.randn rng [| rows; feature_dim |]))
  in
  (* fault-free sequential reference, before injection is configured *)
  let reference =
    let vm = Interp.create exe in
    Array.map (fun (_, x) -> Interp.run_tensors vm [ x ]) jobs
  in
  Fun.protect ~finally:Fault.disable (fun () ->
      Fault.configure fault_spec;
      let engine = Serve.Engine.create ~config:engine_config exe in
      let tickets =
        Array.map
          (fun (rows, x) ->
            Serve.Engine.submit engine ~shape:[| rows |] (Nimble_vm.Obj.tensor x))
          jobs
      in
      let completed = ref 0 and failed = ref 0 and rejected = ref 0 in
      let bitwise_ok = ref true in
      Array.iteri
        (fun i tk ->
          match tk with
          | Error _ -> incr rejected
          | Ok tk -> (
              match Serve.Engine.wait tk with
              | Ok (Nimble_vm.Obj.Tensor p) ->
                  incr completed;
                  if not (Tensor.equal reference.(i) p.Nimble_vm.Obj.data) then
                    bitwise_ok := false
              | Ok _ -> bitwise_ok := false
              | Error _ -> incr failed))
        tickets;
      Serve.Engine.shutdown engine;
      {
        o_completed = !completed;
        o_failed = !failed;
        o_rejected = !rejected;
        o_bitwise_ok = !bitwise_ok;
        o_stats = Serve.Engine.stats engine;
        o_attempts = Fault.attempts ();
        o_hits = Fault.hits ();
      })

let doc_json (o : outcome) : Json.t =
  let s = o.o_stats in
  Json.Obj
    [
      ("schema", Json.String "nimble-chaos/v1");
      ("title", Json.String "Serving engine under deterministic fault injection");
      ("model", Json.String (Fmt.str "dense_relu Anyx%d->%d" feature_dim out_dim));
      ("spec", Json.String fault_spec);
      ("requests", Json.Int requests);
      ("completed", Json.Int o.o_completed);
      ("failed", Json.Int o.o_failed);
      ("rejected", Json.Int o.o_rejected);
      ("retries", Json.Int s.Serve.Stats.s_retries);
      ("worker_restarts", Json.Int s.Serve.Stats.s_worker_restarts);
      ("bitwise_ok", Json.Bool o.o_bitwise_ok);
      ( "failure_kinds",
        Json.Obj
          (List.map
             (fun (k, n) -> (k, Json.Int n))
             s.Serve.Stats.s_failure_kinds) );
      ( "fault_points",
        Json.Obj
          (List.map
             (fun (point, attempts) ->
               let hits =
                 match List.assoc_opt point o.o_hits with Some h -> h | None -> 0
               in
               ( point,
                 Json.Obj
                   [ ("attempts", Json.Int attempts); ("hits", Json.Int hits) ] ))
             o.o_attempts) );
    ]

let run () =
  let o = run_scenario () in
  if !Bench_util.json_mode then print_endline (Json.to_string (doc_json o))
  else begin
    Fmt.pr
      "Chaos (%s over dense_relu Anyx%d->%d, %d requests, %d workers):@."
      fault_spec feature_dim out_dim requests
      engine_config.Serve.Engine.workers;
    Fmt.pr
      "  completed %d, failed %d, rejected %d; bitwise vs reference: %b@."
      o.o_completed o.o_failed o.o_rejected o.o_bitwise_ok;
    Fmt.pr "@.%a@." Serve.Stats.pp_summary o.o_stats;
    List.iter
      (fun (point, attempts) ->
        let hits =
          match List.assoc_opt point o.o_hits with Some h -> h | None -> 0
        in
        Fmt.pr "  fault point %-14s %6d attempts, %d injected@." point attempts hits)
      o.o_attempts
  end
