(** Online-specialization benchmark: the profile-guided shape
    specialization loop ([Nimble_codegen.Autotune]) closed end to end
    under serving load.

    A dense model compiled with a {e sparse} dispatch table (2 of 8
    residue kernels) serves a skewed shape mix whose dominant extent
    falls on an uncovered residue, so most calls take the guarded
    fallback. The [before] phase measures that steady state; an attached
    autotuner observes the live extent histogram, tunes the hot extent in
    the background and installs the winner into the live dispatch table;
    the [after] phase measures the re-tuned steady state. The committed
    [BENCH_tune.json] baseline ([nimble-tune/v1], gated by
    tools/bench_check) records both phases plus two invariants: outputs
    stay bitwise-equal across the install, and a warm restart
    ([Serve.Cache.persist_tunes] → serialize → relink →
    [Serve.Cache.apply_tunes]) comes back pre-specialized. *)

open Nimble_tensor
open Nimble_ir
module Serve = Nimble_serve
module Json = Nimble_vm.Json
module Nimble = Nimble_compiler.Nimble
module Dispatch = Nimble_codegen.Dispatch
module Autotune = Nimble_codegen.Autotune

(* dense(x: Any x feat, w) |> relu with the leading dim symbolic; larger
   than the serve bench so the guarded-vs-specialized gap is visible *)
let feature_dim = 128
let out_dim = 64

let build_module () =
  let rng = Rng.create ~seed:13 in
  let w = Tensor.randn rng [| out_dim; feature_dim |] in
  let x = Expr.fresh_var ~ty:(Ty.tensor [ Dim.Any; Dim.static feature_dim ]) "x" in
  let body = Expr.op_call "relu" [ Expr.op_call "dense" [ Expr.Var x; Expr.Const w ] ] in
  Irmod.of_main (Expr.fn_def [ x ] body)

(* only 2 of the 8 residue kernels are compiled in, so the skewed mix's
   dominant extent (21 ≡ 5 mod 8) starts on the guarded fallback — the
   situation the online tuner exists to fix *)
let compile_opts = { Nimble.default_options with Nimble.dense_dispatch = Some 2 }

(* 80% of traffic at the uncovered extent, the rest on covered residues *)
let hot_rows = 21
let mix = [ ([| hot_rows |], 8.0); ([| 8 |], 1.0); ([| 16 |], 1.0) ]

let engine_config =
  {
    Serve.Engine.default_config with
    Serve.Engine.workers = 2;
    queue_capacity = 128;
    max_batch = 8;
  }

let duration_s = 0.35

let make_inputs () =
  let rng = Rng.create ~seed:17 in
  let tbl = Hashtbl.create 8 in
  List.iter
    (fun (shape, _) ->
      if not (Hashtbl.mem tbl shape.(0)) then
        Hashtbl.add tbl shape.(0)
          (Nimble_vm.Obj.tensor (Tensor.randn rng [| shape.(0); feature_dim |])))
    mix;
  fun ~shape -> Hashtbl.find tbl shape.(0)

(* the dense dispatcher the model's packed kernel routes through *)
let dispatcher exe =
  match Nimble_vm.Exe.dispatchers exe with
  | (_, d) :: _ -> d
  | [] -> failwith "autotune bench: executable has no dense dispatcher"

type phase = {
  ph_name : string;
  ph_hit_rate : float;
  ph_p50_ms : float;
  ph_p99_ms : float;
  ph_throughput : float;
  ph_hits : int;
  ph_misses : int;
  ph_tuned_calls : int;
  ph_installs : int;
}

(* one measurement window: zeroed dispatch counters, a fresh engine over
   the shared executable (engine stats are cumulative), the skewed mix *)
let run_phase ?autotune ~name exe =
  Dispatch.reset_counters ();
  let engine = Serve.Engine.create ~config:engine_config ?autotune exe in
  let config =
    {
      Serve.Loadgen.default_config with
      Serve.Loadgen.rate_rps = 700.0;
      duration_s;
      clients = 2;
      mix;
      seed = 42;
    }
  in
  let result = Serve.Loadgen.run ~config engine ~make_input:(make_inputs ()) in
  Serve.Engine.shutdown engine;
  let d = dispatcher exe in
  let hits, misses = Dispatch.stats d in
  let tuned = Dispatch.tuned_calls d in
  let total = hits + misses + tuned in
  let s = result.Serve.Loadgen.summary in
  {
    ph_name = name;
    ph_hit_rate = (if total = 0 then 0.0 else float_of_int (hits + tuned) /. float_of_int total);
    ph_p50_ms = s.Serve.Stats.s_p50_ms;
    ph_p99_ms = s.Serve.Stats.s_p99_ms;
    ph_throughput = result.Serve.Loadgen.achieved_rps;
    ph_hits = hits;
    ph_misses = misses;
    ph_tuned_calls = tuned;
    ph_installs = 0;
  }

let phase_json p : Json.t =
  Json.Obj
    [
      ("label", Json.String (Fmt.str "%s/skew-%d" p.ph_name hot_rows));
      ("phase", Json.String p.ph_name);
      ("hit_rate", Json.Float p.ph_hit_rate);
      ("p50_ms", Json.Float p.ph_p50_ms);
      ("p99_ms", Json.Float p.ph_p99_ms);
      ("throughput_rps", Json.Float p.ph_throughput);
      ("hits", Json.Int p.ph_hits);
      ("misses", Json.Int p.ph_misses);
      ("tuned_calls", Json.Int p.ph_tuned_calls);
      ("installs", Json.Int p.ph_installs);
    ]

let doc_json ~phases ~bitwise_ok ~warm_restart_pretuned : Json.t =
  Json.Obj
    [
      ("schema", Json.String "nimble-tune/v1");
      ( "title",
        Json.String "Online shape specialization: hot-extent re-tuning under load" );
      ("model", Json.String (Fmt.str "dense_relu Anyx%d->%d dispatch/2" feature_dim out_dim));
      ("hot_extent", Json.Int hot_rows);
      ("points", Json.List (List.map phase_json phases));
      ("bitwise_ok", Json.Bool bitwise_ok);
      ("warm_restart_pretuned", Json.Bool warm_restart_pretuned);
    ]

(* relink a serialized copy of [exe] exactly as a restarted server does
   (decode, verify, relink by name from a fresh compile of the module,
   replay the tune table) and report whether the hot extent came back
   pre-specialized *)
let warm_restart_check exe =
  let persisted = Serve.Cache.persist_tunes exe in
  let bytes = Nimble_vm.Serialize.to_bytes exe in
  let exe2 = Nimble_analysis.Verifier.of_bytes bytes in
  Nimble_vm.Exe.relink
    ~from:(Nimble.compile ~options:compile_opts (build_module ()))
    exe2;
  let applied = Serve.Cache.apply_tunes exe2 in
  let pretuned =
    Dispatch.pretuned (dispatcher exe2) ~extent:hot_rows <> None
  in
  persisted >= 1 && applied >= 1 && pretuned

let run () =
  let exe =
    Serve.Cache.load ~options:compile_opts (Serve.Cache.create ())
      ~name:"dense_relu" ~build:build_module
  in
  (* reference output for the hot extent, captured before any install *)
  let inputs = make_inputs () in
  let hot_input = inputs ~shape:[| hot_rows |] in
  let ref_out = Nimble_vm.Interp.invoke (Nimble.vm exe) [ hot_input ] in
  (* [before]: no tuner — the untuned steady state, where the dominant
     extent pays the guarded fallback on every call *)
  let before = run_phase ~name:"before" exe in
  (* [tuning]: the tuner is attached and observing the live engine; the
     hot extent crosses the threshold mid-window and the specialized
     kernel is installed into the live table while requests flow *)
  let tuner =
    Autotune.create
      ~config:
        {
          Autotune.default_config with
          Autotune.hot_threshold = 32;
          scan_interval = 8;
        }
      ()
  in
  let tuning = run_phase ~autotune:tuner ~name:"tuning" exe in
  (* close the loop: make sure the final window was scanned, then wait
     for the background installs to land before the re-tuned phase *)
  Autotune.scan tuner [ dispatcher exe ];
  Autotune.drain tuner;
  Autotune.shutdown tuner;
  let summary = Autotune.summary tuner in
  let installs = List.length summary.Autotune.au_installs in
  let tuning = { tuning with ph_installs = installs } in
  (* [after]: no tuner again — the re-tuned steady state *)
  let after =
    { (run_phase ~name:"after" exe) with ph_installs = installs }
  in
  let after_out = Nimble_vm.Interp.invoke (Nimble.vm exe) [ hot_input ] in
  let bitwise_ok =
    match (ref_out, after_out) with
    | Nimble_vm.Obj.Tensor a, Nimble_vm.Obj.Tensor b ->
        Tensor.equal a.Nimble_vm.Obj.data b.Nimble_vm.Obj.data
    | _ -> false
  in
  let warm_restart_pretuned = warm_restart_check exe in
  let phases = [ before; tuning; after ] in
  if !Bench_util.json_mode then
    print_endline (Json.to_string (doc_json ~phases ~bitwise_ok ~warm_restart_pretuned))
  else begin
    Bench_util.print_table
      ~title:
        (Fmt.str
           "Online specialization (dense_relu Anyx%d->%d, dispatch/2, hot extent %d)"
           feature_dim out_dim hot_rows)
      ~unit:"phase"
      ~columns:[ "hit rate"; "p50 ms"; "p99 ms"; "rps"; "tuned calls" ]
      (List.map
         (fun p ->
           ( p.ph_name,
             [
               Some p.ph_hit_rate;
               Some p.ph_p50_ms;
               Some p.ph_p99_ms;
               Some p.ph_throughput;
               Some (float_of_int p.ph_tuned_calls);
             ] ))
         phases);
    Fmt.pr
      "@.%d install(s) for hot extent %d; bitwise across install: %b; warm \
       restart pre-specialized: %b@."
      installs hot_rows bitwise_ok warm_restart_pretuned
  end
