(** Fleet benchmark: graceful degradation of the multi-model tier past
    saturation (docs/SERVING.md).

    Four phases over a two-model fleet (a weight-3 "hot" model and a
    weight-1 "cold" one, splitting one worker budget):

    - {b rate sweep} — multi-tenant open-loop load at multiples of the
      measured saturation throughput, at least three of them past it.
      Requests carry deadlines, so past saturation the SLO admission
      controller sheds at the door instead of letting goodput collapse;
      the no-collapse invariant (goodput at 2x saturation >= half the
      peak) is recorded and gated by tools/bench_check.
    - {b breaker chaos} — a persistent [kernel_launch] fault spec makes
      one lane fail deterministically: the (model, bucket) breakers
      trip, shed while Open, and the client-visible [Tripped] tally
      proves requests stopped burning workers.
    - {b snapshot / warm restart} — the fleet checkpoints (executables,
      tune tables, arena hints) and one model is warm-restarted from
      disk; the relink-only claim is checked via the cache's miss
      counter (a restore must not recompile), and cold-load vs restart
      wall times are reported.
    - {b bitwise} — one served request per model is compared against a
      fault-free sequential reference VM.

    With bench [--json] the section prints one [nimble-fleet/v1] JSON
    line (the committed [BENCH_fleet.json] baseline, gated by
    tools/bench_check); otherwise a human summary. *)

open Nimble_tensor
open Nimble_ir
module Serve = Nimble_serve
module Fault = Nimble_fault.Fault
module Interp = Nimble_vm.Interp
module Json = Nimble_vm.Json

(* heavy enough that saturation sits at a rate the open-loop generator
   can comfortably exceed 3x on any host *)
let hot_feature = 256

let hot_out = 128
let cold_feature = 128
let cold_out = 64

let build_model ~seed ~feature ~out () =
  let rng = Rng.create ~seed in
  let w = Tensor.randn rng [| out; feature |] in
  let x = Expr.fresh_var ~ty:(Ty.tensor [ Dim.Any; Dim.static feature ]) "x" in
  let body =
    Expr.op_call "relu" [ Expr.op_call "dense" [ Expr.Var x; Expr.Const w ] ]
  in
  Irmod.of_main (Expr.fn_def [ x ] body)

let specs () : Serve.Fleet.spec list =
  [
    {
      Serve.Fleet.name = "hot";
      build = build_model ~seed:7 ~feature:hot_feature ~out:hot_out;
      weight = 3;
    };
    {
      Serve.Fleet.name = "cold";
      build = build_model ~seed:8 ~feature:cold_feature ~out:cold_out;
      weight = 1;
    };
  ]

let fleet_config =
  {
    Serve.Fleet.total_workers = 4;
    engine =
      {
        Serve.Engine.default_config with
        Serve.Engine.workers = 4;
        queue_capacity = 64;
        max_batch = 8;
      };
    admission = Some Serve.Admission.default_config;
    breaker = Some Serve.Breaker.default_config;
  }

let deadline_us = 10_000.0
let hot_rows = [ 4; 8; 16 ]
let cold_rows = [ 8 ]

(* inputs pre-generated per (model, rows): client domains share them
   read-only, keeping the generator allocation-free on the hot path *)
let make_input =
  let rng = Rng.create ~seed:11 in
  let tbl = Hashtbl.create 8 in
  List.iter
    (fun (model, feature, rows_list) ->
      List.iter
        (fun rows ->
          Hashtbl.replace tbl (model, rows)
            (Nimble_vm.Obj.tensor (Tensor.randn rng [| rows; feature |])))
        rows_list)
    [ ("hot", hot_feature, hot_rows); ("cold", cold_feature, cold_rows) ];
  fun ~model ~shape -> Hashtbl.find tbl (model, shape.(0))

let tenants : Serve.Loadgen.tenant list =
  [
    {
      Serve.Loadgen.tn_model = "hot";
      tn_share = 3.0;
      tn_mix = List.map (fun r -> ([| r |], 1.0)) hot_rows;
      tn_timeout_us = Some deadline_us;
    };
    {
      Serve.Loadgen.tn_model = "cold";
      tn_share = 1.0;
      tn_mix = List.map (fun r -> ([| r |], 1.0)) cold_rows;
      tn_timeout_us = Some deadline_us;
    };
  ]

let new_fleet () = Serve.Fleet.create ~config:fleet_config (specs ())

(* one measurement point: a fresh fleet (stats are cumulative) under a
   bursty multi-tenant arrival stream at [rate] for [duration] *)
let run_point ~rate ~duration =
  let fleet = new_fleet () in
  let cfg =
    {
      Serve.Loadgen.default_config with
      Serve.Loadgen.rate_rps = rate;
      duration_s = duration;
      clients = 2;
      process = Serve.Loadgen.Bursty { burst = 4 };
      seed = 42;
    }
  in
  let r = Serve.Loadgen.run_fleet ~config:cfg fleet ~tenants ~make_input in
  Serve.Fleet.shutdown fleet;
  r

let goodput (r : Serve.Loadgen.fleet_result) =
  float_of_int r.Serve.Loadgen.f_ok /. Float.max 1e-9 r.Serve.Loadgen.f_wall_s

(* breaker chaos: every kernel launch fails persistently, so the lane
   trips after one failure window and keeps shedding while Open *)
let chaos_spec = "seed=11;kernel_launch=1.0:persistent"
let chaos_requests = 60

let run_breaker_chaos () =
  let fleet = new_fleet () in
  Fun.protect
    ~finally:(fun () ->
      Fault.disable ();
      Serve.Fleet.shutdown fleet)
    (fun () ->
      Fault.configure chaos_spec;
      let input = make_input ~model:"hot" ~shape:[| 8 |] in
      let failed = ref 0 and tripped = ref 0 in
      for _ = 1 to chaos_requests do
        match Serve.Fleet.run fleet ~model:"hot" ~shape:[| 8 |] input with
        | Ok _ -> ()
        | Error Serve.Engine.Tripped -> incr tripped
        | Error (Serve.Engine.Failed _) -> incr failed
        | Error _ -> ()
      done;
      let counters, lanes, open_lanes =
        Serve.Fleet.breaker_totals fleet ~model:"hot"
      in
      (!failed, !tripped, counters, lanes, open_lanes))

(* snapshot / warm restart / bitwise: checkpoint a fleet, restart one
   model from disk, and prove the restore never recompiled and the
   restarted pool still answers bitwise-identically to a sequential
   reference *)
let run_snapshot_phase () =
  let dir =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Fmt.str "nimble_fleet_bench_%d" (Unix.getpid ()))
  in
  let t0 = Unix.gettimeofday () in
  let fleet = new_fleet () in
  let cold_start_ms = 1e3 *. (Unix.gettimeofday () -. t0) in
  Fun.protect
    ~finally:(fun () ->
      Serve.Fleet.shutdown fleet;
      (* best-effort cleanup of the scratch snapshot *)
      if Sys.file_exists dir then begin
        Array.iter
          (fun f -> try Sys.remove (Filename.concat dir f) with Sys_error _ -> ())
          (Sys.readdir dir);
        try Sys.rmdir dir with Sys_error _ -> ()
      end)
    (fun () ->
      (* serve each (model, shape) once so arena hints are observed and
         the bitwise baseline has an answer to compare against *)
      let reference =
        List.map
          (fun (model, rows) ->
            let input = make_input ~model ~shape:[| rows |] in
            let served =
              match Serve.Fleet.run fleet ~model ~shape:[| rows |] input with
              | Ok (Nimble_vm.Obj.Tensor t) -> Some t.Nimble_vm.Obj.data
              | _ -> None
            in
            (model, rows, input, served))
          [ ("hot", 8); ("cold", 8) ]
      in
      let snapshot_models = Serve.Fleet.snapshot fleet ~dir in
      let misses_before = Serve.Cache.misses (Serve.Fleet.cache fleet) in
      let t1 = Unix.gettimeofday () in
      let restored = Serve.Fleet.warm_restart fleet ~dir ~model:"hot" in
      let warm_restart_ms = 1e3 *. (Unix.gettimeofday () -. t1) in
      let relink_only =
        Serve.Cache.misses (Serve.Fleet.cache fleet) = misses_before
      in
      (* the restarted pool must still answer, bitwise-identically to a
         sequential reference VM over the restored executable *)
      let bitwise_ok =
        List.for_all
          (fun (model, rows, input, served) ->
            match
              (served, Serve.Fleet.run fleet ~model ~shape:[| rows |] input)
            with
            | Some before, Ok (Nimble_vm.Obj.Tensor after) ->
                let vm =
                  Interp.create
                    (if model = "hot" then restored.Serve.Cache.r_exe
                     else
                       Serve.Cache.load (Serve.Fleet.cache fleet) ~name:model
                         ~build:(build_model ~seed:8 ~feature:cold_feature
                                   ~out:cold_out))
                in
                let seq =
                  match Interp.invoke vm [ input ] with
                  | Nimble_vm.Obj.Tensor t -> t.Nimble_vm.Obj.data
                  | _ -> before
                in
                Tensor.equal before after.Nimble_vm.Obj.data
                && Tensor.equal before seq
            | _ -> false)
          reference
      in
      ( cold_start_ms,
        warm_restart_ms,
        relink_only,
        snapshot_models,
        restored.Serve.Cache.r_arena_hints,
        bitwise_ok ))

type point = {
  pt_label : string;
  pt_rate : float;
  pt_past_saturation : bool;
  pt_result : Serve.Loadgen.fleet_result;
}

let sweep () =
  (* calibrate: saturation = goodput under a far-overloaded offered rate *)
  let cal = run_point ~rate:20_000.0 ~duration:0.3 in
  let saturation = Float.max 50.0 (goodput cal) in
  let multiples = [ 0.5; 1.0; 1.5; 2.0; 3.0 ] in
  let points =
    List.map
      (fun m ->
        let rate = m *. saturation in
        {
          pt_label = Fmt.str "%.1fx" m;
          pt_rate = rate;
          pt_past_saturation = m > 1.0;
          pt_result = run_point ~rate ~duration:0.4;
        })
      multiples
  in
  (saturation, points)

let point_json (p : point) : Json.t =
  let r = p.pt_result in
  Json.Obj
    [
      ("label", Json.String p.pt_label);
      ("offered_rate_rps", Json.Float p.pt_rate);
      ("past_saturation", Json.Bool p.pt_past_saturation);
      ("offered", Json.Int r.Serve.Loadgen.f_offered);
      ("ok", Json.Int r.Serve.Loadgen.f_ok);
      ("goodput_rps", Json.Float (goodput r));
      ("shed", Json.Int r.Serve.Loadgen.f_shed);
      ("tripped", Json.Int r.Serve.Loadgen.f_tripped);
      ("rejected", Json.Int r.Serve.Loadgen.f_rejected);
      ("timed_out", Json.Int r.Serve.Loadgen.f_timed_out);
      ("failed", Json.Int r.Serve.Loadgen.f_failed);
    ]

let run () =
  let saturation, points = sweep () in
  let peak =
    List.fold_left (fun acc p -> Float.max acc (goodput p.pt_result)) 0.0 points
  in
  let g2x =
    match List.find_opt (fun p -> p.pt_label = "2.0x") points with
    | Some p -> goodput p.pt_result
    | None -> 0.0
  in
  let chaos_failed, chaos_tripped, bc, lanes, open_lanes =
    run_breaker_chaos ()
  in
  let ( cold_start_ms,
        warm_restart_ms,
        relink_only,
        snapshot_models,
        arena_hints,
        bitwise_ok ) =
    run_snapshot_phase ()
  in
  let shed_total =
    List.fold_left (fun acc p -> acc + p.pt_result.Serve.Loadgen.f_shed) 0 points
    + bc.Serve.Breaker.c_shed
  in
  let tripped_total =
    List.fold_left
      (fun acc p -> acc + p.pt_result.Serve.Loadgen.f_tripped)
      0 points
    + chaos_tripped
  in
  if !Bench_util.json_mode then
    print_endline
      (Json.to_string
         (Json.Obj
            [
              ("schema", Json.String "nimble-fleet/v1");
              ( "title",
                Json.String
                  "Multi-model fleet: graceful degradation past saturation" );
              ( "models",
                Json.List
                  (List.map
                     (fun (s : Serve.Fleet.spec) ->
                       Json.Obj
                         [
                           ("name", Json.String s.Serve.Fleet.name);
                           ("weight", Json.Int s.Serve.Fleet.weight);
                         ])
                     (specs ())) );
              ("saturation_rps", Json.Float saturation);
              ("points", Json.List (List.map point_json points));
              ("peak_goodput_rps", Json.Float peak);
              ("goodput_at_2x_rps", Json.Float g2x);
              ("shed_total", Json.Int shed_total);
              ("tripped_total", Json.Int tripped_total);
              ("trips", Json.Int bc.Serve.Breaker.c_trips);
              ("breaker_lanes", Json.Int lanes);
              ("breaker_open_lanes", Json.Int open_lanes);
              ("chaos_spec", Json.String chaos_spec);
              ("chaos_failed", Json.Int chaos_failed);
              ("cold_start_ms", Json.Float cold_start_ms);
              ("warm_restart_ms", Json.Float warm_restart_ms);
              ("warm_restart_relink_only", Json.Bool relink_only);
              ("snapshot_models", Json.Int snapshot_models);
              ("arena_hints", Json.Int (List.length arena_hints));
              ("bitwise_ok", Json.Bool bitwise_ok);
            ]))
  else begin
    Fmt.pr
      "Fleet (hot w=3 + cold w=1, %d workers, deadline %.0f us; saturation \
       %.0f rps):@."
      fleet_config.Serve.Fleet.total_workers deadline_us saturation;
    List.iter
      (fun p ->
        let r = p.pt_result in
        Fmt.pr
          "  %-5s offered %.0f rps -> goodput %7.0f rps  (ok %d, shed %d, \
           tripped %d, rejected %d, timed out %d)@."
          p.pt_label p.pt_rate (goodput r) r.Serve.Loadgen.f_ok
          r.Serve.Loadgen.f_shed r.Serve.Loadgen.f_tripped
          r.Serve.Loadgen.f_rejected r.Serve.Loadgen.f_timed_out)
      points;
    Fmt.pr "  no-collapse: goodput@2x %.0f rps vs peak %.0f rps -> %b@." g2x
      peak
      (g2x >= 0.5 *. peak);
    Fmt.pr
      "  breaker chaos (%s): %d failed, %d tripped; %d trips, %d shed over \
       %d lanes (%d open)@."
      chaos_spec chaos_failed chaos_tripped bc.Serve.Breaker.c_trips
      bc.Serve.Breaker.c_shed lanes open_lanes;
    Fmt.pr
      "  snapshot: %d models; cold start %.1f ms vs warm restart %.1f ms \
       (relink only: %b, %d arena hints); bitwise %b@."
      snapshot_models cold_start_ms warm_restart_ms relink_only
      (List.length arena_hints) bitwise_ok
  end
