(* Fleet-tier chaos suite: breaker state machine under seeded faults,
   SLO admission shedding and its stats split, weighted-fair worker
   shares, snapshot round trips (executable bytes, tunes, arena hints),
   and the headline robustness story — a killed shard warm-restarts from
   the on-disk snapshot by relinking only (no recompile) and keeps
   serving bitwise-identical answers. All fault specs carry fixed seeds;
   breaker transitions are wall-clock-free, so every sequence here
   replays exactly at any NIMBLE_NUM_DOMAINS width. *)

open Nimble_tensor
open Nimble_ir
open Nimble_serve
module Fault = Nimble_fault.Fault
module Interp = Nimble_vm.Interp
module Obj = Nimble_vm.Obj
module Serialize = Nimble_vm.Serialize

let tensor_bitwise = Alcotest.testable Tensor.pp Tensor.equal

let pp_error ppf = function
  | Engine.Rejected -> Fmt.string ppf "rejected"
  | Engine.Timed_out -> Fmt.string ppf "timed_out"
  | Engine.Shed -> Fmt.string ppf "shed"
  | Engine.Tripped -> Fmt.string ppf "tripped"
  | Engine.Failed f -> Interp.pp_failure ppf f
let rng = Rng.create ~seed:97

(* the smallest dense|>relu model with a dynamic leading dimension *)
let feature_dim = 6
let out_dim = 4

let make_module w () =
  let x = Expr.fresh_var ~ty:(Ty.tensor [ Dim.Any; Dim.static feature_dim ]) "x" in
  let body = Expr.op_call "relu" [ Expr.op_call "dense" [ Expr.Var x; Expr.Const w ] ] in
  Irmod.of_main (Expr.fn_def [ x ] body)

let w_a = Tensor.randn rng [| out_dim; feature_dim |]
let w_b = Tensor.randn rng [| out_dim; feature_dim |]

let specs () : Fleet.spec list =
  [
    { Fleet.name = "a"; build = make_module w_a; weight = 3 };
    { Fleet.name = "b"; build = make_module w_b; weight = 1 };
  ]

let fleet_config ~total_workers =
  {
    Fleet.total_workers;
    engine =
      {
        Engine.default_config with
        Engine.workers = 1;
        queue_capacity = 16;
        max_batch = 4;
      };
    admission = Some Admission.default_config;
    breaker = Some Breaker.default_config;
  }

let input rows = Obj.tensor (Tensor.randn (Rng.create ~seed:(100 + rows)) [| rows; feature_dim |])

let fresh_dir =
  let n = ref 0 in
  fun () ->
    incr n;
    let dir =
      Filename.concat
        (Filename.get_temp_dir_name ())
        (Fmt.str "nimble_test_fleet_%d_%d" (Unix.getpid ()) !n)
    in
    dir

let rec rm_rf dir =
  if Sys.file_exists dir then begin
    Array.iter
      (fun f ->
        let p = Filename.concat dir f in
        if Sys.is_directory p then rm_rf p else Sys.remove p)
      (Sys.readdir dir);
    Sys.rmdir dir
  end

(* resolve a model's snapshot file through the manifest (files live in
   per-generation subdirectories) *)
let manifest_file dir name =
  let manifest =
    let ic = open_in_bin (Filename.concat dir "MANIFEST.json") in
    Fun.protect ~finally:(fun () -> close_in ic)
      (fun () -> really_input_string ic (in_channel_length ic))
    |> Nimble_vm.Json.of_string
  in
  let models =
    Nimble_vm.Json.to_list_exn (Nimble_vm.Json.member_exn "models" manifest)
  in
  let m =
    List.find
      (fun m ->
        Nimble_vm.Json.to_string_exn (Nimble_vm.Json.member_exn "name" m) = name)
      models
  in
  Filename.concat dir
    (Nimble_vm.Json.to_string_exn (Nimble_vm.Json.member_exn "file" m))

(* ----------------------------- breaker ------------------------------ *)

let check_state msg expected b =
  Alcotest.(check string) msg (Breaker.state_name expected)
    (Breaker.state_name (Breaker.state b))

(* the full Closed -> Open -> HalfOpen -> Closed cycle, then a failed
   probe re-opening: every transition is a pure function of call order *)
let test_breaker_transitions () =
  let config =
    { Breaker.window = 4; failure_threshold = 0.5; cooldown = 2; probes = 2 }
  in
  let b = Breaker.create ~config () in
  check_state "starts closed" Breaker.Closed b;
  (* fill the window at exactly the threshold: 2 failures / 4 *)
  List.iter
    (fun ok ->
      Alcotest.(check bool) "closed admits" true (Breaker.admit b = Breaker.Allow);
      Breaker.record b ~ok)
    [ true; true; false; false ];
  check_state "trips at threshold" Breaker.Open b;
  (* cooldown: exactly [cooldown] admissions bounce off *)
  Alcotest.(check bool) "open sheds" true (Breaker.admit b = Breaker.Shed);
  Alcotest.(check bool) "open sheds again" true (Breaker.admit b = Breaker.Shed);
  (* cooldown spent: a bounded probe trickle, then over-budget shed *)
  Alcotest.(check bool) "first probe" true (Breaker.admit b = Breaker.Probe);
  check_state "half-open while probing" Breaker.Half_open b;
  Alcotest.(check bool) "second probe" true (Breaker.admit b = Breaker.Probe);
  Alcotest.(check bool) "over probe budget sheds" true (Breaker.admit b = Breaker.Shed);
  Breaker.record ~probe:true b ~ok:true;
  check_state "one success is not enough" Breaker.Half_open b;
  Breaker.record ~probe:true b ~ok:true;
  check_state "all probes succeeded -> closed" Breaker.Closed b;
  let c = Breaker.counters b in
  Alcotest.(check int) "one trip" 1 c.Breaker.c_trips;
  Alcotest.(check int) "three shed" 3 c.Breaker.c_shed;
  Alcotest.(check int) "no reopens" 0 c.Breaker.c_reopens;
  Alcotest.(check int) "one close" 1 c.Breaker.c_closes;
  (* trip again, then fail the probe: immediate re-open *)
  List.iter
    (fun ok ->
      ignore (Breaker.admit b);
      Breaker.record b ~ok)
    [ false; false; false; false ];
  check_state "re-trips" Breaker.Open b;
  ignore (Breaker.admit b);
  ignore (Breaker.admit b);
  Alcotest.(check bool) "probe after cooldown" true (Breaker.admit b = Breaker.Probe);
  Breaker.record ~probe:true b ~ok:false;
  check_state "failed probe re-opens" Breaker.Open b;
  let c = Breaker.counters b in
  Alcotest.(check int) "reopen counted as trip too" 3 c.Breaker.c_trips;
  Alcotest.(check int) "one reopen" 1 c.Breaker.c_reopens

(* an injected breaker_probe fault refuses the trial dispatch itself:
   the lane re-opens without the caller ever reaching the engine *)
let test_breaker_probe_fault () =
  let config =
    { Breaker.window = 2; failure_threshold = 1.0; cooldown = 1; probes = 1 }
  in
  let b = Breaker.create ~config () in
  List.iter
    (fun () ->
      ignore (Breaker.admit b);
      Breaker.record b ~ok:false)
    [ (); () ];
  check_state "tripped" Breaker.Open b;
  Alcotest.(check bool) "cooldown shed" true (Breaker.admit b = Breaker.Shed);
  Fun.protect ~finally:Fault.disable (fun () ->
      Fault.configure "seed=3;breaker_probe=1.0:persistent";
      Alcotest.(check bool) "faulted probe surfaces as shed" true
        (Breaker.admit b = Breaker.Shed));
  check_state "faulted probe re-opened" Breaker.Open b;
  let c = Breaker.counters b in
  Alcotest.(check int) "reopen recorded" 1 c.Breaker.c_reopens;
  (* fault cleared: the same lane recovers through a clean probe *)
  Alcotest.(check bool) "re-armed cooldown sheds" true (Breaker.admit b = Breaker.Shed);
  Alcotest.(check bool) "clean probe allowed" true (Breaker.admit b = Breaker.Probe);
  Breaker.record ~probe:true b ~ok:true;
  check_state "recovers" Breaker.Closed b

(* ------------------------- weighted shares -------------------------- *)

let test_weighted_shares () =
  let fleet = Fleet.create ~config:(fleet_config ~total_workers:4) (specs ()) in
  Fun.protect ~finally:(fun () -> Fleet.shutdown fleet) (fun () ->
      Alcotest.(check (list string)) "models in order" [ "a"; "b" ] (Fleet.models fleet);
      Alcotest.(check (pair int int)) "3:1 split of 4" (3, 3) (Fleet.share fleet ~model:"a");
      Alcotest.(check (pair int int)) "minority share" (1, 1) (Fleet.share fleet ~model:"b");
      (* both models actually serve, proportions notwithstanding, and
         answers stay bitwise-equal to a sequential reference *)
      List.iter
        (fun (model, w) ->
          let x = input 5 in
          match Fleet.run fleet ~model ~shape:[| 5 |] x with
          | Ok (Obj.Tensor served) ->
              let vm =
                Interp.create
                  (Cache.load (Fleet.cache fleet) ~name:model ~build:(make_module w))
              in
              (match Interp.invoke vm [ x ] with
              | Obj.Tensor reference ->
                  Alcotest.check tensor_bitwise
                    (Fmt.str "%s bitwise vs sequential" model)
                    reference.Obj.data served.Obj.data
              | o -> Alcotest.failf "%s reference returned %a" model Obj.pp o)
          | Ok o -> Alcotest.failf "%s served %a" model Obj.pp o
          | Error e -> Alcotest.failf "%s failed: %a" model pp_error e)
        [ ("a", w_a); ("b", w_b) ]);
  (* a worker budget smaller than the model count still gives everyone
     at least one worker *)
  let fleet = Fleet.create ~config:(fleet_config ~total_workers:2) (specs ()) in
  Fun.protect ~finally:(fun () -> Fleet.shutdown fleet) (fun () ->
      let _, wa = Fleet.share fleet ~model:"a" in
      let _, wb = Fleet.share fleet ~model:"b" in
      Alcotest.(check int) "budget respected" 2 (wa + wb);
      Alcotest.(check bool) "everyone serves" true (wa >= 1 && wb >= 1))

(* --------------------------- admission ------------------------------ *)

(* an impossible deadline is shed at the door once the EWMA has any
   observation, and the refusal lands in the s_shed_admission stat (not
   rejected, not timed out) *)
let test_admission_shed_accounting () =
  let fleet = Fleet.create ~config:(fleet_config ~total_workers:2) (specs ()) in
  Fun.protect ~finally:(fun () -> Fleet.shutdown fleet) (fun () ->
      for _ = 1 to 8 do
        match Fleet.run fleet ~model:"a" ~shape:[| 5 |] (input 5) with
        | Ok _ -> ()
        | Error e -> Alcotest.failf "warmup failed: %a" pp_error e
      done;
      (match Fleet.run fleet ~timeout_us:0.01 ~model:"a" ~shape:[| 5 |] (input 5) with
      | Error Engine.Shed -> ()
      | Ok _ -> Alcotest.fail "impossible deadline was admitted"
      | Error e -> Alcotest.failf "expected Shed, got %a" pp_error e);
      let stats = List.assoc "a" (Fleet.model_stats fleet) in
      Alcotest.(check bool) "counted as admission shed" true
        (stats.Stats.s_shed_admission >= 1);
      Alcotest.(check int) "not a queue rejection" 0 stats.Stats.s_rejected;
      Alcotest.(check int) "not an error" 0 stats.Stats.s_errors)

(* ------------------------ snapshot round trip ----------------------- *)

let test_snapshot_roundtrip () =
  let dir = fresh_dir () in
  let fleet = Fleet.create ~config:(fleet_config ~total_workers:2) (specs ()) in
  Fun.protect
    ~finally:(fun () ->
      Fleet.shutdown fleet;
      rm_rf dir)
    (fun () ->
      (* serve each model once so arena hints have an observed bucket *)
      let before =
        List.map
          (fun model ->
            match Fleet.run fleet ~model ~shape:[| 5 |] (input 5) with
            | Ok (Obj.Tensor t) -> (model, t.Obj.data)
            | _ -> Alcotest.failf "%s did not serve" model)
          [ "a"; "b" ]
      in
      Alcotest.(check int) "both models checkpointed" 2 (Fleet.snapshot fleet ~dir);
      let misses = Cache.misses (Fleet.cache fleet) in
      let restored = Fleet.warm_restart fleet ~dir ~model:"a" in
      (* relink-only: the restore must not recompile anything *)
      Alcotest.(check int) "no recompile on restore" misses
        (Cache.misses (Fleet.cache fleet));
      (* the snapshot's executable bytes round-trip bitwise: re-serializing
         the restored exe reproduces the on-disk artifact exactly
         (bytecode, tune table and all) *)
      let ic = open_in_bin (manifest_file dir "a") in
      let on_disk =
        Fun.protect ~finally:(fun () -> close_in ic)
          (fun () -> really_input_string ic (in_channel_length ic))
      in
      Alcotest.(check int) "manifest byte count" (String.length on_disk)
        restored.Cache.r_bytes;
      Alcotest.(check bool) "exe bytes round-trip bitwise" true
        (String.equal on_disk (Serialize.to_bytes restored.Cache.r_exe));
      (* arena hints survived the trip and are plausible bucket dims *)
      Alcotest.(check bool) "arena hints restored" true
        (List.length restored.Cache.r_arena_hints >= 1);
      List.iter
        (fun dims ->
          Alcotest.(check bool) "hint has dims" true (Array.length dims >= 1))
        restored.Cache.r_arena_hints;
      (* and the restarted pool still answers bitwise-identically *)
      List.iter
        (fun (model, reference) ->
          match Fleet.run fleet ~model ~shape:[| 5 |] (input 5) with
          | Ok (Obj.Tensor t) ->
              Alcotest.check tensor_bitwise
                (Fmt.str "%s bitwise across restart" model)
                reference t.Obj.data
          | _ -> Alcotest.failf "%s did not serve after restart" model)
        before)

(* ----------------------- snapshot generations ----------------------- *)

(* repeated snapshots rotate: each lands in a fresh gen-N subdirectory,
   the manifest always points at the newest, and only the last two
   generations survive garbage collection *)
let test_snapshot_rotation () =
  let dir = fresh_dir () in
  let fleet = Fleet.create ~config:(fleet_config ~total_workers:2) (specs ()) in
  Fun.protect
    ~finally:(fun () ->
      Fleet.shutdown fleet;
      rm_rf dir)
    (fun () ->
      let reference =
        match Fleet.run fleet ~model:"a" ~shape:[| 4 |] (input 4) with
        | Ok (Obj.Tensor t) -> t.Obj.data
        | _ -> Alcotest.fail "model a did not serve"
      in
      ignore (Fleet.snapshot fleet ~dir);
      Alcotest.(check (list int)) "first snapshot is gen-1" [ 1 ]
        (Cache.generations ~dir);
      ignore (Fleet.snapshot fleet ~dir);
      ignore (Fleet.snapshot fleet ~dir);
      Alcotest.(check (list int)) "only the newest two survive GC" [ 2; 3 ]
        (List.sort compare (Cache.generations ~dir));
      Alcotest.(check bool) "manifest points into gen-3" true
        (String.length (manifest_file dir "a") > 0
        && Filename.basename (Filename.dirname (manifest_file dir "a")) = "gen-3");
      (* keep=1 drops the rollback generation too *)
      ignore (Fleet.snapshot ~keep:1 fleet ~dir);
      Alcotest.(check (list int)) "keep=1 retains only gen-4" [ 4 ]
        (Cache.generations ~dir);
      (* and the rotated snapshot still restores and serves bitwise *)
      let restored = Fleet.warm_restart fleet ~dir ~model:"a" in
      Alcotest.(check string) "right model restored" "a" restored.Cache.r_name;
      match Fleet.run fleet ~model:"a" ~shape:[| 4 |] (input 4) with
      | Ok (Obj.Tensor t) ->
          Alcotest.check tensor_bitwise "bitwise across rotated restart"
            reference t.Obj.data
      | Ok o -> Alcotest.failf "served %a" Obj.pp o
      | Error e -> Alcotest.failf "restarted pool failed: %a" pp_error e)

(* --------------------------- chaos restart -------------------------- *)

(* the headline: kill a model's shard pool outright, then warm-restart
   it from the snapshot; serving resumes with bitwise-equal outputs and
   transient snapshot_io faults during the restore are retried *)
let test_chaos_warm_restart () =
  let dir = fresh_dir () in
  let fleet = Fleet.create ~config:(fleet_config ~total_workers:2) (specs ()) in
  Fun.protect
    ~finally:(fun () ->
      Fleet.shutdown fleet;
      rm_rf dir)
    (fun () ->
      let reference =
        match Fleet.run fleet ~model:"a" ~shape:[| 3 |] (input 3) with
        | Ok (Obj.Tensor t) -> t.Obj.data
        | _ -> Alcotest.fail "did not serve before the kill"
      in
      ignore (Fleet.snapshot fleet ~dir);
      (* simulate the shard crash: its engine is gone *)
      Engine.shutdown (Fleet.engine fleet ~model:"a");
      let restored =
        Fun.protect ~finally:Fault.disable (fun () ->
            Fault.configure "seed=7;snapshot_io=0.3";
            Fleet.warm_restart fleet ~dir ~model:"a")
      in
      Alcotest.(check string) "right model restored" "a" restored.Cache.r_name;
      (match Fleet.run fleet ~model:"a" ~shape:[| 3 |] (input 3) with
      | Ok (Obj.Tensor t) ->
          Alcotest.check tensor_bitwise "bitwise across crash + restart"
            reference t.Obj.data
      | Ok o -> Alcotest.failf "served %a" Obj.pp o
      | Error e -> Alcotest.failf "restarted pool failed: %a" pp_error e);
      (* the other model never stopped serving *)
      match Fleet.run fleet ~model:"b" ~shape:[| 3 |] (input 3) with
      | Ok _ -> ()
      | Error e -> Alcotest.failf "bystander model failed: %a" pp_error e)

(* ------------------------------ relink ------------------------------ *)

let run_exe exe x =
  match Interp.invoke (Interp.create exe) [ x ] with
  | Obj.Tensor t -> t.Obj.data
  | o -> Alcotest.failf "ran to %a" Obj.pp o

(* the dense dispatcher of a model's one dense kernel *)
let dispatcher exe =
  match Nimble_vm.Exe.dispatchers exe with
  | [ (_, d) ] -> d
  | ds -> Alcotest.failf "expected one dense dispatcher, got %d" (List.length ds)

(* kernel names are a function of the module, so a snapshot restores into
   a second cache that compiled the model afresh: relink only, the tune
   replayed into that cache's own dispatcher, outputs bitwise-equal *)
let test_restore_into_fresh_cache () =
  let dir = fresh_dir () in
  Fun.protect ~finally:(fun () -> rm_rf dir) (fun () ->
      let build = make_module w_a in
      let first = Cache.create () in
      let exe = Cache.load first ~name:"a" ~build in
      let x = input 5 in
      let reference = run_exe exe x in
      Nimble_codegen.Dispatch.install_tuned (dispatcher exe) ~extent:5 ~tile_m:4;
      Alcotest.(check int) "checkpointed" 1 (Cache.snapshot first ~dir);
      let second = Cache.create () in
      let fresh = Cache.load second ~name:"a" ~build in
      Alcotest.(check bool) "second cache has its own dispatcher" false
        (dispatcher fresh == dispatcher exe);
      let misses = Cache.misses second in
      match Cache.restore second ~dir with
      | [ r ] ->
          Alcotest.(check int) "no recompile on restore" misses (Cache.misses second);
          Alcotest.(check int) "tune replayed" 1 r.Cache.r_tunes_applied;
          Alcotest.(check (option int)) "into the second cache's dispatcher" (Some 4)
            (Nimble_codegen.Dispatch.pretuned (dispatcher fresh) ~extent:5);
          Alcotest.check tensor_bitwise "bitwise across caches" reference
            (run_exe r.Cache.r_exe x)
      | rs -> Alcotest.failf "restored %d models" (List.length rs))

let transpose_module axes () =
  let x = Expr.fresh_var ~ty:(Ty.tensor [ Dim.Any; Dim.static 2; Dim.static 3 ]) "x" in
  Irmod.of_main
    (Expr.fn_def [ x ]
       (Expr.op_call ~attrs:[ ("axes", Attrs.Ints axes) ] "transpose" [ Expr.Var x ]))

(* two models whose kernels share a name but not their attributes: each
   relinks from its own entry, never from the other's same-named kernel *)
let test_same_kernel_names_across_models () =
  let dir = fresh_dir () in
  Fun.protect ~finally:(fun () -> rm_rf dir) (fun () ->
      let models = [ ("t021", [ 0; 2; 1 ]); ("t210", [ 2; 1; 0 ]) ] in
      let cache = Cache.create () in
      let names =
        List.map
          (fun (name, axes) ->
            (Cache.load cache ~name ~build:(transpose_module axes)).Nimble_vm.Exe.packed_names)
          models
      in
      Alcotest.(check bool) "the models declare the same packed names" true
        (List.nth names 0 = List.nth names 1);
      Alcotest.(check int) "both checkpointed" 2 (Cache.snapshot cache ~dir);
      let restored = Cache.restore cache ~dir in
      let x = Tensor.randn rng [| 4; 2; 3 |] in
      List.iter
        (fun (name, axes) ->
          let r = List.find (fun r -> r.Cache.r_name = name) restored in
          Alcotest.check tensor_bitwise (name ^ " bitwise after restore")
            (Ops_shape.transpose ~axes:(Array.of_list axes) x)
            (run_exe r.Cache.r_exe (Obj.tensor x)))
        models)

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  go 0

(* restore fails with one Failure naming the model and the kernel when
   the model was never loaded, or when the snapshot and the loaded model
   disagree on a packed name, on either side *)
let test_restore_failures () =
  (* [relu x], or [relu (softmax x)]: softmax never fuses, so the second
     module declares the first one's kernels plus its own *)
  let relu_module ~softmax () =
    let x = Expr.fresh_var ~ty:(Ty.tensor [ Dim.Any; Dim.static feature_dim ]) "x" in
    let y = if softmax then Expr.op_call "softmax" [ Expr.Var x ] else Expr.Var x in
    Irmod.of_main (Expr.fn_def [ x ] (Expr.op_call "relu" [ y ]))
  in
  let load ~softmax =
    let cache = Cache.create () in
    let exe = Cache.load cache ~name:"m" ~build:(relu_module ~softmax) in
    (cache, Array.to_list (Array.map fst exe.Nimble_vm.Exe.packed_names))
  in
  let small, small_names = load ~softmax:false in
  let large, large_names = load ~softmax:true in
  let only_in a b = List.filter (fun n -> not (List.mem n b)) a in
  let extra = only_in large_names small_names in
  Alcotest.(check bool) "the larger model declares the smaller one's kernels and more"
    true
    (only_in small_names large_names = [] && extra <> []);
  let small_dir = fresh_dir () and large_dir = fresh_dir () in
  Fun.protect
    ~finally:(fun () ->
      rm_rf small_dir;
      rm_rf large_dir)
    (fun () ->
      ignore (Cache.snapshot small ~dir:small_dir);
      ignore (Cache.snapshot large ~dir:large_dir);
      let expect_failure what ~kernels cache ~dir =
        match Cache.restore cache ~dir with
        | _ -> Alcotest.failf "%s: restore succeeded" what
        | exception Failure msg ->
            Alcotest.(check bool) (what ^ ": names the model") true
              (contains msg "snapshot restore of m:");
            Alcotest.(check bool) (what ^ ": names the kernel") true
              (List.exists (contains msg) kernels)
      in
      expect_failure "never loaded" ~kernels:small_names (Cache.create ()) ~dir:small_dir;
      expect_failure "kernel only in the snapshot" ~kernels:extra
        (fst (load ~softmax:false)) ~dir:large_dir;
      expect_failure "kernel only in the loaded model" ~kernels:extra
        (fst (load ~softmax:true)) ~dir:small_dir)

(* ----------------------------- loadgen ------------------------------ *)

let raises_invalid f =
  match f () with
  | _ -> false
  | exception Invalid_argument _ -> true

let test_loadgen_validation () =
  Alcotest.(check bool) "empty mix refused" true
    (raises_invalid (fun () -> Loadgen.validate_mix ~what:"mix" []));
  Alcotest.(check bool) "zero-sum mix refused" true
    (raises_invalid (fun () -> Loadgen.validate_mix ~what:"mix" [ 0.0; 0.0 ]));
  Alcotest.(check bool) "negative weight refused" true
    (raises_invalid (fun () -> Loadgen.validate_mix ~what:"mix" [ 1.0; -1.0 ]));
  Loadgen.validate_mix ~what:"mix" [ 2.0; 1.0 ];
  let fleet = Fleet.create ~config:(fleet_config ~total_workers:2) (specs ()) in
  Fun.protect ~finally:(fun () -> Fleet.shutdown fleet) (fun () ->
      let tenant model share =
        {
          Loadgen.tn_model = model;
          tn_share = share;
          tn_mix = [ ([| 5 |], 1.0) ];
          tn_timeout_us = None;
        }
      in
      let make_input ~model:_ ~shape = input shape.(0) in
      Alcotest.(check bool) "unknown tenant model refused" true
        (raises_invalid (fun () ->
             Loadgen.run_fleet fleet ~tenants:[ tenant "nope" 1.0 ] ~make_input));
      Alcotest.(check bool) "zero-share tenants refused" true
        (raises_invalid (fun () ->
             Loadgen.run_fleet fleet
               ~tenants:[ tenant "a" 0.0; tenant "b" 0.0 ]
               ~make_input));
      Alcotest.(check bool) "no tenants refused" true
        (raises_invalid (fun () -> Loadgen.run_fleet fleet ~tenants:[] ~make_input));
      (* a tiny valid run drains cleanly and tallies everything offered *)
      let config =
        {
          Loadgen.default_config with
          Loadgen.rate_rps = 400.0;
          duration_s = 0.1;
          clients = 2;
          seed = 42;
        }
      in
      let r =
        Loadgen.run_fleet ~config fleet
          ~tenants:[ tenant "a" 3.0; tenant "b" 1.0 ]
          ~make_input
      in
      Alcotest.(check bool) "offered some load" true (r.Loadgen.f_offered > 0);
      Alcotest.(check int) "every outcome accounted for" r.Loadgen.f_offered
        (r.Loadgen.f_ok + r.Loadgen.f_failed + r.Loadgen.f_timed_out
        + r.Loadgen.f_rejected + r.Loadgen.f_shed + r.Loadgen.f_tripped))

(* ------------------------- fleet breakers --------------------------- *)

(* a persistently failing lane trips its breaker through the fleet path:
   clients see Tripped (shed without burning a worker), the bystander
   model keeps serving, and counters expose the trip *)
let test_fleet_breaker_trips () =
  let fleet = Fleet.create ~config:(fleet_config ~total_workers:2) (specs ()) in
  Fun.protect
    ~finally:(fun () ->
      Fault.disable ();
      Fleet.shutdown fleet)
    (fun () ->
      Fault.configure "seed=11;kernel_launch=1.0:persistent";
      let failed = ref 0 and tripped = ref 0 in
      for _ = 1 to 40 do
        match Fleet.run fleet ~model:"a" ~shape:[| 5 |] (input 5) with
        | Error (Engine.Failed _) -> incr failed
        | Error Engine.Tripped -> incr tripped
        | _ -> ()
      done;
      Alcotest.(check bool) "lane failed enough to trip" true (!failed >= 16);
      Alcotest.(check bool) "breaker shed the rest" true (!tripped >= 1);
      let c, lanes, open_lanes = Fleet.breaker_totals fleet ~model:"a" in
      Alcotest.(check bool) "trips counted" true (c.Breaker.c_trips >= 1);
      Alcotest.(check int) "one lane" 1 lanes;
      Alcotest.(check int) "lane is open" 1 open_lanes;
      Fault.disable ();
      (* the bystander model was never poisoned *)
      match Fleet.run fleet ~model:"b" ~shape:[| 5 |] (input 5) with
      | Ok _ -> ()
      | Error e -> Alcotest.failf "bystander failed: %a" pp_error e)

let () =
  Alcotest.run "fleet"
    [
      ( "breaker",
        [
          Alcotest.test_case "closed->open->halfopen->closed" `Quick
            test_breaker_transitions;
          Alcotest.test_case "breaker_probe fault re-opens" `Quick
            test_breaker_probe_fault;
        ] );
      ( "fleet",
        [
          Alcotest.test_case "weighted worker shares" `Quick test_weighted_shares;
          Alcotest.test_case "admission shed accounting" `Quick
            test_admission_shed_accounting;
          Alcotest.test_case "breaker trips through fleet path" `Quick
            test_fleet_breaker_trips;
        ] );
      ( "snapshot",
        [
          Alcotest.test_case "round trip is bitwise" `Quick test_snapshot_roundtrip;
          Alcotest.test_case "generations rotate, GC keeps two" `Quick
            test_snapshot_rotation;
          Alcotest.test_case "killed shard warm-restarts" `Quick
            test_chaos_warm_restart;
        ] );
      ( "relink",
        [
          Alcotest.test_case "restore into a cache that compiled afresh" `Quick
            test_restore_into_fresh_cache;
          Alcotest.test_case "same kernel names across models" `Quick
            test_same_kernel_names_across_models;
          Alcotest.test_case "restore failures name model and kernel" `Quick
            test_restore_failures;
        ] );
      ("loadgen", [ Alcotest.test_case "mix validation + drain" `Quick test_loadgen_validation ]);
    ]
