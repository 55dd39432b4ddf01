(* Online-specialization suite: domain-safety of the dispatch counters
   and last-selection slot, live tuned-kernel installs (bitwise-equal
   outputs, eviction at the cap), the tuner's measurement protocol, the
   synchronous close-the-loop path, NMBLEXE4 tune-table persistence
   (roundtrip, verifier rejections, warm-restart relink), dead-register
   compaction, and chaos — kernel_launch faults while the tuner installs
   into a serving engine. *)

open Nimble_tensor
open Nimble_ir
module Serve = Nimble_serve
module Fault = Nimble_fault.Fault
module Nimble = Nimble_compiler.Nimble
module Emitter = Nimble_compiler.Emitter
module Interp = Nimble_vm.Interp
module Obj = Nimble_vm.Obj
module Exe = Nimble_vm.Exe
module Serialize = Nimble_vm.Serialize
module Verifier = Nimble_analysis.Verifier
module Compact = Nimble_analysis.Compact
module Diag = Nimble_analysis.Diag
module Dispatch = Nimble_codegen.Dispatch
module Tuner = Nimble_codegen.Tuner
module Autotune = Nimble_codegen.Autotune

let tensor_bitwise = Alcotest.testable Tensor.pp Tensor.equal
let rng = Rng.create ~seed:211

(* the same minimal dynamic model as test_serve: dense + relu over a
   dynamic leading dimension *)
let feature_dim = 6
let out_dim = 4

let make_module w =
  let x = Expr.fresh_var ~ty:(Ty.tensor [ Dim.Any; Dim.static feature_dim ]) "x" in
  let body = Expr.op_call "relu" [ Expr.op_call "dense" [ Expr.Var x; Expr.Const w ] ] in
  Irmod.of_main (Expr.fn_def [ x ] body)

let shared_w = Tensor.randn rng [| out_dim; feature_dim |]

(* sparse dispatch (2 of 8 residues) so uncovered extents exist to tune *)
let sparse_opts = { Nimble.default_options with Nimble.dense_dispatch = Some 2 }

(* the dense dispatcher the executable's packed kernel routes through *)
let dispatcher exe =
  match Exe.dispatchers exe with
  | (_, d) :: _ -> d
  | [] -> Alcotest.fail "executable has no dense dispatcher"

let kernel_name exe =
  match
    Array.find_opt (fun (_, kind) -> kind = `Kernel) exe.Exe.packed_names
  with
  | Some (n, _) -> n
  | None -> Alcotest.fail "executable has no packed kernel"

let shape_func_name exe =
  match
    Array.find_opt (fun (_, kind) -> kind = `Shape_func) exe.Exe.packed_names
  with
  | Some (n, _) -> n
  | None -> Alcotest.fail "executable has no shape function"

(* ----------------------- histogram & counters ----------------------- *)

let test_extent_histogram () =
  let d = Dispatch.create ~name:"hist_test" ~num_kernels:2 () in
  let w = Tensor.randn rng [| out_dim; feature_dim |] in
  let call m = ignore (Dispatch.run d (Tensor.randn rng [| m; feature_dim |]) w) in
  List.iter call [ 5; 5; 5; 8; 8; 13 ];
  Alcotest.(check (list (pair int int)))
    "exact per-extent counts"
    [ (5, 3); (8, 2); (13, 1) ]
    (Dispatch.extent_histogram d);
  Alcotest.(check (option (pair int int)))
    "weight dims observed" (Some (out_dim, feature_dim)) (Dispatch.observed_dims d);
  let hits, misses = Dispatch.stats d in
  Alcotest.(check int) "every call routed" 6 (hits + misses)

let test_counters_concurrent () =
  let d = Dispatch.create ~name:"conc_test" ~num_kernels:2 () in
  let per_domain = 400 and n_domains = 4 in
  let worker seed () =
    let rng = Rng.create ~seed in
    let w = Tensor.randn rng [| out_dim; feature_dim |] in
    for i = 1 to per_domain do
      let m = 1 + ((i + seed) mod 7) in
      ignore (Dispatch.run d (Tensor.randn rng [| m; feature_dim |]) w)
    done
  in
  let domains = List.init n_domains (fun i -> Domain.spawn (worker (100 + i))) in
  List.iter Domain.join domains;
  let hits, misses = Dispatch.stats d in
  let total = hits + misses + Dispatch.tuned_calls d in
  Alcotest.(check int) "atomic counters lose nothing" (n_domains * per_domain) total;
  let hist_total =
    List.fold_left (fun acc (_, c) -> acc + c) 0 (Dispatch.extent_histogram d)
  in
  Alcotest.(check int) "histogram agrees" (n_domains * per_domain) hist_total

let test_reset_snapshots_concurrent () =
  let d = Dispatch.create ~name:"reset_test" ~num_kernels:2 () in
  Dispatch.install_tuned d ~extent:42 ~tile_m:4;
  let stop = Atomic.make false in
  let mutator seed () =
    let rng = Rng.create ~seed in
    let w = Tensor.randn rng [| out_dim; feature_dim |] in
    while not (Atomic.get stop) do
      ignore (Dispatch.run d (Tensor.randn rng [| 1 + (seed mod 9); feature_dim |]) w)
    done
  in
  let domains = List.init 3 (fun i -> Domain.spawn (mutator (7 + i))) in
  (* snapshots and resets race the mutators: none may crash or produce a
     torn snapshot (negative or inconsistent counters) *)
  for _ = 1 to 50 do
    List.iter
      (fun (s : Dispatch.snapshot) ->
        Alcotest.(check bool) "snapshot counters non-negative" true
          (s.Dispatch.snap_hits >= 0 && s.Dispatch.snap_misses >= 0
          && s.Dispatch.snap_tuned_calls >= 0))
      (Dispatch.snapshots ());
    Dispatch.reset_counters ()
  done;
  Atomic.set stop true;
  List.iter Domain.join domains;
  Dispatch.reset_counters ();
  Alcotest.(check (pair int int)) "reset zeroes stats" (0, 0) (Dispatch.stats d);
  Alcotest.(check int) "reset zeroes tuned calls" 0 (Dispatch.tuned_calls d);
  Alcotest.(check (list (pair int int)))
    "reset zeroes histogram" [] (Dispatch.extent_histogram d);
  Alcotest.(check (option int))
    "installed entries survive reset" (Some 4) (Dispatch.pretuned d ~extent:42)

let test_last_selection_domain_local () =
  let d = Dispatch.create ~name:"dls_test" ~num_kernels:8 () in
  let w = Tensor.randn rng [| out_dim; feature_dim |] in
  ignore (Dispatch.run d (Tensor.randn rng [| 3; feature_dim |]) w);
  let mine = Dispatch.last_selection () in
  Alcotest.(check bool) "this domain saw its hit" true
    (match mine with Some ("dls_test", Dispatch.Hit 3) -> true | _ -> false);
  (* another domain's selection must not leak into this domain's slot *)
  let theirs =
    Domain.join
      (Domain.spawn (fun () ->
           ignore (Dispatch.run d (Tensor.randn rng [| 5; feature_dim |]) w);
           Dispatch.last_selection ()))
  in
  Alcotest.(check bool) "other domain saw its own hit" true
    (match theirs with Some ("dls_test", Dispatch.Hit 5) -> true | _ -> false);
  Alcotest.(check bool) "this domain's slot unchanged" true
    (Dispatch.last_selection () = mine);
  Dispatch.clear_last_selection ();
  Alcotest.(check bool) "clear is local too" true (Dispatch.last_selection () = None)

(* --------------------------- live installs --------------------------- *)

let test_install_live_bitwise () =
  let d = Dispatch.create ~name:"install_test" ~num_kernels:0 () in
  let w = Tensor.randn rng [| out_dim; feature_dim |] in
  let extent = 21 in
  let x = Tensor.randn rng [| extent; feature_dim |] in
  let reference = Dispatch.run d x w in
  (* readers hammer the dispatcher while installs/replacements land *)
  let stop = Atomic.make false in
  let readers =
    List.init 3 (fun _ ->
        Domain.spawn (fun () ->
            let bad = ref 0 in
            while not (Atomic.get stop) do
              if not (Tensor.equal reference (Dispatch.run d x w)) then incr bad
            done;
            !bad))
  in
  List.iter
    (fun tile_m -> Dispatch.install_tuned d ~extent ~tile_m)
    [ 1; 2; 4; 8; 16; 4 ];
  ignore (Dispatch.run d x w);
  Atomic.set stop true;
  let bad = List.fold_left (fun acc dm -> acc + Domain.join dm) 0 readers in
  Alcotest.(check int) "bitwise-equal across every install" 0 bad;
  Alcotest.(check bool) "tuned entry now serves" true (Dispatch.tuned_calls d > 0);
  Alcotest.(check bool) "last install wins" true
    (match Dispatch.last_selection () with
    | Some ("install_test", Dispatch.Tuned 21) -> true
    | _ -> false);
  Alcotest.(check (option int)) "replacement kept one entry" (Some 4)
    (Dispatch.pretuned d ~extent)

let test_install_eviction () =
  let d = Dispatch.create ~name:"evict_test" ~num_kernels:0 () in
  Dispatch.install_tuned ~max_exact:2 d ~extent:5 ~tile_m:1;
  Dispatch.install_tuned ~max_exact:2 d ~extent:6 ~tile_m:2;
  Dispatch.install_tuned ~max_exact:2 d ~extent:7 ~tile_m:4;
  Alcotest.(check (list (pair int int)))
    "oldest evicted at the cap" [ (6, 2); (7, 4) ] (Dispatch.tuned_decisions d);
  Alcotest.(check int) "eviction counted" 1
    (Dispatch.snapshot_of d).Dispatch.snap_evictions;
  Alcotest.check_raises "non-positive extent rejected"
    (Invalid_argument "Dispatch.install_tuned: extent 0") (fun () ->
      Dispatch.install_tuned d ~extent:0 ~tile_m:1);
  Alcotest.check_raises "non-positive tile rejected"
    (Invalid_argument "Dispatch.install_tuned: tile_m 0") (fun () ->
      Dispatch.install_tuned d ~extent:3 ~tile_m:0)

(* ------------------------- tuner measurement ------------------------- *)

let test_tuner_protocol () =
  let r =
    Tuner.tune ~static_stand_in:12 ~eval_extents:[ 12; 5 ] ~repeats:2 ~warmup:1
      ~n:out_dim ~k:feature_dim ()
  in
  Alcotest.(check int) "repeats surfaced in result" 2 r.Tuner.repeats;
  Alcotest.(check int) "warmup surfaced in result" 1 r.Tuner.warmup;
  Alcotest.(check int) "tuned on the stand-in" 12 r.Tuner.tuned_on;
  Alcotest.(check bool) "winner comes from the search space" true
    (List.mem r.Tuner.best Tuner.default_space);
  Alcotest.(check bool) "cross-eval covered both extents" true
    (List.for_all
       (fun m -> List.exists (fun (e : Tuner.measurement) -> e.Tuner.shape_m = m)
            r.Tuner.cross_eval)
       [ 12; 5 ]);
  (* monotonic-clock medians: strictly positive wall time per point *)
  Alcotest.(check bool) "monotonic timings positive" true
    (List.for_all (fun (e : Tuner.measurement) -> e.Tuner.seconds > 0.0)
       r.Tuner.cross_eval);
  let s = Tuner.measure ~repeats:2 ~warmup:1 ~n:out_dim ~k:feature_dim
      { Tuner.tile_m = 4 } 12
  in
  Alcotest.(check bool) "measure is positive" true (s > 0.0)

(* ----------------------- close the loop (sync) ----------------------- *)

let test_sync_close_the_loop () =
  let d = Dispatch.create ~name:"sync_loop_test" ~num_kernels:0 () in
  let w = Tensor.randn rng [| out_dim; feature_dim |] in
  let hot = 19 in
  let x = Tensor.randn rng [| hot; feature_dim |] in
  let reference = Dispatch.run d x w in
  for _ = 2 to 24 do
    ignore (Dispatch.run d x w)
  done;
  let au =
    Autotune.create
      ~config:
        {
          Autotune.default_config with
          Autotune.hot_threshold = 16;
          scan_interval = 2;
          synchronous = true;
          repeats = 1;
          warmup = 0;
        }
      ()
  in
  (* observe counts batches; every scan_interval-th triggers a scan, and
     in synchronous mode the tune+install completes before observe returns *)
  Autotune.observe au [ d ];
  Autotune.observe au [ d ];
  let summary = Autotune.summary au in
  Alcotest.(check int) "two observations" 2 summary.Autotune.au_observations;
  Alcotest.(check int) "one scan at the interval" 1 summary.Autotune.au_scans;
  Alcotest.(check int) "hot extent queued once" 1 summary.Autotune.au_queued;
  Alcotest.(check int) "nothing pending after sync run" 0 summary.Autotune.au_pending;
  (match Autotune.installs au with
  | [ inst ] ->
      Alcotest.(check string) "tuned this dispatcher" "sync_loop_test"
        inst.Autotune.in_kernel;
      Alcotest.(check int) "tuned the hot extent" hot inst.Autotune.in_extent;
      Alcotest.(check bool) "tile from the space" true
        (List.mem { Tuner.tile_m = inst.Autotune.in_tile_m } Tuner.default_space);
      Alcotest.(check bool) "hit rate before was all-miss" true
        (inst.Autotune.in_hit_rate_before = 0.0);
      Alcotest.(check bool) "tuning time measured" true (inst.Autotune.in_seconds > 0.0)
  | l -> Alcotest.fail (Printf.sprintf "expected 1 install, got %d" (List.length l)));
  Alcotest.(check bool) "winner installed live" true
    (Dispatch.pretuned d ~extent:hot <> None);
  (* the specialized kernel now serves the hot extent, bitwise-equal *)
  Alcotest.check tensor_bitwise "re-tuned output bitwise" reference
    (Dispatch.run d x w);
  Alcotest.(check bool) "tuned entry fires" true (Dispatch.tuned_calls d > 0);
  (* a second scan skips the already-tuned extent: nothing new queued *)
  Autotune.scan au [ d ];
  Alcotest.(check int) "pretuned extent not requeued" 1
    (Autotune.summary au).Autotune.au_queued;
  Autotune.shutdown au;
  Alcotest.(check bool) "hit rate reflects tuned traffic" true
    (Autotune.hit_rate d > 0.0)

(* kernel names repeat across models, so pending work is keyed by
   dispatcher: two same-named dispatchers hot at one extent both queue *)
let test_pending_by_dispatcher () =
  let w = Tensor.randn rng [| out_dim; feature_dim |] in
  let hot = 11 in
  let x = Tensor.randn rng [| hot; feature_dim |] in
  let hot_dispatcher () =
    let d = Dispatch.create ~name:"fused_dense_0" ~num_kernels:0 () in
    for _ = 1 to 4 do
      ignore (Dispatch.run d x w)
    done;
    d
  in
  let ds = [ hot_dispatcher (); hot_dispatcher () ] in
  let au =
    Autotune.create
      ~config:
        { Autotune.default_config with Autotune.hot_threshold = 4; repeats = 1; warmup = 0 }
      ()
  in
  Autotune.scan au ds;
  Autotune.scan au ds;
  Alcotest.(check int) "one task per dispatcher" 2 (Autotune.summary au).Autotune.au_queued;
  Autotune.drain au;
  Autotune.shutdown au;
  List.iter
    (fun d ->
      Alcotest.(check bool) "each dispatcher tuned" true
        (Dispatch.pretuned d ~extent:hot <> None))
    ds

(* --------------------- persistence & verification --------------------- *)

let test_tune_table_roundtrip () =
  let exe = Nimble.compile ~options:sparse_opts (make_module shared_w) in
  let tunes =
    [| { Exe.tn_kernel = kernel_name exe; tn_extent = 21; tn_tile_m = 4 };
       { Exe.tn_kernel = kernel_name exe; tn_extent = 13; tn_tile_m = 8 } |]
  in
  Exe.set_tunes exe tunes;
  Alcotest.(check (list string)) "tune table verifies" []
    (List.map Diag.to_string (Verifier.verify exe));
  let exe2 = Verifier.of_bytes (Serialize.to_bytes exe) in
  Alcotest.(check int) "decisions survive the roundtrip" 2 (Array.length exe2.Exe.tunes);
  Array.iteri
    (fun i (tn : Exe.tune) ->
      Alcotest.(check string) "kernel preserved" tunes.(i).Exe.tn_kernel tn.Exe.tn_kernel;
      Alcotest.(check int) "extent preserved" tunes.(i).Exe.tn_extent tn.Exe.tn_extent;
      Alcotest.(check int) "tile preserved" tunes.(i).Exe.tn_tile_m tn.Exe.tn_tile_m)
    exe2.Exe.tunes

let test_verifier_rejects_bad_tunes () =
  let exe = Nimble.compile ~options:sparse_opts (make_module shared_w) in
  let kernel = kernel_name exe in
  let tune_diags tunes =
    Exe.set_tunes exe tunes;
    Verifier.verify exe |> List.filter (fun d -> d.Diag.d_check = "tune_table")
  in
  let expect_reject name tunes =
    Alcotest.(check bool) name true (tune_diags tunes <> [])
  in
  expect_reject "unknown kernel"
    [| { Exe.tn_kernel = "no_such_kernel"; tn_extent = 5; tn_tile_m = 2 } |];
  expect_reject "shape function is not a kernel"
    [| { Exe.tn_kernel = shape_func_name exe; tn_extent = 5; tn_tile_m = 2 } |];
  expect_reject "non-positive extent"
    [| { Exe.tn_kernel = kernel; tn_extent = 0; tn_tile_m = 2 } |];
  expect_reject "tile_m out of range"
    [| { Exe.tn_kernel = kernel; tn_extent = 5; tn_tile_m = 512 } |];
  expect_reject "duplicate (kernel, extent)"
    [| { Exe.tn_kernel = kernel; tn_extent = 5; tn_tile_m = 2 };
       { Exe.tn_kernel = kernel; tn_extent = 5; tn_tile_m = 4 } |];
  Alcotest.(check (list string)) "valid table accepted again" []
    (List.map Diag.to_string
       (tune_diags [| { Exe.tn_kernel = kernel; tn_extent = 5; tn_tile_m = 2 } |]))

let test_warm_restart_pretuned () =
  (* cold path: compile, serialize, verify, relink from the compile *)
  let compile () = Nimble.compile ~options:sparse_opts (make_module shared_w) in
  let compiled = compile () in
  let exe = Verifier.of_bytes (Serialize.to_bytes compiled) in
  Exe.relink ~from:compiled exe;
  Alcotest.(check int) "no decisions yet" 0 (Serve.Cache.persist_tunes exe);
  (* reference through the guarded-fallback route, before any install (the
     serialized constants are f32-rounded, so the reference must come from
     a roundtripped executable too) *)
  let x = Tensor.randn rng [| 21; feature_dim |] in
  let reference = Interp.run_tensors (Interp.create exe) [ x ] in
  (* serve-time specialization lands in the live table *)
  Dispatch.install_tuned (dispatcher exe) ~extent:21 ~tile_m:4;
  Alcotest.(check int) "decision persisted" 1 (Serve.Cache.persist_tunes exe);
  Alcotest.(check (list string)) "persisted table verifies" []
    (List.map Diag.to_string (Verifier.verify exe));
  (* warm restart: decode the checkpoint, relink it from a fresh compile
     of the module (fresh, untuned dispatchers), replay the table *)
  let exe2 = Verifier.of_bytes (Serialize.to_bytes exe) in
  Exe.relink ~from:(compile ()) exe2;
  Alcotest.(check (option int)) "fresh dispatcher starts untuned" None
    (Dispatch.pretuned (dispatcher exe2) ~extent:21);
  Alcotest.(check int) "decision replayed on relink" 1 (Serve.Cache.apply_tunes exe2);
  Alcotest.(check (option int)) "restart comes back pre-specialized" (Some 4)
    (Dispatch.pretuned (dispatcher exe2) ~extent:21);
  (* the tuned route answers bitwise-identically to the fallback route,
     and the kernel span attributes the call to the tuned selection *)
  let tr = Nimble_vm.Trace.create () in
  let vm2 = Interp.create exe2 in
  Interp.set_trace vm2 (Some tr);
  Alcotest.check tensor_bitwise "pre-specialized run bitwise" reference
    (Interp.run_tensors vm2 [ x ]);
  let tuned_span =
    List.exists
      (fun (s : Nimble_vm.Trace.span) ->
        s.Nimble_vm.Trace.cat = Nimble_vm.Trace.cat_kernel
        && List.mem ("dispatch", Nimble_vm.Trace.Str "tuned") s.Nimble_vm.Trace.args
        && List.mem ("extent", Nimble_vm.Trace.Int 21) s.Nimble_vm.Trace.args)
      (Nimble_vm.Trace.spans tr)
  in
  Alcotest.(check bool) "kernel span tagged dispatch=tuned" true tuned_span

(* ------------------------ register compaction ------------------------ *)

let test_compact_registers () =
  (* the pipeline without its final compaction: optimize, then emit *)
  let optimized, _ = Nimble.optimize ~options:sparse_opts (make_module shared_w) in
  let exe =
    Emitter.emit_module
      ~options:
        { Emitter.default_options with
          Emitter.dense_dispatch = sparse_opts.Nimble.dense_dispatch }
      optimized
  in
  let x = Tensor.randn rng [| 9; feature_dim |] in
  let reference = Interp.run_tensors (Interp.create exe) [ x ] in
  let before = Compact.register_count exe in
  let removed = Compact.run exe in
  Alcotest.(check bool) "compaction removes dead slots" true (removed > 0);
  Alcotest.(check int) "delta accounted" (before - removed) (Compact.register_count exe);
  Alcotest.(check (list string)) "compacted code verifies" []
    (List.map Diag.to_string (Verifier.verify exe));
  Alcotest.check tensor_bitwise "compacted run bitwise" reference
    (Interp.run_tensors (Interp.create exe) [ x ]);
  let report_exe, report = Nimble.compile_with_report (make_module shared_w) in
  Alcotest.(check bool) "report carries the delta" true
    (report.Nimble.registers_after <= report.Nimble.registers_before);
  Alcotest.(check int) "default pipeline already compact" 0 (Compact.run report_exe)

(* ------------------------------- chaos ------------------------------- *)

let with_fault spec f =
  Fun.protect ~finally:Fault.disable (fun () ->
      Fault.configure spec;
      f ())

(* transient kernel-launch faults while the background tuner installs into
   the live table of a serving engine: every accepted request must drain
   (Ok bitwise-equal or a typed failure), and the hot extent must still
   end up specialized *)
let test_chaos_install_under_faults () =
  let exe = Nimble.compile ~options:sparse_opts (make_module shared_w) in
  let hot = 21 in
  let requests = 60 in
  let jobs =
    Array.init requests (fun i ->
        let rows = if i mod 4 < 3 then hot else 8 in
        (rows, Tensor.randn rng [| rows; feature_dim |]))
  in
  let reference =
    let vm = Interp.create exe in
    Array.map (fun (_, x) -> Interp.run_tensors vm [ x ]) jobs
  in
  let au =
    Autotune.create
      ~config:
        {
          Autotune.default_config with
          Autotune.hot_threshold = 8;
          scan_interval = 2;
          repeats = 1;
          warmup = 0;
        }
      ()
  in
  with_fault "seed=5;kernel_launch=0.3:transient" (fun () ->
      let engine =
        Serve.Engine.create
          ~config:
            {
              Serve.Engine.default_config with
              Serve.Engine.workers = 2;
              queue_capacity = 256;
              max_batch = 4;
            }
          ~autotune:au exe
      in
      let tickets =
        Array.map
          (fun (rows, x) ->
            Serve.Engine.submit engine ~shape:[| rows |] (Obj.tensor x))
          jobs
      in
      let completed = ref 0 and failed = ref 0 and rejected = ref 0 in
      Array.iteri
        (fun i tk ->
          match tk with
          | Error Serve.Engine.Rejected -> incr rejected
          | Error _ -> Alcotest.fail "submit produced a non-reject error"
          | Ok tk -> (
              match Serve.Engine.wait tk with
              | Ok (Obj.Tensor p) ->
                  incr completed;
                  Alcotest.check tensor_bitwise
                    (Printf.sprintf "request %d bitwise under chaos" i)
                    reference.(i) p.Obj.data
              | Ok _ -> Alcotest.fail "non-tensor result"
              | Error (Serve.Engine.Failed _) -> incr failed
              | Error Serve.Engine.Rejected | Error Serve.Engine.Timed_out ->
                  Alcotest.fail "no deadline was set: only Failed is acceptable"))
        tickets;
      Serve.Engine.shutdown engine;
      Alcotest.(check int) "no stranded requests" requests
        (!completed + !failed + !rejected);
      Alcotest.(check bool) "faults actually fired" true
        (List.exists (fun (_, h) -> h > 0) (Fault.hits ())));
  (* tuning work queued during the chaos window finishes off-path *)
  Autotune.drain au;
  Autotune.shutdown au;
  Alcotest.(check bool) "hot extent specialized despite chaos" true
    (Dispatch.pretuned (dispatcher exe) ~extent:hot <> None);
  (* the installed kernel answers bitwise-equal once injection is off *)
  let vm = Interp.create exe in
  Array.iteri
    (fun i (_, x) ->
      Alcotest.check tensor_bitwise
        (Printf.sprintf "request %d bitwise after chaos" i)
        reference.(i)
        (Interp.run_tensors vm [ x ]))
    jobs

let () =
  Alcotest.run "autotune"
    [
      ( "dispatch",
        [
          Alcotest.test_case "extent histogram" `Quick test_extent_histogram;
          Alcotest.test_case "counters exact across domains" `Quick
            test_counters_concurrent;
          Alcotest.test_case "reset/snapshots race mutators" `Quick
            test_reset_snapshots_concurrent;
          Alcotest.test_case "last selection is domain-local" `Quick
            test_last_selection_domain_local;
          Alcotest.test_case "live installs stay bitwise" `Quick
            test_install_live_bitwise;
          Alcotest.test_case "eviction at the cap" `Quick test_install_eviction;
        ] );
      ( "tuner",
        [
          Alcotest.test_case "measurement protocol surfaced" `Quick
            test_tuner_protocol;
          Alcotest.test_case "synchronous close-the-loop" `Quick
            test_sync_close_the_loop;
          Alcotest.test_case "pending work keyed by dispatcher" `Quick
            test_pending_by_dispatcher;
        ] );
      ( "persistence",
        [
          Alcotest.test_case "tune table roundtrip" `Quick test_tune_table_roundtrip;
          Alcotest.test_case "verifier rejects bad tables" `Quick
            test_verifier_rejects_bad_tunes;
          Alcotest.test_case "warm restart pre-specialized" `Quick
            test_warm_restart_pretuned;
        ] );
      ( "compact",
        [
          Alcotest.test_case "dead registers removed, bitwise" `Quick
            test_compact_registers;
        ] );
      ( "chaos",
        [
          Alcotest.test_case "install under kernel_launch faults" `Quick
            test_chaos_install_under_faults;
        ] );
    ]
