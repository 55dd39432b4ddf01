(** Ablations for the design choices called out in DESIGN.md:

    - operator fusion on/off: primitive count, kernel launches and the
      perfsim estimate, then measured on the host (latency and GC words
      per inference, for BERT and the zoo Tree-LSTM);
    - heterogeneous device placement: unification + upload caching vs naive
      per-use copies (transfer count and bytes on the simulated GPU);
    - the pad-to-max static reduction vs native dynamism (wasted compute);
    - symbolic-kernel tuning (template search + cross-shape evaluation). *)

open Nimble_models
module Nimble = Nimble_compiler.Nimble
module Estimator = Nimble_perfsim.Estimator
module Platform = Nimble_perfsim.Platform
module Framework = Nimble_perfsim.Framework
module Pool = Nimble_device.Pool
module Profiler = Nimble_vm.Profiler

let bert_config =
  { Bert.num_layers = 2; hidden_size = 128; num_heads = 4; ffn_size = 512; vocab_size = 2000 }

let fusion_ablation () =
  let w = Bert.init_weights bert_config in
  let x = Bert.embed w (Bert.random_ids w ~len:32) in
  let report fuse =
    let exe, rep =
      Nimble.compile_with_report
        ~options:{ Nimble.default_options with Nimble.fuse }
        (Bert.ir_module w)
    in
    let vm = Nimble.vm exe in
    let _, events =
      Estimator.record (fun () ->
          Nimble_vm.Obj.to_tensor (Nimble_runner.invoke vm [ Nimble_vm.Obj.tensor x ]))
    in
    let b =
      Estimator.price ~platform:Platform.intel_cpu ~framework:Framework.Nimble
        ~launch_per_op:false events
    in
    let launches =
      Option.value ~default:0 (List.assoc_opt "vm_kernel_launch" b.Estimator.events)
    in
    (rep.Nimble.primitives, launches, Estimator.total Platform.intel_cpu Framework.Nimble b)
  in
  let p_on, l_on, t_on = report true in
  let p_off, l_off, t_off = report false in
  Fmt.pr "@.Ablation: operator fusion (BERT %dx%d, seq 32)@." bert_config.Bert.num_layers
    bert_config.Bert.hidden_size;
  Fmt.pr "  fusion on : %3d primitives, %4d kernel launches, est. %.2f ms (Intel)@."
    p_on l_on (1e3 *. t_on);
  Fmt.pr "  fusion off: %3d primitives, %4d kernel launches, est. %.2f ms (Intel)@."
    p_off l_off (1e3 *. t_off)

(* [(q1, median, q3)] of [xs]. *)
let quartiles xs =
  let a = Array.copy xs in
  Array.sort compare a;
  let at q = a.(Stdlib.min (Array.length a - 1) (int_of_float (q *. float (Array.length a)))) in
  (at 0.25, at 0.5, at 0.75)

(* Minor and major words one call of [f] allocates, over 100 warm calls
   pinned to the calling domain (so every word is counted there). OCaml
   5's [Gc.counters] advances only at a minor collection, so a collection
   is forced at both ends. *)
let gc_words f =
  Nimble_parallel.Parallel.pinned_sequential (fun () ->
      f ();
      Gc.minor ();
      let mi0, _, ma0 = Gc.counters () in
      for _ = 1 to 100 do
        f ()
      done;
      Gc.minor ();
      let mi1, _, ma1 = Gc.counters () in
      ((mi1 -. mi0) /. 100.0, (ma1 -. ma0) /. 100.0))

(* Fusion on the host: one model compiled with fusion on and off, their
   inferences interleaved (the order alternating) so host drift hits both
   sides alike. *)
let host_fusion_ablation () =
  let measure label ~n build input =
    let side fuse =
      let exe = Nimble.compile ~options:{ Nimble.default_options with Nimble.fuse } (build ()) in
      let vm = Nimble.vm exe and ctx = Nimble_vm.Interp.context () in
      fun () -> ignore (Nimble_vm.Interp.invoke ~ctx vm [ input ])
    in
    let on = side true and off = side false in
    let t_on = Array.make n 0.0 and t_off = Array.make n 0.0 in
    let time f =
      let t0 = Unix.gettimeofday () in
      f ();
      Unix.gettimeofday () -. t0
    in
    on ();
    off ();
    for i = 0 to n - 1 do
      if i mod 2 = 0 then begin
        t_on.(i) <- time on;
        t_off.(i) <- time off
      end
      else begin
        t_off.(i) <- time off;
        t_on.(i) <- time on
      end
    done;
    let row name f ts =
      let q1, med, q3 = quartiles ts and minor, major = gc_words f in
      Fmt.pr "    fusion %-3s: %8.3f ms [%.3f, %.3f]  minor %9.0f  major %9.0f words@." name
        (1e3 *. med) (1e3 *. q1) (1e3 *. q3) minor major
    in
    Fmt.pr "  %s, %d inferences a side@." label n;
    row "on" on t_on;
    row "off" off t_off;
    let _, med_on, _ = quartiles t_on and _, med_off, _ = quartiles t_off in
    Fmt.pr "    on/off median: %.2f@." (med_on /. med_off)
  in
  Fmt.pr
    "@.Ablation: operator fusion on the host (median [quartiles] over interleaved inferences; GC \
     words per inference at one domain)@.";
  let w = Bert.init_weights bert_config in
  let x = Bert.embed w (Bert.random_ids w ~len:32) in
  measure
    (Fmt.str "BERT %dx%d, seq 32" bert_config.Bert.num_layers bert_config.Bert.hidden_size)
    ~n:100
    (fun () -> Bert.ir_module w)
    (Nimble_vm.Obj.tensor x);
  let tree = Option.get (Nimble_workloads.Zoo.find "treelstm") in
  measure "zoo Tree-LSTM, 12 leaves" ~n:400 tree.Nimble_workloads.Zoo.build
    (tree.Nimble_workloads.Zoo.sample_input ~seq:12)

let placement_ablation () =
  (* a dynamic dense chain on the simulated GPU target *)
  let w = Bert.init_weights bert_config in
  let x = Bert.embed w (Bert.random_ids w ~len:24) in
  let transfers cache_copies =
    let m = Bert.ir_module w in
    let m, _ = Nimble.optimize ~options:{ Nimble.default_options with Nimble.target_device = 1; device_placement = false } m in
    ignore (Nimble_passes.Device_place.run ~cache_copies m);
    let m = Nimble_passes.Dce.run m in
    let exe = Nimble_compiler.Emitter.emit_module m in
    let vm = Nimble.vm exe in
    ignore (Nimble_vm.Interp.invoke vm [ Nimble_vm.Obj.tensor x ]);
    let p = Nimble_vm.Interp.profiler vm in
    let bytes =
      Hashtbl.fold
        (fun _ (s : Pool.stats) acc -> acc + s.Pool.transfer_bytes_in)
        p.Profiler.pool.Pool.per_device 0
    in
    (Pool.total_transfers p.Profiler.pool, bytes)
  in
  let t_unif, b_unif = transfers true in
  let t_naive, b_naive = transfers false in
  (* static comparison: shape functions on the host (the paper's rule) vs
     misplaced on the device — count the copies the analysis must insert *)
  let copies_with_sf_dev dev =
    let m = Bert.ir_module w in
    let m, _ =
      Nimble.optimize
        ~options:
          { Nimble.default_options with Nimble.target_device = 1; device_placement = false }
        m
    in
    (Nimble_passes.Device_place.run ~shape_func_device:dev m)
      .Nimble_passes.Device_place.copies_inserted
  in
  let host_copies = copies_with_sf_dev 0 in
  let dev_copies = copies_with_sf_dev 1 in
  Fmt.pr "@.Ablation: device placement on simulated GPU (BERT %dx%d, seq 24)@."
    bert_config.Bert.num_layers bert_config.Bert.hidden_size;
  Fmt.pr "  unification + upload caching: %4d transfers, %8d bytes@." t_unif b_unif;
  Fmt.pr "  naive per-use copies:         %4d transfers, %8d bytes@." t_naive b_naive;
  Fmt.pr "  device copies in bytecode: shape funcs on host %d vs misplaced on device %d@."
    host_copies dev_copies

let padding_ablation () =
  let config = { Lstm.small_config with Lstm.hidden_size = 64 } in
  let w = Lstm.init_weights config in
  let corpus = Nimble_workloads.Mrpc.lstm_inputs config 6 in
  let lengths = List.map List.length corpus in
  let max_len = 64 in
  let run_est f =
    let _, events = Estimator.record f in
    Estimator.total Platform.intel_cpu Framework.Nimble
      (Estimator.price ~platform:Platform.intel_cpu ~framework:Framework.Nimble
         ~launch_per_op:true events)
  in
  (* both paths run the same instrumented static executor; the only
     difference is the padding *)
  let t_dynamic =
    run_est (fun () ->
        List.map
          (fun xs -> Nimble_baselines.Padded.lstm ~max_len:(List.length xs) w xs)
          corpus)
  in
  let t_padded =
    run_est (fun () -> List.map (Nimble_baselines.Padded.lstm ~max_len w) corpus)
  in
  Fmt.pr "@.Ablation: pad-to-max static reduction vs native dynamism (LSTM)@.";
  Fmt.pr "  native dynamic shapes: est. %.2f ms for the corpus@." (1e3 *. t_dynamic);
  Fmt.pr "  padded to %d:          est. %.2f ms (%.0f%% compute wasted on padding)@."
    max_len (1e3 *. t_padded)
    (100.0 *. Nimble_baselines.Padded.waste ~max_len lengths)

let tuner_demo () =
  let result = Nimble_codegen.Tuner.tune ~n:256 ~k:256 () in
  Fmt.pr "@.Symbolic kernel tuning (dense n=256 k=256, symbolic rows)@.";
  Fmt.pr "  tuned on static stand-in m=%d; top-%d configs cross-evaluated on %d extents@."
    result.Nimble_codegen.Tuner.tuned_on
    (List.length result.Nimble_codegen.Tuner.top_k)
    (List.length result.Nimble_codegen.Tuner.cross_eval
    / Stdlib.max 1 (List.length result.Nimble_codegen.Tuner.top_k));
  Fmt.pr "  selected row tile: %d@." result.Nimble_codegen.Tuner.best.Nimble_codegen.Tuner.tile_m

let run () =
  fusion_ablation ();
  host_fusion_ablation ();
  placement_ablation ();
  padding_ablation ();
  tuner_demo ()
