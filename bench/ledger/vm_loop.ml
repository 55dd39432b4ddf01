(** Closed-loop inference workloads: one caller invokes a compiled model
    over a seeded corpus in repeated passes, reusing one interpreter and
    one [Interp.ctx]. The time split comes from the interpreter's
    profiler (untraced) and from the kernel spans of [Interp.set_trace]
    (traced). *)

open Nimble_models
module Interp = Nimble_vm.Interp
module Profiler = Nimble_vm.Profiler
module Obj = Nimble_vm.Obj
module Trace = Nimble_vm.Trace
module Tensor = Nimble_tensor.Tensor
module Nimble = Nimble_compiler.Nimble
module Dispatch = Nimble_codegen.Dispatch

type item = { input : Obj.t; reference : Tensor.t; tokens : int }

type model = {
  name : string;
  build : unit -> Nimble_ir.Irmod.t;  (** weights and IR from scratch *)
  corpus : item array;
}

let corpus_size = 64

(** [corpus_size] input sizes: evenly spaced quantiles of a seeded draw
    sixteen times larger. The seed picks the inputs, yet every corpus
    has nearly the same size mix, so per-token time and latency
    percentiles barely move with the seed. *)
let stratified draw =
  let k = 16 in
  let a = Array.init (k * corpus_size) (fun _ -> draw ()) in
  Array.sort compare a;
  List.init corpus_size (fun i -> a.((k * i) + (k / 2)))

let bert_config =
  { Bert.num_layers = 2; hidden_size = 128; num_heads = 4; ffn_size = 512; vocab_size = 1000 }

let bert ~seed =
  let weights () = Bert.init_weights ~seed bert_config in
  let w = weights () in
  let rng = Nimble_tensor.Rng.create ~seed in
  let corpus =
    List.map
      (fun len ->
        let x = Bert.embed w (Bert.random_ids ~seed w ~len) in
        { input = Obj.tensor x; reference = Bert.reference w x; tokens = len })
      (stratified (fun () -> Nimble_workloads.Mrpc.sample_length rng))
  in
  { name = "bert"; build = (fun () -> Bert.ir_module (weights ())); corpus = Array.of_list corpus }

let treelstm ~seed =
  let config = Tree_lstm.small_config in
  let weights () = Tree_lstm.init_weights ~seed config in
  let w = weights () in
  let leaf, node = Tree_lstm.ctors w in
  let rec obj = function
    | Tree_lstm.Leaf x -> Obj.Adt { tag = leaf.Nimble_ir.Adt.tag; fields = [| Obj.tensor x |] }
    | Tree_lstm.Node (l, r) -> Obj.Adt { tag = node.Nimble_ir.Adt.tag; fields = [| obj l; obj r |] }
  in
  let rng = Nimble_tensor.Rng.create ~seed in
  let corpus =
    List.map
      (fun tokens ->
        let t = Nimble_workloads.Sst.sample_tree rng config ~tokens in
        { input = obj t; reference = Tree_lstm.reference w t; tokens })
      (stratified (fun () -> Nimble_workloads.Sst.sample_tokens rng))
  in
  {
    name = "treelstm";
    build = (fun () -> Tree_lstm.ir_module (weights ()));
    corpus = Array.of_list corpus;
  }

(* ------------------------------ counters ------------------------------ *)

(** Profiler totals at one instant; a pass's cost is the difference of
    two snapshots. *)
type counters = {
  instrs : int;
  kernel_calls : int;
  shape_calls : int;
  allocs : int;
  rebinds : int;
  par_runs : int;
  total_s : float;
  kernel_s : float;
  alloc_s : float;
  shape_s : float;
}

let snapshot (prof : Profiler.t) ~shape_funcs =
  let shape_s, par_runs =
    Hashtbl.fold
      (fun name (k : Profiler.kernel_stat) (s, p) ->
        ( (if List.mem name shape_funcs then s +. k.Profiler.seconds else s),
          p + k.Profiler.par_runs ))
      prof.Profiler.per_kernel (0.0, 0)
  in
  {
    instrs = Profiler.total_instrs prof;
    kernel_calls = prof.Profiler.kernel_invocations;
    shape_calls = prof.Profiler.shape_func_invocations;
    allocs = Profiler.allocs prof;
    rebinds = prof.Profiler.arena_rebinds;
    par_runs;
    total_s = prof.Profiler.total_seconds;
    kernel_s = prof.Profiler.kernel_seconds;
    alloc_s = prof.Profiler.alloc_seconds;
    shape_s;
  }

let diff a b =
  {
    instrs = a.instrs - b.instrs;
    kernel_calls = a.kernel_calls - b.kernel_calls;
    shape_calls = a.shape_calls - b.shape_calls;
    allocs = a.allocs - b.allocs;
    rebinds = a.rebinds - b.rebinds;
    par_runs = a.par_runs - b.par_runs;
    total_s = a.total_s -. b.total_s;
    kernel_s = a.kernel_s -. b.kernel_s;
    alloc_s = a.alloc_s -. b.alloc_s;
    shape_s = a.shape_s -. b.shape_s;
  }

let exact_part c = (c.instrs, c.kernel_calls, c.shape_calls, c.allocs, c.rebinds, c.par_runs)

(* -------------------------------- loop -------------------------------- *)

type state = {
  model : model;
  vm : Interp.t;
  ctx : Interp.ctx;
  outputs : Tensor.t option array;  (** first output per input *)
}

(** Run one inference and check its output ({!Run.check_output}). *)
let infer (run : Run.t) st i =
  let item = st.model.corpus.(i) in
  let r, dt = Run.timed (fun () -> Interp.invoke_result ~ctx:st.ctx st.vm [ item.input ]) in
  run.Run.attempted <- run.Run.attempted + 1;
  (match r with
  | Error fl -> Run.fail run "%s input %d: %a" st.model.name i Interp.pp_failure fl
  | Ok obj -> (
      match Run.check_output st.outputs i ~reference:item.reference (Obj.to_tensor obj) with
      | Ok () -> ()
      | Error msg -> Run.fail run "%s input %d: %s" st.model.name i msg));
  dt

let setup model =
  let exe = Nimble.compile (model.build ()) in
  let st =
    {
      model;
      vm = Interp.create exe;
      ctx = Interp.context ();
      outputs = Array.make (Array.length model.corpus) None;
    }
  in
  ignore (Interp.invoke ~ctx:st.ctx st.vm [ model.corpus.(0).input ]);
  (exe, st)

(** Run [pass] (one full corpus pass) until [seconds] have passed, at
    least once. *)
let repeat ~seconds pass =
  let deadline = Run.now () +. seconds in
  pass ();
  while Run.now () < deadline do
    pass ()
  done

(* ------------------------------ tracing ------------------------------- *)

(** A traced inference's kernel calls by dispatch tier: the kernel span's
    [dispatch] arg names the residue-dispatch decision; kernels without a
    dispatcher are [plain]. *)
let tiers = [ "tuned"; "extern"; "residue"; "guarded"; "plain" ]

let tier_of (s : Trace.span) =
  match List.assoc_opt "dispatch" s.Trace.args with
  | Some (Trace.Str "tuned") -> "tuned"
  | Some (Trace.Str "extern") -> "extern"
  | Some (Trace.Str "hit") -> "residue"
  | Some (Trace.Str "miss") -> "guarded"
  | _ -> "plain"

(** Per-tier (calls, µs) of the spans the trace holds. *)
let tier_totals tr =
  let tbl = Hashtbl.create 8 in
  List.iter
    (fun (s : Trace.span) ->
      if s.Trace.cat = Trace.cat_kernel then begin
        let tier = tier_of s in
        let n, us = Option.value ~default:(0, 0.0) (Hashtbl.find_opt tbl tier) in
        Hashtbl.replace tbl tier (n + 1, us +. s.Trace.dur_us)
      end)
    (Trace.spans tr);
  List.map (fun t -> (t, Option.value ~default:(0, 0.0) (Hashtbl.find_opt tbl t))) tiers

let add_tiers a b = List.map2 (fun (t, (n, u)) (_, (m, v)) -> (t, (n + m, u +. v))) a b

(** The traced phase: every inference runs with the program trace
    installed, cleared before each call so the ring never overflows.
    Returns per-layer metrics and the traced latencies. *)
let traced_phase (run : Run.t) st ~seconds =
  let tr = Option.get run.Run.spans.Spans.program in
  let n = float_of_int (Array.length st.model.corpus) in
  let lat = Sample.create () in
  let dropped = ref 0 in
  let per_pass = ref [] in
  let pass () =
    let acc = ref (List.map (fun t -> (t, (0, 0.0))) tiers) in
    Array.iteri
      (fun i _ ->
        Run.calibrate run;
        Trace.clear tr;
        let ts_us = Trace.now_us tr in
        let dt = infer run st i in
        Spans.record run.Run.spans ~name:"invoke" ~ts_us ~dur_us:(1e6 *. dt)
          [ ("input", Trace.Int i) ];
        Sample.add lat dt;
        dropped := !dropped + Trace.dropped tr;
        acc := add_tiers !acc (tier_totals tr))
      st.model.corpus;
    per_pass := !acc :: !per_pass
  in
  Interp.set_trace st.vm (Some tr);
  repeat ~seconds pass;
  Interp.set_trace st.vm None;
  let calls p = List.map (fun (_, (c, _)) -> c) p in
  let first = List.hd !per_pass in
  if List.exists (fun p -> calls p <> calls first) !per_pass then
    Run.fail run "%s: kernel calls per dispatch tier differ between passes" st.model.name;
  let calls_per_inf t = float_of_int (fst (List.assoc t first)) /. n in
  let us_per_inf t =
    Sample.median_of (List.map (fun p -> snd (List.assoc t p) /. n) !per_pass)
  in
  ( List.map (fun t -> ("codegen." ^ t ^ "_calls_per_inf", calls_per_inf t)) tiers
    @ List.map
        (fun t -> ("codegen." ^ t ^ "_us_per_inf", us_per_inf t))
        [ "residue"; "guarded"; "plain" ]
    @ [ ("trace.dropped", float_of_int !dropped) ],
    lat )

(* ------------------------------ workload ------------------------------ *)

(** Share of dispatched dense calls served by a residue-specialized or
    tuned kernel rather than the guarded fallback or the extern library,
    since the last [Dispatch.reset_counters]. *)
let dispatch_hit_frac () =
  let hits, all =
    List.fold_left
      (fun (h, a) (s : Dispatch.snapshot) ->
        ( h + s.Dispatch.snap_hits + s.Dispatch.snap_tuned_calls,
          a + s.Dispatch.snap_hits + s.Dispatch.snap_misses + s.Dispatch.snap_tuned_calls
          + s.Dispatch.snap_extern_calls ))
      (0, 0) (Dispatch.snapshots ())
  in
  Run.ratio (float_of_int hits) (float_of_int all)

let run (run : Run.t) (make : seed:int -> model) : Run.result =
  let model = make ~seed:run.Run.seed in
  let setup_s, (exe, st) =
    Run.time_setup (fun () -> Spans.span run.Run.spans "setup" (fun () -> setup model))
  in
  let shape_funcs =
    Array.fold_left
      (fun acc (name, kind) -> if kind = `Shape_func then name :: acc else acc)
      [] exe.Nimble_vm.Exe.packed_names
  in
  let prof = Interp.profiler st.vm in
  (* one corpus pass, calibrating machine speed between inferences;
     returns the pass's inference time *)
  let infer_all lat =
    let total = ref 0.0 in
    Array.iteri
      (fun i _ ->
        Run.calibrate run;
        let dt = infer run st i in
        Sample.add lat dt;
        total := !total +. dt)
      model.corpus;
    !total
  in
  (* warm-up pass: fills the storage pool and the plan arenas, and checks
     every output against the reference *)
  ignore (infer_all (Sample.create ()));
  let peak_rss_mb = Run.peak_rss_mb () in
  Dispatch.reset_counters ();
  let lat = Sample.create () in
  let costs = ref [] in
  let pass_times = ref [] in
  repeat ~seconds:(Run.phase_seconds run) (fun () ->
      let c0 = snapshot prof ~shape_funcs in
      pass_times := infer_all lat :: !pass_times;
      costs := diff (snapshot prof ~shape_funcs) c0 :: !costs);
  let costs = List.rev !costs and pass_times = !pass_times in
  let first = List.hd costs in
  if List.exists (fun c -> exact_part c <> exact_part first) costs then
    Run.fail run "%s: exact VM counters differ between passes" model.name;
  let n = float_of_int (Array.length model.corpus) in
  let tokens = float_of_int (Array.fold_left (fun a it -> a + it.tokens) 0 model.corpus) in
  let end_to_end =
    [
      ("setup_s", setup_s);
      ("latency_p50_ms", 1e3 *. Sample.median lat);
      ("us_per_token", Sample.median_of (List.map (fun s -> 1e6 *. s /. tokens) pass_times));
      ("throughput_ops_s", Sample.median_of (List.map (fun s -> n /. s) pass_times));
      ("peak_rss_mb", peak_rss_mb);
      ("exe_bytes", float_of_int (String.length (Nimble_vm.Serialize.to_bytes exe)));
    ]
  in
  if not run.Run.traced then { Run.end_to_end; per_layer = [] }
  else begin
    let median f = Sample.median_of (List.map f costs) in
    let per_inf f = median (fun c -> f c /. n) in
    let count f = float_of_int (f first) /. n in
    let other_s c = c.total_s -. c.kernel_s in
    let untraced =
      [
        ("vm.instrs_per_inf", count (fun c -> c.instrs));
        ("vm.other_us_per_inf", per_inf (fun c -> 1e6 *. other_s c));
        ("vm.ns_per_instr", median (fun c -> 1e9 *. Run.ratio (other_s c) (float_of_int c.instrs)));
        ("vm.arena_rebinds_per_inf", count (fun c -> c.rebinds));
        ("codegen.kernel_calls_per_inf", count (fun c -> c.kernel_calls));
        ("codegen.kernel_us_per_inf", per_inf (fun c -> 1e6 *. c.kernel_s));
        ( "codegen.us_per_call",
          median (fun c -> 1e6 *. Run.ratio c.kernel_s (float_of_int c.kernel_calls)) );
        ("codegen.dispatch_hit_frac", dispatch_hit_frac ());
        ("shape.calls_per_inf", count (fun c -> c.shape_calls));
        ("shape.us_per_inf", per_inf (fun c -> 1e6 *. c.shape_s));
        ("device.allocs_per_inf", count (fun c -> c.allocs));
        ("device.alloc_us_per_inf", per_inf (fun c -> 1e6 *. c.alloc_s));
        ( "device.pool_peak_bytes",
          float_of_int
            (List.fold_left
               (fun a (d : Profiler.device_row) -> Stdlib.max a d.Profiler.dr_peak_bytes)
               0 (Profiler.report prof).Profiler.r_devices) );
        ("parallel.par_runs_per_inf", count (fun c -> c.par_runs));
      ]
    in
    let traced, traced_lat = traced_phase run st ~seconds:(Run.phase_seconds run) in
    let compile =
      Compile_layers.profile run ~models:[ (model.name, model.build) ]
    in
    {
      Run.end_to_end;
      per_layer =
        untraced @ traced @ compile
        @ [
            ("latency_p90_ms", 1e3 *. Sample.percentile lat 90.0);
            ("latency_p99_ms", 1e3 *. Sample.percentile lat 99.0);
            ("trace.overhead_frac", (Sample.median traced_lat /. Sample.median lat) -. 1.0);
          ];
    }
  end
