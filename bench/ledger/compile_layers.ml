(** The compile-side layers of every workload: pass, typing, analysis and
    emitter times from [Nimble.compile_with_report]'s report, the exact
    sizes it records, and the deployment path (serialize, verify, cold
    cache load) timed from outside. *)

module Nimble = Nimble_compiler.Nimble
module Cache = Nimble_serve.Cache

(* report pass name -> metric; "anf" and "dce" run twice and are summed *)
let pass_metrics =
  [
    ("anf", "passes.anf_ms");
    ("inline", "passes.inline_ms");
    ("cse", "passes.cse_ms");
    ("const_fold", "passes.const_fold_ms");
    ("dce", "passes.dce_ms");
    ("type_resolve", "passes.type_resolve_ms");
    ("fusion", "passes.fusion_ms");
    ("manifest_alloc", "passes.manifest_alloc_ms");
    ("device_place", "passes.device_place_ms");
    ("memory_plan", "passes.memory_plan_ms");
    ("infer", "typing.infer_ms");
    ("classify", "analysis.classify_ms");
    ("compact_regs", "analysis.compact_regs_ms");
  ]

(** Deterministic counts: they must repeat exactly from compile to
    compile, and the serialized size follows from them. *)
let exact =
  [
    "compiler.instructions";
    "compiler.registers";
    "compiler.primitives";
    "passes.ir_nodes";
    "passes.arena_bytes";
    "passes.storages";
    "analysis.violations";
  ]

(** One compile's per-layer metrics. [compiler.emit_ms] is the
    bench-timed [wall_s] minus everything the report attributes. *)
let of_report ~wall_s (r : Nimble.report) =
  let pass_s name =
    List.fold_left
      (fun acc (p : Nimble.pass_stat) ->
        if p.Nimble.pass_name = name then acc +. p.Nimble.pass_seconds else acc)
      0.0 r.Nimble.passes
  in
  let passes_s =
    List.fold_left (fun acc (p : Nimble.pass_stat) -> acc +. p.Nimble.pass_seconds) 0.0
      r.Nimble.passes
  in
  let verify_s, violations =
    List.fold_left
      (fun (s, v) (c : Nimble.verify_stat) ->
        (s +. c.Nimble.verify_seconds, v + c.Nimble.violations))
      (0.0, 0) r.Nimble.verify
  in
  (* IR size after the last IR pass; compact_regs counts registers *)
  let ir_nodes =
    List.fold_left
      (fun acc (p : Nimble.pass_stat) ->
        if p.Nimble.pass_name = "compact_regs" then acc else p.Nimble.nodes_after)
      0 r.Nimble.passes
  in
  List.map (fun (pass, metric) -> (metric, 1e3 *. pass_s pass)) pass_metrics
  @ [
      ("analysis.verify_ms", 1e3 *. verify_s);
      ("compiler.emit_ms", 1e3 *. (wall_s -. passes_s -. verify_s));
      ("compiler.instructions", float_of_int r.Nimble.instructions);
      ("compiler.registers", float_of_int r.Nimble.registers_after);
      ("compiler.primitives", float_of_int r.Nimble.primitives);
      ("passes.ir_nodes", float_of_int ir_nodes);
      ("passes.arena_bytes", float_of_int r.Nimble.arena_bytes);
      ("passes.storages", float_of_int r.Nimble.storages_after_planning);
      ("analysis.violations", float_of_int violations);
    ]

(** Compile, serialize, verify and cold-load one model. The verifier
    must accept the serialized executable with no diagnostics. *)
let compile_and_deploy (run : Run.t) (name, build) =
  let ir = build () in
  let (exe, report), wall_s = Run.timed (fun () -> Nimble.compile_with_report ir) in
  let bytes, serialize_s = Run.timed (fun () -> Nimble_vm.Serialize.to_bytes exe) in
  let verify_s =
    match Run.timed (fun () -> Nimble_analysis.Verifier.of_bytes bytes) with
    | _, s -> s
    | exception Nimble_analysis.Verifier.Verify_error ds ->
        Run.fail run "%s: serialized executable has %d verifier diagnostics" name
          (List.length ds);
        0.0
  in
  let _, load_s = Run.timed (fun () -> Cache.load (Cache.create ()) ~name ~build) in
  of_report ~wall_s report
  @ [
      ("vm.serialize_ms", 1e3 *. serialize_s);
      ("analysis.load_verify_ms", 1e3 *. verify_s);
      ("serve.cache_load_ms", 1e3 *. load_s);
    ]

let sum a b = List.map2 (fun (n, x) (_, y) -> (n, x +. y)) a b

(** Per-layer compile metrics of a workload's model set, over five
    passes that each compile every model once: times are medians over
    the passes, and exact counts must agree between them. *)
let profile (run : Run.t) ~models =
  let one_pass () =
    match List.map (compile_and_deploy run) models with
    | first :: rest -> List.fold_left sum first rest
    | [] -> invalid_arg "Compile_layers.profile: no models"
  in
  let passes = List.init 5 (fun _ -> one_pass ()) in
  List.map
    (fun (name, v) ->
      let values = List.map (List.assoc name) passes in
      if List.mem name exact then begin
        if List.exists (( <> ) v) values then
          Run.fail run "exact counter %s differs between compiles" name;
        (name, v)
      end
      else (name, Sample.median_of values))
    (List.hd passes)
