(** Public compiler facade: the end-to-end pipeline of Figure 2.

    {[
      let exe = Nimble.compile my_module in
      let vm = Nimble.vm exe in
      let out = Nimble_vm.Interp.run_tensors vm [ input ]
    ]}

    Pipeline: constant folding -> ANF -> type inference (with Any) -> type
    resolution -> fusion (dynamic policy) -> manifest alloc -> device
    placement -> memory planning -> DCE -> bytecode emission. *)

open Nimble_ir
open Nimble_passes

type options = {
  target_device : int;  (** 0 = host CPU, 1 = simulated GPU *)
  fuse : bool;
  classify : bool;
      (** shape-value dominance classification ([Nimble_analysis.Classify]):
          prove data-dependent sites static so fusion and memory planning
          can cross formerly dynamic boundaries *)
  memory_plan : bool;
  symbolic_plan : bool;
      (** fold bindable dynamic allocations into per-device symbolic memory
          plans bound per request by [BindArena] (see [docs/MEMORY.md]);
          only meaningful with [memory_plan] on *)
  device_placement : bool;
  dense_dispatch : int option;  (** residue-dispatch kernel count for dense *)
  profile_extern : bool;  (** route dense to a profiled library kernel when faster *)
  runtime_guards : bool;
      (** emit gradual-typing entry guards: the §4.1 residual checks on
          entry-function tensor parameters, enforced by the VM *)
}

let default_options =
  {
    target_device = 0;
    fuse = true;
    classify = true;
    memory_plan = true;
    symbolic_plan = true;
    device_placement = true;
    dense_dispatch = Some 8;
    profile_extern = false;
    runtime_guards = true;
  }

(** One pipeline stage's contribution to the compile report: wall time and
    the IR-size delta it caused (expression nodes before/after — fusion
    grows the module, DCE shrinks it, analyses leave it unchanged). *)
type pass_stat = {
  pass_name : string;
  pass_seconds : float;
  nodes_before : int;
  nodes_after : int;
}

(** One verification check's contribution: which check ran, its wall time
    and how many violations it reported (zero on a healthy pipeline). *)
type verify_stat = {
  verify_name : string;
  verify_seconds : float;
  violations : int;
}

(** One function's row in the operator-classification table. *)
type classify_stat = {
  cls_fn : string;
  cls_sites : int;  (** data-dependent / upper-bound op call sites *)
  cls_proven : int;  (** sites proven static by shape-value dominance *)
  cls_fused : int;  (** fused groups crossing a proven dynamic boundary *)
}

type report = {
  residual_checks : int;  (** runtime type checks deferred by gradual typing *)
  primitives : int;
  sites_total : int;  (** classification candidates, all functions *)
  classified_static : int;  (** dominance-proven sites, all functions *)
  fused_across_dynamic : int;
      (** fused groups containing a proven formerly-dynamic site *)
  classify_table : classify_stat list;  (** per-function classification *)
  storages_before_planning : int;
  storages_after_planning : int;
  arena_bytes : int;
  unplanned_bytes : int;
  kills_inserted : int;
  device_copies : int;
  instructions : int;
  registers_before : int;  (** register slots as emitted, all functions *)
  registers_after : int;  (** register slots after dead-register compaction *)
  passes : pass_stat list;  (** per-pass timings and deltas, pipeline order *)
  verify : verify_stat list;  (** per-check verification stats, run order *)
  verify_diags : Nimble_analysis.Diag.t list;  (** the violations themselves *)
}

(** Total expression nodes across a module's functions — the "IR size" the
    per-pass deltas track. *)
let ir_size (m : Irmod.t) : int =
  List.fold_left
    (fun acc (_, (fn : Nimble_ir.Expr.fn)) ->
      acc + Nimble_ir.Expr.size (Nimble_ir.Expr.Fn fn))
    0 (Irmod.functions m)

(** Run the pass pipeline, returning the processed module and a report. *)
let optimize ?(options = default_options) (m : Irmod.t) : Irmod.t * report =
  let passes = ref [] in
  let record name seconds before after =
    passes :=
      { pass_name = name; pass_seconds = seconds; nodes_before = before; nodes_after = after }
      :: !passes
  in
  let verify_stats = ref [] in
  let verify_diags = ref [] in
  (* run one dialect lint, timing it and folding its violations into the
     report *)
  let lint name check m =
    let t0 = Unix.gettimeofday () in
    let ds = check m in
    verify_stats :=
      {
        verify_name = name;
        verify_seconds = Unix.gettimeofday () -. t0;
        violations = List.length ds;
      }
      :: !verify_stats;
    verify_diags := !verify_diags @ ds
  in
  (* time a transform returning a new module *)
  let timed_from before name f m =
    let t0 = Unix.gettimeofday () in
    let m' = f m in
    record name (Unix.gettimeofday () -. t0) before (ir_size m');
    m'
  in
  let timed name f m = timed_from (ir_size m) name f m in
  (* time a pass that mutates the module in place and returns statistics *)
  let timed_stats name f m =
    let before = ir_size m in
    let t0 = Unix.gettimeofday () in
    let r = f m in
    record name (Unix.gettimeofday () -. t0) before (ir_size m);
    r
  in
  (* ANF first: it is the only pass that understands builder DAG sharing;
     everything after walks linear let-chains. So the builder's module is
     sized by physical identity: a tree walk of its DAG grows ~8x per
     BERT layer. *)
  let m = timed_from (Anf.dag_size m) "anf" Anf.run m in
  ignore (timed_stats "inline" (fun m -> Inline.run m) m);
  let m = timed "anf" Anf.run m in
  let m = timed "cse" Cse.run m in
  let m = timed "const_fold" Const_fold.run m in
  let m = timed "dce" Dce.run m in
  let infer_result = timed_stats "infer" Nimble_typing.Infer.infer_module m in
  let m =
    timed "type_resolve"
      (fun m -> Type_resolve.run m infer_result.Nimble_typing.Infer.solver)
      m
  in
  (* shape-value dominance: stamp proven data-dependent sites and refine
     their binding types before fusion consults the site classification *)
  let cls_summary =
    if options.classify then
      timed_stats "classify" (fun m -> Nimble_analysis.Classify.run m) m
    else
      { Nimble_analysis.Classify.per_fn = []; sites_total = 0; classified_static = 0 }
  in
  let m = timed "fusion" (Fusion.run ~merge:options.fuse) m in
  lint "fusion" Nimble_analysis.Lint.fusion m;
  let fused_per_fn =
    List.map
      (fun (name, (fn : Nimble_ir.Expr.fn)) ->
        (name, Nimble_analysis.Classify.fn_fused_across_dynamic fn))
      (Irmod.functions m)
  in
  let classify_table =
    List.map
      (fun (s : Nimble_analysis.Classify.fn_stat) ->
        {
          cls_fn = s.Nimble_analysis.Classify.cs_fn;
          cls_sites = s.Nimble_analysis.Classify.cs_sites;
          cls_proven = s.Nimble_analysis.Classify.cs_proven;
          cls_fused =
            Option.value ~default:0
              (List.assoc_opt s.Nimble_analysis.Classify.cs_fn fused_per_fn);
        })
      cls_summary.Nimble_analysis.Classify.per_fn
  in
  let primitives =
    List.fold_left
      (fun acc (_, (fn : Nimble_ir.Expr.fn)) ->
        acc + List.length (Fusion.primitives_of fn.Nimble_ir.Expr.body))
      0 (Irmod.functions m)
  in
  let m = timed "manifest_alloc" (Manifest_alloc.run ~device:options.target_device) m in
  lint "memory" (Nimble_analysis.Lint.memory ~planned:false) m;
  let dp_stats =
    if options.device_placement then begin
      let s = timed_stats "device_place" (fun m -> Device_place.run m) m in
      lint "device" (Nimble_analysis.Lint.device ~shape_func_device:0) m;
      s
    end
    else { Device_place.copies_inserted = 0 }
  in
  let mp_stats =
    if options.memory_plan then begin
      let s =
        timed_stats "memory_plan"
          (Memory_plan.run ~symbolic:options.symbolic_plan)
          m
      in
      lint "memory_planned" (Nimble_analysis.Lint.memory ~planned:true) m;
      s
    end
    else Memory_plan.fresh_stats ()
  in
  let m = timed "dce" Dce.run m in
  ( m,
    {
      residual_checks = infer_result.Nimble_typing.Infer.residual_checks;
      primitives;
      sites_total = cls_summary.Nimble_analysis.Classify.sites_total;
      classified_static = cls_summary.Nimble_analysis.Classify.classified_static;
      fused_across_dynamic =
        List.fold_left (fun a (_, n) -> a + n) 0 fused_per_fn;
      classify_table;
      storages_before_planning = mp_stats.Memory_plan.storages_before;
      storages_after_planning = mp_stats.Memory_plan.storages_after;
      arena_bytes = mp_stats.Memory_plan.arena_bytes;
      unplanned_bytes = mp_stats.Memory_plan.sum_bytes;
      kills_inserted = mp_stats.Memory_plan.kills_inserted;
      device_copies = dp_stats.Device_place.copies_inserted;
      instructions = 0;
      registers_before = 0;
      registers_after = 0;
      passes = List.rev !passes;
      verify = List.rev !verify_stats;
      verify_diags = !verify_diags;
    } )

(** Compile a module to a linked VM executable. *)
let compile_with_report ?(options = default_options) (m : Irmod.t) :
    Nimble_vm.Exe.t * report =
  let m, report = optimize ~options m in
  let exe =
    Emitter.emit_module
      ~options:
        {
          Emitter.dense_dispatch = options.dense_dispatch;
          profile_extern = options.profile_extern;
          guards = options.runtime_guards;
        }
      m
  in
  (* dead-register compaction: rename away dead frame slots before the
     verifier sees the final bytecode *)
  let registers_before = Nimble_analysis.Compact.register_count exe in
  let t0 = Unix.gettimeofday () in
  ignore (Nimble_analysis.Compact.run exe);
  let compact_s = Unix.gettimeofday () -. t0 in
  let registers_after = Nimble_analysis.Compact.register_count exe in
  let t0 = Unix.gettimeofday () in
  let ds = Nimble_analysis.Verifier.verify exe in
  let verify_s = Unix.gettimeofday () -. t0 in
  ( exe,
    {
      report with
      passes =
        report.passes
        @ [
            {
              pass_name = "compact_regs";
              pass_seconds = compact_s;
              nodes_before = registers_before;
              nodes_after = registers_after;
            };
          ];
      verify =
        report.verify
        @ [
            {
              verify_name = "bytecode";
              verify_seconds = verify_s;
              violations = List.length ds;
            };
          ];
      verify_diags = report.verify_diags @ ds;
      instructions = Nimble_vm.Exe.instruction_count exe;
      registers_before;
      registers_after;
    } )

let compile ?options m = fst (compile_with_report ?options m)

(** Create an interpreter over a linked executable. *)
let vm exe = Nimble_vm.Interp.create exe

(** Compile and run in one step (convenience for examples and tests). *)
let run ?options (m : Irmod.t) (inputs : Nimble_vm.Obj.t list) : Nimble_vm.Obj.t =
  let exe = compile ?options m in
  Nimble_vm.Interp.invoke (vm exe) inputs

(** Compile for the static executor (fusion only; static models only). *)
let compile_static (m : Irmod.t) : Static_exec.t =
  let m = Anf.run m in
  let m = Cse.run m in
  let m = Const_fold.run m in
  let infer_result = Nimble_typing.Infer.infer_module m in
  let m = Type_resolve.run m infer_result.Nimble_typing.Infer.solver in
  let m = Fusion.run m in
  let m = Dce.run m in
  Static_exec.plan m

let pp_report ppf (r : report) =
  Fmt.pf ppf
    "residual_checks=%d primitives=%d classified=%d/%d fused_across_dynamic=%d \
     storages=%d->%d arena=%dB (vs %dB) kills=%d copies=%d instrs=%d violations=%d"
    r.residual_checks r.primitives r.classified_static r.sites_total
    r.fused_across_dynamic r.storages_before_planning r.storages_after_planning
    r.arena_bytes r.unplanned_bytes r.kills_inserted r.device_copies r.instructions
    (List.length r.verify_diags)

let pp_classify ppf (r : report) =
  Fmt.pf ppf "%-24s %8s %8s %8s@." "function" "sites" "proven" "fused";
  List.iter
    (fun c -> Fmt.pf ppf "%-24s %8d %8d %8d@." c.cls_fn c.cls_sites c.cls_proven c.cls_fused)
    r.classify_table;
  Fmt.pf ppf "%-24s %8d %8d %8d@." "total" r.sites_total r.classified_static
    r.fused_across_dynamic

let pp_passes ppf (r : report) =
  Fmt.pf ppf "%-14s %9s %8s %8s@." "pass" "ms" "nodes" "delta";
  List.iter
    (fun p ->
      Fmt.pf ppf "%-14s %9.3f %8d %+8d@." p.pass_name (p.pass_seconds *. 1e3)
        p.nodes_after
        (p.nodes_after - p.nodes_before))
    r.passes

let report_to_json (r : report) : Nimble_vm.Json.t =
  let open Nimble_vm.Json in
  Obj
    [
      ("schema", String "nimble-compile/v1");
      ("residual_checks", Int r.residual_checks);
      ("primitives", Int r.primitives);
      ("sites_total", Int r.sites_total);
      ("classified_static", Int r.classified_static);
      ("fused_across_dynamic", Int r.fused_across_dynamic);
      ( "classify",
        List
          (List.map
             (fun c ->
               Obj
                 [
                   ("fn", String c.cls_fn);
                   ("sites_total", Int c.cls_sites);
                   ("classified_static", Int c.cls_proven);
                   ("fused_across_dynamic", Int c.cls_fused);
                 ])
             r.classify_table) );
      ("storages_before_planning", Int r.storages_before_planning);
      ("storages_after_planning", Int r.storages_after_planning);
      ("arena_bytes", Int r.arena_bytes);
      ("unplanned_bytes", Int r.unplanned_bytes);
      ("kills_inserted", Int r.kills_inserted);
      ("device_copies", Int r.device_copies);
      ("instructions", Int r.instructions);
      ("registers_before", Int r.registers_before);
      ("registers_after", Int r.registers_after);
      ( "passes",
        List
          (List.map
             (fun p ->
               Obj
                 [
                   ("name", String p.pass_name);
                   ("seconds", Float p.pass_seconds);
                   ("nodes_before", Int p.nodes_before);
                   ("nodes_after", Int p.nodes_after);
                 ])
             r.passes) );
      ( "verify",
        List
          (List.map
             (fun v ->
               Obj
                 [
                   ("name", String v.verify_name);
                   ("seconds", Float v.verify_seconds);
                   ("violations", Int v.violations);
                 ])
             r.verify) );
    ]
