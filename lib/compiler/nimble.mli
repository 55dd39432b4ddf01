(** Public compiler facade: the end-to-end pipeline of the paper's Figure 2.

    {[
      let exe = Nimble.compile my_module in
      let vm = Nimble.vm exe in
      Nimble_vm.Interp.run_tensors vm [ input ]
    ]} *)

(** Compilation options. Every switch corresponds to a pass or codegen
    strategy evaluated in the paper; defaults enable everything. *)
type options = {
  target_device : int;  (** 0 = host CPU, 1 = simulated GPU *)
  fuse : bool;  (** operator fusion (dynamic policy, §4.2) *)
  classify : bool;
      (** shape-value dominance classification ([Nimble_analysis.Classify]):
          prove data-dependent sites static at compile time so fusion and
          memory planning can cross formerly dynamic boundaries; results
          land in the report's classification table. On by default *)
  memory_plan : bool;  (** storage coalescing + kill insertion (§4.3) *)
  symbolic_plan : bool;
      (** fold bindable dynamic allocations into per-device symbolic memory
          plans — offsets/sizes as expressions over the function's symbolic
          dims, bound once per request by the VM's [BindArena] and reused
          via a persistent arena when serving (see [docs/MEMORY.md]); only
          meaningful with [memory_plan] on *)
  device_placement : bool;  (** heterogeneous placement (§4.4) *)
  dense_dispatch : int option;
      (** residue-dispatch kernel count for dense (§4.5); [None] = reference
          library-style kernel *)
  profile_extern : bool;
      (** profile generated vs third-party kernels and route dense to
          whichever is faster (§4.5) *)
  runtime_guards : bool;
      (** emit gradual-typing entry guards (§4.1): residual checks on the
          entry functions' tensor parameters — concrete dims, identical-Any
          equalities, dtypes — enforced by the VM at the API boundary and
          surfaced as [Shape_guard] failures (see [docs/ROBUSTNESS.md]) *)
}

val default_options : options

(** One pipeline stage's contribution to the compile report: its wall time
    and the IR-size delta it caused. IR size is the total expression-node
    count over the module's functions ({!ir_size}) — fusion grows it,
    DCE/CSE shrink it, pure analyses (inference, inlining stats) leave it
    unchanged. The one exception is the first ["anf"] row's
    [nodes_before]: the builder's module is a DAG, so it counts each
    shared node once, by physical identity, as ANF's memo does
    ({!Nimble_passes.Anf.dag_size}). *)
type pass_stat = {
  pass_name : string;  (** e.g. ["anf"], ["fusion"]; ["dce"] appears twice *)
  pass_seconds : float;  (** wall-clock time of the pass *)
  nodes_before : int;
  nodes_after : int;
}

(** One verification check's contribution to the report: the check name
    (["fusion"], ["memory"], ["device"], ["memory_planned"], ["bytecode"]),
    its wall time, and how many violations it found — zero everywhere on a
    healthy pipeline. *)
type verify_stat = {
  verify_name : string;
  verify_seconds : float;
  violations : int;
}

(** One function's row in the operator-classification table: how many call
    sites have data-dependent/upper-bound shape functions, how many of
    those the dominance pass proved static, and how many fused groups ended
    up crossing a proven boundary. *)
type classify_stat = {
  cls_fn : string;
  cls_sites : int;  (** data-dependent / upper-bound op call sites *)
  cls_proven : int;  (** sites proven static by shape-value dominance *)
  cls_fused : int;  (** fused groups crossing a proven dynamic boundary *)
}

(** Per-compile statistics surfaced for tests, benches and the CLI. *)
type report = {
  residual_checks : int;  (** runtime type checks deferred by gradual typing *)
  primitives : int;  (** fused kernels after the fusion pass *)
  sites_total : int;  (** classification candidates across all functions *)
  classified_static : int;  (** dominance-proven sites across all functions *)
  fused_across_dynamic : int;
      (** fused groups containing a proven formerly-dynamic site *)
  classify_table : classify_stat list;  (** per-function classification *)
  storages_before_planning : int;
  storages_after_planning : int;
  arena_bytes : int;  (** coalesced arena footprint *)
  unplanned_bytes : int;  (** what the un-coalesced storages added up to *)
  kills_inserted : int;
  device_copies : int;
  instructions : int;  (** emitted bytecode size *)
  registers_before : int;
      (** register slots across all functions as emitted, before
          dead-register compaction *)
  registers_after : int;
      (** register slots after dead-register compaction
          ([Nimble_analysis.Compact]), which every compile runs; equals
          [registers_before] when nothing shrank *)
  passes : pass_stat list;  (** per-pass timings and deltas, pipeline order *)
  verify : verify_stat list;
      (** per-check verification stats in run order: every compile runs
          the [Nimble_analysis] dialect lints after each lowering pass
          (fusion policy, memory dialect, device placement) and the
          bytecode verifier on the emitted executable (see
          [docs/ANALYSIS.md]) *)
  verify_diags : Nimble_analysis.Diag.t list;
      (** every violation the checks found, for diagnostics printing *)
}

(** Total expression nodes across the module's functions — the "IR size"
    tracked by {!pass_stat} deltas. *)
val ir_size : Nimble_ir.Irmod.t -> int

(** Run the pass pipeline only (no bytecode emission): ANF, inlining, CSE,
    constant folding, DCE, type inference with [Any], fusion, manifest
    allocation, device placement, memory planning. *)
val optimize : ?options:options -> Nimble_ir.Irmod.t -> Nimble_ir.Irmod.t * report

(** Compile a module to a linked VM executable, with the report. *)
val compile_with_report :
  ?options:options -> Nimble_ir.Irmod.t -> Nimble_vm.Exe.t * report

(** Compile a module to a linked VM executable. *)
val compile : ?options:options -> Nimble_ir.Irmod.t -> Nimble_vm.Exe.t

(** Create an interpreter over a linked executable. *)
val vm : Nimble_vm.Exe.t -> Nimble_vm.Interp.t

(** Compile and invoke [main] in one step (convenience). *)
val run :
  ?options:options -> Nimble_ir.Irmod.t -> Nimble_vm.Obj.t list -> Nimble_vm.Obj.t

(** Compile for the TVM-style static graph executor (static models only —
    the Table 4 baseline). *)
val compile_static : Nimble_ir.Irmod.t -> Static_exec.t

val pp_report : Format.formatter -> report -> unit

(** Render the per-pass table (pass, ms, nodes after, node delta). *)
val pp_passes : Format.formatter -> report -> unit

(** Render the per-function classification table (sites, proven, fused). *)
val pp_classify : Format.formatter -> report -> unit

(** The compile report as [nimble-compile/v1] JSON: the scalar fields of
    {!report} plus a [passes] array of
    [{name, seconds, nodes_before, nodes_after}] objects and a [verify]
    array of [{name, seconds, violations}] objects. See
    [docs/OBSERVABILITY.md]. *)
val report_to_json : report -> Nimble_vm.Json.t
