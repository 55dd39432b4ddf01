(** IR-dialect lints: well-formedness checks for the mid-level dialects the
    lowering passes introduce, run after each pass on every compile. Each
    lint re-checks the invariant its pass is supposed to establish, so a
    pass regression surfaces as a located diagnostic right after the pass
    instead of as a miscompiled executable three passes later. See [docs/ANALYSIS.md]. *)

open Nimble_ir

(** Fusion-policy lint (run after [Fusion], paper §4.2): every fused
    primitive with more than one member op must be data-independent — an op
    whose shape function needs {e values} may not be grouped, because the
    shape function would need access to intermediate results of the fused
    group. Diagnostics are located at [function/primitive_name]. *)
val fusion : Irmod.t -> Diag.t list

(** Memory-dialect lint (run after [Manifest_alloc] and again, with
    [planned:true], after [Memory_plan]; paper §4.3):

    - [memory.alloc_tensor] storage operands name a [memory.alloc_storage]
      (or arena) binding;
    - [memory.invoke_mut] / [memory.invoke_shape_func] destination operands
      (the arguments past the [num_inputs] prefix) name manifestly
      allocated tensors;
    - no tensor is used after a [memory.kill] of its binding, no tensor is
      killed twice, and only tensors are killed.

    With [planned:true] it additionally checks the planner's contract:

    - every dynamically-allocated (non-arena) tensor that does not escape
      the region is killed after its last use (no leaks);
    - arena offsets do not overlap for tensors whose (alias-aware) liveness
      intervals intersect — the first-fit packing is collision-free;
    - every [memory.bind_arena] decodes through
      [Nimble_shape.Arena_plan.of_attrs] and passes {!Plan_check.check},
      and symbolic [plan_slot] indices are within the plan's slots.

    Branches are checked as sub-regions, mirroring the planner. *)
val memory : ?planned:bool -> Irmod.t -> Diag.t list

(** Device-placement lint (run after [Device_place], paper §4.4): replays
    the placement rules over the placed module and reports any value used
    on a device other than the one it lives on without an intervening
    [device_copy] — shape functions and their operands on
    [shape_func_device] (default CPU, matching the pass), kernel operands
    on the kernel's device, storage on its designated device, control-flow
    scalars and constants on CPU. *)
val device : ?shape_func_device:int -> Irmod.t -> Diag.t list
