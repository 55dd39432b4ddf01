(** Operator fusion with the dynamic-shape fusion policy (paper §4.2).

    Kernel-op calls are wrapped into {e primitives} (functions marked
    [Primitive] containing pure operator dataflow — the unit the VM invokes
    via [InvokePacked]); pairwise merging to fixpoint then fuses a producer
    primitive into its single consumer when the TVM-style operator-pattern
    lattice allows it {e and} every op on both sides has a data-independent
    shape function — an op whose shape function needs values (arange,
    unique, nms) would need access to intermediate results of the fused
    group, so it must stay un-fused. *)

open Nimble_ir

(** Can a producer group with pattern [producer] fuse into a consumer with
    pattern [consumer]? Returns the combined pattern. *)
val combine : producer:Op.pattern -> consumer:Op.pattern -> Op.pattern option

(** Whether a function is a fusion-produced primitive. *)
val is_primitive : Expr.fn -> bool

(** The primitive's kernel name, [fused_<ops>_<i>]: unique within its
    module and a function of the module alone ([i] counts the module's
    primitives in creation order), so any compile of a module can relink a
    decoded copy of it by name. *)
val primitive_name : Expr.fn -> string

(** The operator names fused into the primitive, in dataflow order. *)
val primitive_ops : Expr.fn -> string list

(** The primitive's combined operator pattern. *)
val primitive_pattern : Expr.fn -> Op.pattern

(** Every op in the primitive has a data-independent shape function. *)
val data_independent : Expr.fn -> bool

(** Run fusion over every function in a module (each body in ANF).
    [merge = false] only wraps ops into singleton primitives without
    fusing — the no-fusion ablation. *)
val run : ?merge:bool -> Irmod.t -> Irmod.t

(** All primitives appearing in an expression, in occurrence order. *)
val primitives_of : Expr.t -> Expr.fn list
