(** Execution trace hook shared by every executor in the repo.

    The VM's lowered kernels and the baseline frameworks' dispatchers report
    the operators they actually run (plus framework-side actions) through
    this sink; the performance simulator installs a listener and replays the
    trace against per-platform cost models. With no listener installed the
    overhead is one ref read per event site. *)

open Nimble_tensor

type event =
  | Op_exec of {
      op : string;
      in_shapes : Shape.t list;
      out_shapes : Shape.t list;
      flops : int;
      bytes : int;  (** memory traffic estimate: inputs + outputs *)
    }
  | Framework of { kind : string; amount : int }
      (** framework-side action: graph node built, op dispatched,
          recompilation unit, control-flow primitive executed, ... *)

type listener = event -> unit

(** Install [l] as the process-wide trace listener (replacing any). *)
val install : listener -> unit

(** Uninstall the current listener; event sites go back to one ref read. *)
val remove : unit -> unit

(** Run [f] with [l] installed, restoring the previous listener after. *)
val with_listener : listener -> (unit -> 'a) -> 'a

(** Whether a listener is currently installed. *)
val enabled : unit -> bool

(** Send one event to the installed listener, if any. *)
val emit : event -> unit

(** Record execution of operator [op] from the shape and dtype of each
    input and output (flops and bytes are derived from them) — what a
    staged kernel reports for an operator whose result was never a
    tensor. *)
val record_shapes :
  string ->
  attrs:Nimble_ir.Attrs.t ->
  (Shape.t * Dtype.t) list ->
  (Shape.t * Dtype.t) list ->
  unit

(** Record execution of operator [op] on concrete tensors (flops and bytes
    are derived from the shapes). *)
val record_op :
  string -> attrs:Nimble_ir.Attrs.t -> Tensor.t list -> Tensor.t list -> unit

(** Record a framework-side action ([kind], default [amount] 1). *)
val record_framework : string -> ?amount:int -> unit -> unit

(** Run an operator through {!Op_eval} and trace it — the standard entry
    point for every interpreter in the repo. *)
val eval_op : string -> attrs:Nimble_ir.Attrs.t -> Tensor.t list -> Tensor.t list
