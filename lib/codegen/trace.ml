(** Execution trace hook.

    Every executor in the repo (the VM's lowered kernels, the baseline
    frameworks' eager dispatch) reports the operators it actually runs
    through this sink. The performance simulator installs a listener and
    replays the trace against per-platform cost models; when no listener is
    installed the overhead is a single ref read. *)

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

let sink : listener option ref = ref None

let install l = sink := Some l
let remove () = sink := None

let with_listener l f =
  let saved = !sink in
  sink := Some l;
  Fun.protect ~finally:(fun () -> sink := saved) f

let enabled () = !sink <> None

let emit ev = match !sink with Some f -> f ev | None -> ()

let bytes descs =
  List.fold_left (fun acc (s, dt) -> acc + (Shape.numel s * Dtype.size_in_bytes dt)) 0 descs

(** Record execution of operator [op] from the shape and dtype of each
    input and output. *)
let record_shapes op ~attrs ins outs =
  match !sink with
  | None -> ()
  | Some f ->
      let in_shapes = List.map fst ins and out_shapes = List.map fst outs in
      f
        (Op_exec
           {
             op;
             in_shapes;
             out_shapes;
             flops = Op_eval.flops op ~attrs in_shapes out_shapes;
             bytes = bytes ins + bytes outs;
           })

let desc t = (Tensor.shape t, Tensor.dtype t)

(** Record execution of operator [op] on concrete tensors. *)
let record_op op ~attrs (ins : Tensor.t list) (outs : Tensor.t list) =
  if !sink <> None then record_shapes op ~attrs (List.map desc ins) (List.map desc outs)

let record_framework kind ?(amount = 1) () =
  match !sink with None -> () | Some f -> f (Framework { kind; amount })

(** Run an operator through {!Op_eval} and trace it: the standard entry
    point for every interpreter in the repo. *)
let eval_op op ~attrs ins =
  let outs = Op_eval.eval op ~attrs ins in
  record_op op ~attrs ins outs;
  outs
