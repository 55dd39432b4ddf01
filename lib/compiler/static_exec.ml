(** Static graph executor — the stand-in for TVM's conventional runtime in
    the Table 4 comparison.

    It runs a fused module's [main] through the same link-time compiler as
    the VM's kernels ({!Nimble_codegen.Lower.compile}), with each primitive
    callee resolved to its kernel: no bytecode dispatch, no shape
    functions, no dynamic allocation instructions, no device bookkeeping.
    It only works when the model is static (no control flow, no ADTs) —
    exactly the limitation the paper ascribes to conventional
    deep-learning runtimes. *)

open Nimble_tensor
open Nimble_ir
open Nimble_passes
module Lower = Nimble_codegen.Lower

exception Static_error of string

let err fmt = Fmt.kstr (fun s -> raise (Static_error s)) fmt

type t = Tensor.t list -> Tensor.t Lower.value

(** Compile a fused module's main function into a static runner. *)
let plan (m : Irmod.t) : t =
  let call callee _attrs =
    match callee with
    | Expr.Fn prim when Fusion.is_primitive prim ->
        (* static shapes: dense lowers to the same residue-specialized
           kernels Nimble's symbolic codegen produces, so the Table 4
           comparison isolates runtime overhead, not kernel quality *)
        let dispatch =
          if List.mem "dense" (Fusion.primitive_ops prim) then
            Some (Nimble_codegen.Dispatch.create ~num_kernels:8 ())
          else None
        in
        let kernel = Lower.lower ?dispatch ~name:(Fusion.primitive_name prim) prim in
        fun args -> Lower.outputs (Array.to_list (kernel args [||]))
    | e -> err "static executor: unsupported callee %a" Expr.pp e
  in
  Lower.compile
    ~error:(fun s -> Static_error s)
    ~name:"static executor" ~const:Fun.id ~call (Irmod.func_exn m "main")

(** Execute the runner on the module's inputs. *)
let run (t : t) (inputs : Tensor.t list) : Tensor.t =
  match t inputs with
  | Lower.Leaf x -> x
  | Lower.Tuple _ -> err "static executor: expected a tensor result"
