(** Verifier-driven dead-register compaction (see [compact.mli]):
    backward liveness over the [If]/[Goto] CFG, an interference graph from
    live-across-definition pairs, greedy coloring with arguments precolored
    to their calling-convention slots, then an in-place register rename. *)

open Nimble_vm

(* Register sets as [int]-word bit sets: register [r] is bit
   [r mod Sys.int_size] of word [r / Sys.int_size]. A function's states
   are a handful of words, so copies stay small minor-heap blocks. *)
let words nregs = (nregs + Sys.int_size - 1) / Sys.int_size
let mem s r = s.(r / Sys.int_size) land (1 lsl (r mod Sys.int_size)) <> 0
let add s r = s.(r / Sys.int_size) <- s.(r / Sys.int_size) lor (1 lsl (r mod Sys.int_size))
let remove s r =
  s.(r / Sys.int_size) <- s.(r / Sys.int_size) land lnot (1 lsl (r mod Sys.int_size))

(* [union_into ~into s] adds [s] to [into]; true iff [into] grew. *)
let union_into ~into s =
  let changed = ref false in
  Array.iteri
    (fun w bits ->
      let joined = into.(w) lor bits in
      if joined <> into.(w) then begin
        into.(w) <- joined;
        changed := true
      end)
    s;
  !changed

(* [f r] for every member [r], in ascending order. *)
let iter_members f s =
  Array.iteri
    (fun w bits ->
      let bits = ref bits and r = ref (w * Sys.int_size) in
      while !bits <> 0 do
        if !bits land 1 <> 0 then f !r;
        bits := !bits lsr 1;
        incr r
      done)
    s

(* live_in[pc] = reads ∪ (live_out \ writes). Registers out of
   [0, nregs) are ignored (malformed code is the verifier's business, not
   ours). *)
let live_in (f : Exe.vmfunc) pc out =
  let in_bounds r = r >= 0 && r < f.Exe.register_count in
  let st = Array.copy out in
  List.iter (fun r -> if in_bounds r then remove st r) (Verifier.writes f.Exe.code.(pc));
  List.iter (fun r -> if in_bounds r then add st r) (Verifier.reads f.Exe.code.(pc));
  st

(* Backward liveness to fixpoint, live_out[pc] = ∪ live_in[succ] for every
   pc. Hosted on the shared [Dataflow] engine in [Backward] mode: the
   engine's per-node state is live_out (the in-state in flow direction),
   and every pc is seeded with bottom because dead code still gets its
   registers renamed. *)
let liveness (f : Exe.vmfunc) : int array array =
  let code = f.Exe.code in
  let len = Array.length code in
  Dataflow.solve ~direction:Dataflow.Backward ~num_nodes:len
    ~successors:(fun pc -> Verifier.successors pc code.(pc))
    ~transfer:(live_in f) ~copy:Array.copy ~join_into:union_into
    ~seeds:(List.init len (fun pc -> (pc, Array.make (words f.Exe.register_count) 0)))
  |> Array.map Option.get

let map_regs (m : int -> int) : Isa.t -> Isa.t =
  let ma = Array.map m in
  function
  | Isa.Move { src; dst } -> Isa.Move { src = m src; dst = m dst }
  | Isa.Ret { result } -> Isa.Ret { result = m result }
  | Isa.Invoke { func_index; args; dst } ->
      Isa.Invoke { func_index; args = ma args; dst = m dst }
  | Isa.InvokeClosure { closure; args; dst } ->
      Isa.InvokeClosure { closure = m closure; args = ma args; dst = m dst }
  | Isa.InvokePacked { packed_index; args; outs; upper_bound } ->
      Isa.InvokePacked { packed_index; args = ma args; outs = ma outs; upper_bound }
  | Isa.AllocStorage { size; alignment; dtype; device_id; arena; dst } ->
      Isa.AllocStorage { size = m size; alignment; dtype; device_id; arena; dst = m dst }
  | Isa.AllocTensor { storage; offset; shape; dtype; dst } ->
      Isa.AllocTensor { storage = m storage; offset; shape; dtype; dst = m dst }
  | Isa.AllocTensorReg { storage; offset; shape; dtype; plan; slot; dst } ->
      Isa.AllocTensorReg
        { storage = m storage; offset; shape = m shape; dtype; plan; slot; dst = m dst }
  | Isa.AllocADT { tag; fields; dst } -> Isa.AllocADT { tag; fields = ma fields; dst = m dst }
  | Isa.AllocClosure { func_index; captured; dst } ->
      Isa.AllocClosure { func_index; captured = ma captured; dst = m dst }
  | Isa.GetField { obj; index; dst } -> Isa.GetField { obj = m obj; index; dst = m dst }
  | Isa.GetTag { obj; dst } -> Isa.GetTag { obj = m obj; dst = m dst }
  | Isa.If { test; target; true_offset; false_offset } ->
      Isa.If { test = m test; target = m target; true_offset; false_offset }
  | Isa.Goto off -> Isa.Goto off
  | Isa.LoadConst { index; dst } -> Isa.LoadConst { index; dst = m dst }
  | Isa.LoadConsti { value; dst } -> Isa.LoadConsti { value; dst = m dst }
  | Isa.DeviceCopy { src; dst_device_id; dst } ->
      Isa.DeviceCopy { src = m src; dst_device_id; dst = m dst }
  | Isa.ShapeOf { tensor; dst } -> Isa.ShapeOf { tensor = m tensor; dst = m dst }
  | Isa.ReshapeTensor { tensor; shape; dst } ->
      Isa.ReshapeTensor { tensor = m tensor; shape = m shape; dst = m dst }
  | Isa.Fatal msg -> Isa.Fatal msg
  | Isa.BindArena { plan_index; dst } -> Isa.BindArena { plan_index; dst = m dst }

(** Compact one function: returns the renamed function, or [None] when
    nothing shrinks. *)
let compact_func (f : Exe.vmfunc) : Exe.vmfunc option =
  let code = f.Exe.code in
  let len = Array.length code in
  let nregs = f.Exe.register_count in
  let arity = f.Exe.arity in
  if len = 0 || nregs <= arity then None
  else begin
    let live_out = liveness f in
    (* Interference: a definition clobbers its slot, so the defined register
       must not share a slot with anything live across the instruction. The
       entry "instruction" defines the argument registers with live_in[0]
       live across it. *)
    let interf = Array.init nregs (fun _ -> Array.make (words nregs) 0) in
    let edge a b =
      if a <> b && a >= 0 && b >= 0 && a < nregs && b < nregs then begin
        add interf.(a) b;
        add interf.(b) a
      end
    in
    let entry_live = live_in f 0 live_out.(0) in
    for p = 0 to arity - 1 do
      iter_members (edge p) entry_live
    done;
    for pc = 0 to len - 1 do
      List.iter (fun d -> iter_members (edge d) live_out.(pc)) (Verifier.writes code.(pc))
    done;
    (* Greedy coloring, arguments precolored to their entry slots. *)
    let color = Array.make nregs (-1) in
    for p = 0 to arity - 1 do
      color.(p) <- p
    done;
    for r = arity to nregs - 1 do
      let taken = Array.make (words nregs) 0 in
      iter_members (fun o -> if color.(o) >= 0 then add taken color.(o)) interf.(r);
      let c = ref 0 in
      while mem taken !c do incr c done;
      color.(r) <- !c
    done;
    let new_count =
      Array.fold_left (fun acc c -> max acc (c + 1)) arity color
    in
    if new_count >= nregs then None
    else
      Some
        {
          f with
          Exe.register_count = new_count;
          code = Array.map (map_regs (fun r -> if r >= 0 && r < nregs then color.(r) else r)) code;
        }
  end

(** Compact every function of [exe] in place; returns the total number of
    register slots removed. *)
let run (exe : Exe.t) : int =
  let removed = ref 0 in
  Array.iteri
    (fun i f ->
      match compact_func f with
      | None -> ()
      | Some f' ->
          removed := !removed + (f.Exe.register_count - f'.Exe.register_count);
          exe.Exe.funcs.(i) <- f')
    exe.Exe.funcs;
  !removed

(** Total register slots across all functions (the before/after metric of
    the compile report). *)
let register_count (exe : Exe.t) : int =
  Array.fold_left (fun acc f -> acc + f.Exe.register_count) 0 exe.Exe.funcs
