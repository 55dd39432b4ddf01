(** Bytecode verifier (see [verifier.mli]): structural index checks plus a
    worklist dataflow over the [If]/[Goto] CFG proving def-before-use and
    alloc-backed kernel destinations on every path. *)

open Nimble_vm

exception Verify_error of Diag.t list

(* Abstract register value for the must-analysis. [Unset] = not defined on
   every path reaching this point; the join of two different defined values
   degrades to the generic [Val]. [Adt] tracks the field count of a locally
   visible allocation site so [GetField] indices can be bounds-checked. *)
type aval = Unset | Val | Storage | Talloc | Adt of int

let join a b =
  match (a, b) with
  | Unset, _ | _, Unset -> Unset
  | Val, Val -> Val
  | Storage, Storage -> Storage
  | Talloc, Talloc -> Talloc
  | Adt n, Adt m when n = m -> Adt n
  | _ -> Val

(* Keep in sync with the [Isa.t] constructor count; the exhaustiveness pin
   in [test/test_analysis.ml] fails the suite when they drift. *)
let handled_opcodes = 21

let num_devices = List.length Nimble_device.Device.all

(* Registers an instruction reads / writes, for bounds and liveness. *)
let reads : Isa.t -> int list = function
  | Isa.Move { src; _ } -> [ src ]
  | Isa.Ret { result } -> [ result ]
  | Isa.Invoke { args; _ } -> Array.to_list args
  | Isa.InvokeClosure { closure; args; _ } -> closure :: Array.to_list args
  | Isa.InvokePacked { args; outs; _ } -> Array.to_list args @ Array.to_list outs
  | Isa.AllocStorage { size; _ } -> [ size ]
  | Isa.AllocTensor { storage; _ } -> [ storage ]
  | Isa.AllocTensorReg { storage; shape; _ } -> [ storage; shape ]
  | Isa.AllocADT { fields; _ } -> Array.to_list fields
  | Isa.AllocClosure { captured; _ } -> Array.to_list captured
  | Isa.GetField { obj; _ } -> [ obj ]
  | Isa.GetTag { obj; _ } -> [ obj ]
  | Isa.If { test; target; _ } -> [ test; target ]
  | Isa.Goto _ -> []
  | Isa.LoadConst _ -> []
  | Isa.LoadConsti _ -> []
  | Isa.DeviceCopy { src; _ } -> [ src ]
  | Isa.ShapeOf { tensor; _ } -> [ tensor ]
  | Isa.ReshapeTensor { tensor; shape; _ } -> [ tensor; shape ]
  | Isa.Fatal _ -> []
  | Isa.BindArena _ -> []

let writes : Isa.t -> int list = function
  | Isa.Move { dst; _ }
  | Isa.Invoke { dst; _ }
  | Isa.InvokeClosure { dst; _ }
  | Isa.AllocStorage { dst; _ }
  | Isa.AllocTensor { dst; _ }
  | Isa.AllocTensorReg { dst; _ }
  | Isa.AllocADT { dst; _ }
  | Isa.AllocClosure { dst; _ }
  | Isa.GetField { dst; _ }
  | Isa.GetTag { dst; _ }
  | Isa.LoadConst { dst; _ }
  | Isa.LoadConsti { dst; _ }
  | Isa.DeviceCopy { dst; _ }
  | Isa.ShapeOf { dst; _ }
  | Isa.BindArena { dst; _ } ->
      [ dst ]
  | Isa.ReshapeTensor { dst; _ } -> [ dst ]
  | Isa.Ret _ | Isa.InvokePacked _ | Isa.If _ | Isa.Goto _ | Isa.Fatal _ -> []

(* Relative successors; [None] entries mean fallthrough to [pc + 1]. *)
let successors pc : Isa.t -> int list = function
  | Isa.Ret _ | Isa.Fatal _ -> []
  | Isa.Goto off -> [ pc + off ]
  | Isa.If { true_offset; false_offset; _ } ->
      [ pc + true_offset; pc + false_offset ]
  | _ -> [ pc + 1 ]

(* ------------------------------------------------------------------ *)

(* Transfer function of the register must-analysis, shared by the
   per-function verification and the cross-function ADT summaries. *)
let transfer_instr ~nregs instr (st : aval array) : aval array =
  let st = Array.copy st in
  let in_bounds r = r >= 0 && r < nregs in
  let set r v = if in_bounds r then st.(r) <- v in
  (match instr with
  | Isa.Move { src; dst } -> set dst (if in_bounds src then st.(src) else Val)
  | Isa.AllocStorage { dst; _ } | Isa.BindArena { dst; _ } -> set dst Storage
  | Isa.AllocTensor { dst; _ } | Isa.AllocTensorReg { dst; _ } -> set dst Talloc
  | Isa.AllocADT { fields; dst; _ } -> set dst (Adt (Array.length fields))
  | Isa.GetTag { obj; dst } ->
      (* the tag is being dispatched on: downstream field reads are
         guarded by a tag test this analysis cannot see, so forget the
         allocation-site field count to avoid false positives *)
      (if in_bounds obj then match st.(obj) with Adt _ -> st.(obj) <- Val | _ -> ());
      set dst Val
  | _ -> List.iter (fun r -> set r Val) (writes instr));
  st

(* Entry state with the given abstract values for the argument registers
   (callers pass all-[Val] when nothing is known about the caller). *)
let entry_state (f : Exe.vmfunc) (params : aval array) : aval array =
  let nregs = f.Exe.register_count in
  let entry = Array.make (max nregs 1) Unset in
  for r = 0 to min f.Exe.arity nregs - 1 do
    entry.(r) <- (if r < Array.length params then params.(r) else Val)
  done;
  entry

(* Fixpoint in-states of one function under the given entry; [None] =
   unreachable. Empty array for an empty body. *)
let func_states (exe : Exe.t) (fi : int) (entry : aval array) :
    aval array option array =
  let f = exe.Exe.funcs.(fi) in
  let code = f.Exe.code in
  let len = Array.length code in
  let nregs = f.Exe.register_count in
  if len = 0 then [||]
  else
    Dataflow.solve ~direction:Dataflow.Forward ~num_nodes:len
      ~successors:(fun pc -> successors pc code.(pc))
      ~transfer:(fun pc st -> transfer_instr ~nregs code.(pc) st)
      ~copy:Array.copy
      ~join_into:(fun ~into out ->
        let changed = ref false in
        Array.iteri
          (fun r v ->
            let j = join v out.(r) in
            if j <> v then begin
              into.(r) <- j;
              changed := true
            end)
          into;
        !changed)
      ~seeds:[ (0, entry) ]

let verify_func (exe : Exe.t) (fi : int) : Diag.t list =
  let f = exe.Exe.funcs.(fi) in
  let code = f.Exe.code in
  let len = Array.length code in
  let nregs = f.Exe.register_count in
  let diags = ref [] in
  let report pc fmt =
    Fmt.kstr
      (fun reason ->
        diags := Diag.v ~check:"bytecode" ~where_:f.Exe.name ~pc reason :: !diags)
      fmt
  in
  if len = 0 then report (-1) "empty function body (no terminating Ret)";
  if f.Exe.arity > nregs then
    report (-1) "arity %d exceeds register count %d" f.Exe.arity nregs;
  (* ---- structural checks: operand bounds, jump targets, indices ---- *)
  Array.iteri
    (fun pc instr ->
      List.iter
        (fun r ->
          if r < 0 || r >= nregs then
            report pc "register $%d out of bounds (register_count %d) in %a" r
              nregs Isa.pp instr)
        (reads instr @ writes instr);
      List.iter
        (fun t ->
          if t < 0 || t >= len then
            report pc "jump target %d out of bounds (code length %d)" t len)
        (successors pc instr);
      (match instr with
      | _ when successors pc instr = [ pc + 1 ] && pc + 1 >= len ->
          report pc "falls through the end of the function (%a)" Isa.pp instr
      | _ -> ());
      match instr with
      | Isa.Invoke { func_index; args; _ } ->
          if func_index < 0 || func_index >= Array.length exe.Exe.funcs then
            report pc "function index %d out of bounds (%d functions)"
              func_index (Array.length exe.Exe.funcs)
          else begin
            let callee = exe.Exe.funcs.(func_index) in
            if Array.length args <> callee.Exe.arity then
              report pc "calls %s with %d arguments (arity %d)" callee.Exe.name
                (Array.length args) callee.Exe.arity
          end
      | Isa.AllocClosure { func_index; captured; _ } ->
          if func_index < 0 || func_index >= Array.length exe.Exe.funcs then
            report pc "closure function index %d out of bounds (%d functions)"
              func_index (Array.length exe.Exe.funcs)
          else begin
            let callee = exe.Exe.funcs.(func_index) in
            if Array.length captured > callee.Exe.arity then
              report pc "closure captures %d values but %s has arity %d"
                (Array.length captured) callee.Exe.name callee.Exe.arity
          end
      | Isa.InvokePacked { packed_index; _ } ->
          if packed_index < 0 || packed_index >= Array.length exe.Exe.packed_names
          then
            report pc "packed index %d out of bounds (%d packed functions)"
              packed_index
              (Array.length exe.Exe.packed_names)
      | Isa.LoadConst { index; _ } ->
          if index < 0 || index >= Array.length exe.Exe.constants then
            report pc "constant index %d out of bounds (%d constants)" index
              (Array.length exe.Exe.constants)
      | Isa.AllocStorage { device_id; _ } ->
          if device_id < 0 || device_id >= num_devices then
            report pc "device id %d out of bounds (%d devices)" device_id
              num_devices
      | Isa.DeviceCopy { dst_device_id; _ } ->
          if dst_device_id < 0 || dst_device_id >= num_devices then
            report pc "device id %d out of bounds (%d devices)" dst_device_id
              num_devices
      | Isa.GetField { index; _ } ->
          if index < 0 then report pc "negative field index %d" index
      | Isa.AllocTensorReg { plan; slot; _ } ->
          if plan >= 0 then begin
            if plan >= Array.length exe.Exe.plans then
              report pc "plan index %d out of bounds (%d plans)" plan
                (Array.length exe.Exe.plans)
            else
              let nslots = Array.length exe.Exe.plans.(plan).Exe.p_arena.slots in
              if slot < 0 || slot >= nslots then
                report pc "slot %d out of bounds (plan%d has %d slots)" slot plan nslots
          end
          else if slot >= 0 then report pc "slot %d without a plan" slot
      | Isa.BindArena { plan_index; _ } ->
          if plan_index < 0 || plan_index >= Array.length exe.Exe.plans then
            report pc "plan index %d out of bounds (%d plans)" plan_index
              (Array.length exe.Exe.plans)
          else begin
            let { Exe.p_func; p_arena } = exe.Exe.plans.(plan_index) in
            if p_func <> fi then report pc "plan%d belongs to fn%d" plan_index p_func;
            Array.iter
              (fun { Nimble_shape.Arena_plan.b_arg; _ } ->
                if b_arg >= f.Exe.arity then
                  report pc "plan%d binder reads argument %d (arity %d)" plan_index
                    b_arg f.Exe.arity)
              p_arena.binders
          end
      | _ -> ())
    code;
  (* ---- dataflow: def-before-use and alloc-backing on every path ---- *)
  let in_bounds r = r >= 0 && r < nregs in
  if len > 0 && nregs >= 0 then begin
    let entry = entry_state f (Array.make f.Exe.arity Val) in
    let in_states = func_states exe fi entry in
    (* final pass over reachable instructions with their fixpoint states *)
    Array.iteri
      (fun pc instr ->
        match in_states.(pc) with
        | None -> () (* unreachable: nothing can go wrong at runtime *)
        | Some st ->
            List.iter
              (fun r ->
                if in_bounds r && st.(r) = Unset then
                  report pc "read of register $%d not defined on every path (%a)"
                    r Isa.pp instr)
              (reads instr);
            (match instr with
            | Isa.InvokePacked { outs; _ } ->
                Array.iter
                  (fun r ->
                    if in_bounds r && st.(r) <> Unset && st.(r) <> Talloc then
                      report pc
                        "out register $%d is not backed by a prior tensor \
                         allocation"
                        r)
                  outs
            | Isa.AllocTensor { storage; _ } | Isa.AllocTensorReg { storage; _ }
              ->
                if
                  in_bounds storage
                  && (match st.(storage) with
                     | Talloc | Adt _ -> true
                     | _ -> false)
                then
                  report pc "storage operand $%d does not hold a storage" storage
            | Isa.GetField { obj; index; _ } -> (
                if in_bounds obj then
                  match st.(obj) with
                  | Adt n when index >= n ->
                      report pc "field index %d out of bounds for a %d-field ADT"
                        index n
                  | _ -> ())
            | _ -> ()))
      code
  end;
  (* ---- entry guards must name real argument positions ---- *)
  let gs = Exe.guards exe in
  if fi < Array.length gs then
    Array.iter
      (fun (g : Exe.guard) ->
        if g.Exe.g_arg < 0 || g.Exe.g_arg >= f.Exe.arity then
          report (-1) "guard on %s names argument %d (arity %d)" g.Exe.g_name
            g.Exe.g_arg f.Exe.arity)
      gs.(fi);
  List.rev !diags

(* ---- cross-function ADT arity (Invoke / closure boundaries) ------- *)

(* What a callee's parameter is known to hold, joined over every visible
   call site. [PBot] = no visible call site reaches this parameter — the
   function is only invocable externally (the interpreter accepts any
   function by name), so nothing may be assumed. The per-function pass
   above checks [GetField] against locally visible [AllocADT] sites only;
   here allocation-site field counts are propagated through [Invoke]
   arguments and [AllocClosure] captured prefixes so a field read of a
   constructor built in the caller is bounds-checked too. Parameters past
   a closure's captured prefix are filled at [InvokeClosure] sites whose
   arguments this summary does not track, so they degrade to [PVal]. *)
type psum = PBot | PVal | PAdt of int

let pjoin a b =
  match (a, b) with
  | PBot, x | x, PBot -> x
  | PAdt n, PAdt m when n = m -> PAdt n
  | _ -> PVal

let psum_of_aval = function Adt n -> PAdt n | _ -> PVal

(* One collection sweep: join every visible call site's argument values
   into the callee summaries, reading each caller's fixpoint in-states. *)
let collect_summaries (exe : Exe.t) (states_of : int -> aval array option array)
    : psum array array =
  let nf = Array.length exe.Exe.funcs in
  let sums =
    Array.map (fun (f : Exe.vmfunc) -> Array.make (max f.Exe.arity 0) PBot)
      exe.Exe.funcs
  in
  Array.iteri
    (fun fi (f : Exe.vmfunc) ->
      let sts = states_of fi in
      let arg_val st r =
        if r >= 0 && r < Array.length st then psum_of_aval st.(r) else PVal
      in
      Array.iteri
        (fun pc instr ->
          if pc < Array.length sts then
            match sts.(pc) with
            | None -> () (* unreachable call site *)
            | Some st -> (
                match instr with
                | Isa.Invoke { func_index; args; _ }
                  when func_index >= 0 && func_index < nf ->
                    let cs = sums.(func_index) in
                    Array.iteri
                      (fun k a ->
                        if k < Array.length cs then
                          cs.(k) <- pjoin cs.(k) (arg_val st a))
                      args
                | Isa.AllocClosure { func_index; captured; _ }
                  when func_index >= 0 && func_index < nf ->
                    let cs = sums.(func_index) in
                    Array.iteri
                      (fun k a ->
                        if k < Array.length cs then
                          cs.(k) <- pjoin cs.(k) (arg_val st a))
                      captured;
                    for k = Array.length captured to Array.length cs - 1 do
                      cs.(k) <- PVal
                    done
                | _ -> ()))
        f.Exe.code)
    exe.Exe.funcs;
  sums

let refined_entry (f : Exe.vmfunc) (sum : psum array) : aval array =
  entry_state f
    (Array.map (function PAdt n -> Adt n | _ -> Val) sum)

(* How many collection rounds to run. One round sees direct caller →
   callee edges; each further round lets allocation-site facts flow one
   call deeper (f builds the ADT, passes it to g, g forwards it to h).
   Summaries only sharpen entries that the baseline treated as [Val], so
   a small bound is enough in practice. *)
let summary_rounds = 3

let verify_cross_adt (exe : Exe.t) : Diag.t list =
  let nf = Array.length exe.Exe.funcs in
  let baseline =
    Array.init nf (fun fi ->
        lazy
          (func_states exe fi
             (entry_state exe.Exe.funcs.(fi)
                (Array.make exe.Exe.funcs.(fi).Exe.arity Val))))
  in
  let sums = ref (collect_summaries exe (fun fi -> Lazy.force baseline.(fi))) in
  for _ = 2 to summary_rounds do
    sums :=
      collect_summaries exe (fun fi ->
          func_states exe fi (refined_entry exe.Exe.funcs.(fi) !sums.(fi)))
  done;
  let sums = !sums in
  let diags = ref [] in
  Array.iteri
    (fun fi (f : Exe.vmfunc) ->
      if Array.exists (function PAdt _ -> true | _ -> false) sums.(fi) then begin
        let base = Lazy.force baseline.(fi) in
        let refined = func_states exe fi (refined_entry f sums.(fi)) in
        let nregs = f.Exe.register_count in
        Array.iteri
          (fun pc instr ->
            match instr with
            | Isa.GetField { obj; index; _ }
              when obj >= 0 && obj < nregs && pc < Array.length refined -> (
                match (refined.(pc), base.(pc)) with
                | Some rst, Some bst -> (
                    match (rst.(obj), bst.(obj)) with
                    | Adt _, Adt _ ->
                        () (* locally visible: the per-function pass owns it *)
                    | Adt n, _ when index >= n ->
                        diags :=
                          Diag.v ~check:"bytecode" ~where_:f.Exe.name ~pc
                            (Fmt.str
                               "field index %d out of bounds for a %d-field \
                                ADT constructed by a caller"
                               index n)
                          :: !diags
                    | _ -> ())
                | _ -> ())
            | _ -> ())
          f.Exe.code
      end)
    exe.Exe.funcs;
  List.rev !diags

(* ---- symbolic memory plans: the dialect's soundness obligations ---- *)

let verify_plans (exe : Exe.t) : Diag.t list =
  let nfuncs = Array.length exe.Exe.funcs in
  List.concat
    (List.mapi
       (fun pi { Exe.p_func; p_arena } ->
         let diag reason =
           Diag.v ~check:"memory_plan" ~where_:(Fmt.str "plan%d" pi) ~pc:(-1) reason
         in
         (if p_func < 0 || p_func >= nfuncs then
            [ diag (Fmt.str "function index %d out of bounds (%d functions)" p_func nfuncs) ]
          else [])
         @ List.map diag (Plan_check.check p_arena))
       (Array.to_list exe.Exe.plans))

(* ---- persisted autotune decisions (NMBLEXE4 tune table) ---- *)

let verify_tunes (exe : Exe.t) : Diag.t list =
  let diags = ref [] in
  let seen = Hashtbl.create 8 in
  Array.iteri
    (fun ti (tn : Exe.tune) ->
      let report fmt =
        Fmt.kstr
          (fun reason ->
            diags :=
              Diag.v ~check:"tune_table" ~where_:(Fmt.str "tune%d" ti) ~pc:(-1)
                reason
              :: !diags)
          fmt
      in
      (match
         Array.find_opt
           (fun (n, _) -> String.equal n tn.Exe.tn_kernel)
           exe.Exe.packed_names
       with
      | Some (_, `Kernel) -> ()
      | Some (_, `Shape_func) ->
          report "%s is a shape function, not a kernel" tn.Exe.tn_kernel
      | None -> report "no packed kernel named %s" tn.Exe.tn_kernel);
      if tn.Exe.tn_extent <= 0 then
        report "extent %d is not positive" tn.Exe.tn_extent;
      if tn.Exe.tn_tile_m <= 0 || tn.Exe.tn_tile_m > 256 then
        report "tile_m %d out of [1, 256]" tn.Exe.tn_tile_m;
      let key = (tn.Exe.tn_kernel, tn.Exe.tn_extent) in
      if Hashtbl.mem seen key then
        report "duplicate decision for %s extent %d" tn.Exe.tn_kernel
          tn.Exe.tn_extent
      else Hashtbl.replace seen key ())
    exe.Exe.tunes;
  List.rev !diags

let verify (exe : Exe.t) : Diag.t list =
  List.concat
    (List.init (Array.length exe.Exe.funcs) (fun fi -> verify_func exe fi))
  @ verify_cross_adt exe @ verify_plans exe @ verify_tunes exe

let verify_exn exe =
  match verify exe with [] -> () | diags -> raise (Verify_error diags)

let of_bytes bytes =
  let exe = Serialize.of_bytes bytes in
  verify_exn exe;
  exe

let load_file path =
  let ic = open_in_bin path in
  let bytes =
    Fun.protect
      ~finally:(fun () -> close_in ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  in
  of_bytes bytes

let to_failure (diags : Diag.t list) : Interp.failure =
  match diags with
  | [] -> Interp.internal_failure ~func:"?" "verifier reported no diagnostics"
  | d :: rest ->
      {
        Interp.fail_kind = Interp.Internal;
        fail_func = d.Diag.d_where;
        fail_pc = d.Diag.d_pc;
        fail_instr = "";
        fail_msg =
          (if rest = [] then Diag.to_string d
           else Fmt.str "%a (+%d more)" Diag.pp d (List.length rest));
        fail_transient = false;
      }
