(** IR-dialect lints (see [lint.mli]): fusion policy, memory dialect,
    device placement. Each lint replays the invariant its pass establishes
    and reports violations as located {!Diag.t} values. *)

open Nimble_ir

(* ------------------------------------------------------------------ *)
(* Fusion policy (§4.2)                                                *)
(* ------------------------------------------------------------------ *)

let fusion (m : Irmod.t) : Diag.t list =
  let diags = ref [] in
  List.iter
    (fun (fname, (fn : Expr.fn)) ->
      List.iter
        (fun prim ->
          let ops = Nimble_passes.Fusion.primitive_ops prim in
          if List.length ops > 1 && not (Nimble_passes.Fusion.data_independent prim)
          then
            diags :=
              Diag.v ~check:"fusion"
                ~where_:(fname ^ "/" ^ Nimble_passes.Fusion.primitive_name prim)
                (Fmt.str
                   "fused group [%s] contains an op whose shape function is \
                    not data-independent"
                   (String.concat ", " ops))
              :: !diags)
        (Nimble_passes.Fusion.primitives_of fn.Expr.body))
    (Irmod.functions m);
  List.rev !diags

(* ------------------------------------------------------------------ *)
(* Memory dialect (§4.3)                                               *)
(* ------------------------------------------------------------------ *)

(* What a let-bound value is, as far as the memory dialect cares. *)
type mkind =
  | Kstorage of bool  (** a [memory.alloc_storage] result; [true] = arena *)
  | Ktensor of int  (** a [memory.alloc_tensor] result; payload = storage vid *)
  | Kother

module Int_set = Set.Make (Int)

let chain_of (e : Expr.t) =
  let rec go acc = function
    | Expr.Let (v, bound, body) -> go ((v, bound) :: acc) body
    | term -> (List.rev acc, term)
  in
  go [] e

(* Alias-aware liveness, replicating the planner's notion: the set of vids
   through which a tensor's buffer stays reachable. *)
let rhs_may_alias = function
  | Expr.Var _ | Expr.Tuple _ | Expr.Proj _ | Expr.If _ | Expr.Match _ -> true
  | Expr.Call { callee = Expr.Ctor _; _ }
  | Expr.Call { callee = Expr.Global _; _ }
  | Expr.Call { callee = Expr.Fn _; _ } ->
      true
  | _ -> false

let uses_any vids e =
  let found = ref false in
  Expr.iter
    (function
      | Expr.Var v when Int_set.mem v.Expr.vid vids -> found := true | _ -> ())
    e;
  !found

let alias_closure (barr : (Expr.var * Expr.t) array) start_vid =
  let set = ref (Int_set.singleton start_vid) in
  Array.iter
    (fun ((v : Expr.var), bound) ->
      if rhs_may_alias bound && uses_any !set bound then
        set := Int_set.add v.Expr.vid !set)
    barr;
  !set

(* Split the operands of a memory.invoke_* call into inputs and outs. *)
let split_outs attrs rest =
  let n = Nimble_ir.Attrs.get_int ~default:(List.length rest) attrs "num_inputs" in
  if n < 0 || n > List.length rest then None
  else
    let rec drop k l = if k = 0 then l else match l with [] -> [] | _ :: t -> drop (k - 1) t in
    Some (drop n rest)

let memory ?(planned = false) (m : Irmod.t) : Diag.t list =
  let diags = ref [] in
  let report fname fmt =
    Fmt.kstr
      (fun reason -> diags := Diag.v ~check:"memory" ~where_:fname reason :: !diags)
      fmt
  in
  (* vid of a [memory.bind_arena] result -> its slot count, so [plan_slot]
     tensor allocations can be bounds-checked *)
  let plan_slots : (int, int) Hashtbl.t = Hashtbl.create 4 in
  (* The symbolic dialect's soundness obligations on one bind_arena plan
     are {!Plan_check}'s, the same the verifier replays on the executable. *)
  let check_bind_arena fname (v : Expr.var) attrs =
    let report_plan reason = report fname "bind_arena %%%s: %s" v.Expr.vname reason in
    match Nimble_shape.Arena_plan.of_attrs attrs with
    | Error msg -> report_plan msg
    | Ok p ->
        List.iter report_plan (Plan_check.check p);
        Hashtbl.replace plan_slots v.Expr.vid (Array.length p.slots)
  in
  (* [env] maps vid -> mkind; [killed] holds vids of killed tensors. Both
     are copied into branch sub-regions so branches check independently. *)
  let rec check_region ~planned fname (env : (int, mkind) Hashtbl.t)
      (killed : (int, unit) Hashtbl.t) (e : Expr.t) : unit =
    let bindings, term = chain_of e in
    let barr = Array.of_list bindings in
    let n = Array.length barr in
    let kind_of = function
      | Expr.Var v -> Hashtbl.find_opt env v.Expr.vid
      | _ -> None
    in
    let check_killed_uses what e =
      Hashtbl.iter
        (fun k () ->
          if Expr.uses_var k e then
            report fname "%s uses tensor #%d after memory.kill" what k)
        killed
    in
    let sub e = check_region ~planned fname (Hashtbl.copy env) (Hashtbl.copy killed) e in
    (* The planner does not descend into a terminal If/Match, so its
       leak/overlap contract does not apply there. *)
    let sub_unplanned e =
      check_region ~planned:false fname (Hashtbl.copy env) (Hashtbl.copy killed) e
    in
    Array.iter
      (fun ((v : Expr.var), bound) ->
        (match bound with
        | Expr.If (c, t, f) ->
            check_killed_uses ("binding of %" ^ v.Expr.vname) c;
            sub t;
            sub f;
            Hashtbl.replace env v.Expr.vid Kother
        | Expr.Match (s, clauses) ->
            check_killed_uses ("binding of %" ^ v.Expr.vname) s;
            List.iter (fun cl -> sub cl.Expr.rhs) clauses;
            Hashtbl.replace env v.Expr.vid Kother
        | Expr.Fn fn when not (Nimble_passes.Fusion.is_primitive fn) ->
            sub fn.Expr.body;
            Hashtbl.replace env v.Expr.vid Kother
        | _ -> (
            check_killed_uses ("binding of %" ^ v.Expr.vname) bound;
            match bound with
            | Expr.Call { callee = Expr.Op "memory.alloc_storage"; attrs; _ } ->
                Hashtbl.replace env v.Expr.vid
                  (Kstorage (Nimble_ir.Attrs.get_bool attrs "arena"))
            | Expr.Call { callee = Expr.Op "memory.bind_arena"; args; attrs } ->
                if args <> [] then
                  report fname "bind_arena %%%s takes no operands" v.Expr.vname;
                check_bind_arena fname v attrs;
                Hashtbl.replace env v.Expr.vid (Kstorage true)
            | Expr.Call
                { callee = Expr.Op "memory.alloc_tensor"; args = storage :: _; _ }
              -> (
                match storage with
                | Expr.Var sv -> (
                    match Hashtbl.find_opt env sv.Expr.vid with
                    | Some (Kstorage _) | None ->
                        (* None: storage from an enclosing region *)
                        Hashtbl.replace env v.Expr.vid (Ktensor sv.Expr.vid)
                    | Some (Ktensor _) | Some Kother ->
                        report fname
                          "alloc_tensor %%%s: storage operand %%%s is not a \
                           memory.alloc_storage result"
                          v.Expr.vname sv.Expr.vname)
                | _ ->
                    report fname
                      "alloc_tensor %%%s: storage operand is not a variable"
                      v.Expr.vname)
            | Expr.Call { callee = Expr.Op "memory.alloc_tensor"; _ } ->
                report fname "alloc_tensor %%%s has no storage operand" v.Expr.vname
            | Expr.Call
                {
                  callee = Expr.Op (("memory.invoke_mut" | "memory.invoke_shape_func") as opn);
                  args = _prim :: rest;
                  attrs;
                } -> (
                match split_outs attrs rest with
                | None ->
                    report fname "%s: num_inputs out of range (%d operands)" opn
                      (List.length rest)
                | Some outs ->
                    if outs = [] then
                      report fname "%s has no destination operands" opn;
                    List.iter
                      (fun out ->
                        match kind_of out with
                        | Some (Ktensor _) -> ()
                        | Some _ ->
                            report fname
                              "%s destination is not a manifestly allocated \
                               tensor"
                              opn
                        | None -> (
                            match out with
                            | Expr.Var ov ->
                                report fname
                                  "%s destination %%%s is not a manifestly \
                                   allocated tensor"
                                  opn ov.Expr.vname
                            | _ ->
                                report fname "%s destination is not a variable"
                                  opn))
                      outs)
            | Expr.Call { callee = Expr.Op "memory.kill"; args; _ } -> (
                match args with
                | [ Expr.Var kv ] -> (
                    (match Hashtbl.find_opt env kv.Expr.vid with
                    | Some (Ktensor _) | None -> ()
                    | Some _ ->
                        report fname "memory.kill of non-tensor %%%s" kv.Expr.vname);
                    match Hashtbl.find_opt killed kv.Expr.vid with
                    | Some () ->
                        report fname "double memory.kill of %%%s" kv.Expr.vname
                    | None -> Hashtbl.replace killed kv.Expr.vid ())
                | _ -> report fname "memory.kill expects a single variable operand")
            | Expr.Var w ->
                Hashtbl.replace env v.Expr.vid
                  (Option.value ~default:Kother (Hashtbl.find_opt env w.Expr.vid))
            | _ -> Hashtbl.replace env v.Expr.vid Kother)))
      barr;
    (match term with
    | Expr.If (c, t, f) ->
        check_killed_uses "terminal" c;
        sub_unplanned t;
        sub_unplanned f
    | Expr.Match (s, clauses) ->
        check_killed_uses "terminal" s;
        List.iter (fun cl -> sub_unplanned cl.Expr.rhs) clauses
    | _ -> check_killed_uses "terminal" term);
    if planned then begin
      (* -- planner contract (this region was planned) ---------------- *)
      (* (a) non-arena tensors that do not escape must be killed *)
      Array.iter
        (fun ((v : Expr.var), bound) ->
          match bound with
          | Expr.Call
              { callee = Expr.Op "memory.alloc_tensor"; args = Expr.Var sv :: _; _ }
            when (match Hashtbl.find_opt env sv.Expr.vid with
                 | Some (Kstorage true) -> false
                 | _ -> true)
                 && not (Expr.uses_var v.Expr.vid term)
                 && not (Hashtbl.mem killed v.Expr.vid) ->
              report fname
                "dynamically allocated tensor %%%s neither escapes nor is \
                 killed (leak)"
                v.Expr.vname
          | _ -> ())
        barr;
      (* (b) arena offsets must not overlap for live-range-intersecting
         tensors. Liveness is recomputed conservatively (alias-aware, like
         the planner), so a reported collision is a real one. *)
      let arena_tensors = ref [] in
      Array.iteri
        (fun i ((v : Expr.var), bound) ->
          match bound with
          | Expr.Call
              {
                callee = Expr.Op "memory.alloc_tensor";
                args = Expr.Var sv :: _;
                attrs;
              }
            when Hashtbl.find_opt env sv.Expr.vid = Some (Kstorage true) -> (
              match
                (Nimble_ir.Attrs.find_int attrs "offset",
                 Nimble_ir.Attrs.find_ints attrs "const_shape")
              with
              | Some offset, Some shape ->
                  let size =
                    Nimble_passes.Memory_plan.storage_size_bytes ~attrs
                      (Array.of_list shape)
                  in
                  let aliases = alias_closure barr v.Expr.vid in
                  let last = ref i in
                  Array.iteri
                    (fun j (_, b) ->
                      if j > i && uses_any aliases b then last := j)
                    barr;
                  if uses_any aliases term then last := n;
                  arena_tensors :=
                    (v, sv.Expr.vid, offset, size, i, !last) :: !arena_tensors
              | _ -> (
                  match Nimble_ir.Attrs.find_int attrs "plan_slot" with
                  | Some slot -> (
                      (* a symbolic slot: its overlap/escape obligations are
                         the plan's, checked by [check_bind_arena] *)
                      match Hashtbl.find_opt plan_slots sv.Expr.vid with
                      | Some nslots when slot < 0 || slot >= nslots ->
                          report fname
                            "arena tensor %%%s names slot %d outside its \
                             plan's %d slots"
                            v.Expr.vname slot nslots
                      | _ -> ())
                  | None ->
                      report fname
                        "arena tensor %%%s lacks offset/const_shape attributes"
                        v.Expr.vname))
          | _ -> ())
        barr;
      let ts = List.rev !arena_tensors in
      List.iteri
        (fun i (v1, a1, o1, s1, b1, l1) ->
          List.iteri
            (fun j (v2, a2, o2, s2, b2, l2) ->
              if
                j > i && a1 = a2
                && o1 < o2 + s2 && o2 < o1 + s1 (* byte ranges intersect *)
                && b1 <= l2 && b2 <= l1 (* live ranges intersect *)
              then
                report fname
                  "arena tensors %%%s [%d,%d) and %%%s [%d,%d) overlap while \
                   both live"
                  (v1 : Expr.var).Expr.vname o1 (o1 + s1) (v2 : Expr.var).Expr.vname
                  o2 (o2 + s2))
            ts)
        ts
    end
  in
  List.iter
    (fun (fname, (fn : Expr.fn)) ->
      let env = Hashtbl.create 64 in
      let killed = Hashtbl.create 8 in
      check_region ~planned fname env killed fn.Expr.body)
    (Irmod.functions m);
  List.rev !diags

(* ------------------------------------------------------------------ *)
(* Device placement (§4.4)                                             *)
(* ------------------------------------------------------------------ *)

let cpu = 0

let device ?(shape_func_device = cpu) (m : Irmod.t) : Diag.t list =
  let diags = ref [] in
  let report fname fmt =
    Fmt.kstr
      (fun reason -> diags := Diag.v ~check:"device" ~where_:fname reason :: !diags)
      fmt
  in
  List.iter
    (fun (fname, (fn : Expr.fn)) ->
      (* vid -> concrete device; shared across branches, like the pass. *)
      let domains : (int, int) Hashtbl.t = Hashtbl.create 64 in
      let dom (v : Expr.var) = Hashtbl.find_opt domains v.Expr.vid in
      let set (v : Expr.var) d = Hashtbl.replace domains v.Expr.vid d in
      (* A use of [a] on device [d]: concrete conflicting domains are
         violations (the pass would have materialized a device_copy);
         unconstrained values late-bind, mirroring the pass. *)
      let check what a d =
        match a with
        | Expr.Var v -> (
            match dom v with
            | Some d' when d' <> d ->
                report fname
                  "%s: %%%s lives on device %d but is used on device %d \
                   without a device_copy"
                  what v.Expr.vname d' d
            | Some _ -> ()
            | None -> set v d)
        | Expr.Const _ when d <> cpu ->
            report fname
              "%s: constant reaches device %d without a device_copy" what d
        | _ -> ()
      in
      let rec walk e =
        match e with
        | Expr.Let (v, bound, body) ->
            walk_binding v bound;
            walk body
        | Expr.If (c, t, f) ->
            check "if condition" c cpu;
            walk t;
            walk f
        | Expr.Match (_, clauses) ->
            (* the pass places no constraint on the scrutinee *)
            List.iter (fun cl -> walk cl.Expr.rhs) clauses
        | _ -> ()
      and walk_binding (v : Expr.var) bound =
        match bound with
        | Expr.Call { callee = Expr.Op "shape_of"; _ } -> set v cpu
        | Expr.Call
            { callee = Expr.Op "memory.invoke_shape_func"; args = _ :: ins; _ } ->
            List.iter (fun a -> check "shape-function operand" a shape_func_device) ins;
            set v cpu
        | Expr.Call { callee = Expr.Op "memory.alloc_storage"; args; attrs } ->
            List.iter (fun a -> check "alloc_storage operand" a cpu) args;
            set v (Nimble_ir.Attrs.get_int ~default:0 attrs "device")
        | Expr.Call { callee = Expr.Op "memory.bind_arena"; attrs; _ } ->
            set v (Nimble_ir.Attrs.get_int ~default:0 attrs "device")
        | Expr.Call
            { callee = Expr.Op "memory.alloc_tensor"; args = storage :: more; _ }
          ->
            (match storage with
            | Expr.Var sv -> ( match dom sv with Some d -> set v d | None -> ())
            | _ -> ());
            List.iter (fun a -> check "alloc_tensor operand" a cpu) more
        | Expr.Call { callee = Expr.Op "memory.invoke_mut"; args = _ :: rest; attrs }
          ->
            let dev = Nimble_ir.Attrs.get_int ~default:0 attrs "device" in
            List.iter (fun a -> check "kernel operand" a dev) rest;
            set v cpu
        | Expr.Call { callee = Expr.Op "device_copy"; args; attrs } ->
            let src = Nimble_ir.Attrs.get_int ~default:0 attrs "src_device" in
            List.iter (fun a -> check "device_copy source" a src) args;
            set v (Nimble_ir.Attrs.get_int ~default:0 attrs "dst_device")
        | Expr.Call { callee = Expr.Ctor _; _ } -> set v cpu
        | Expr.Var w -> ( match dom w with Some d -> set v d | None -> ())
        | Expr.If (c, t, f) ->
            check "if condition" c cpu;
            walk t;
            walk f
        | Expr.Match (_, clauses) ->
            List.iter (fun cl -> walk cl.Expr.rhs) clauses
        | Expr.Fn f when not (Nimble_passes.Fusion.is_primitive f) ->
            List.iter (fun (p : Expr.var) -> set p cpu) f.Expr.params;
            walk f.Expr.body
        | _ -> ()
      in
      List.iter (fun (p : Expr.var) -> set p cpu) fn.Expr.params;
      walk fn.Expr.body)
    (Irmod.functions m);
  List.rev !diags
