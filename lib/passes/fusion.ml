(** Operator fusion with the dynamic-shape fusion policy (paper §4.2).

    Every kernel-op call is first wrapped into a singleton *primitive* — a
    function marked [Primitive] whose body is pure operator dataflow (the
    unit the VM invokes via [InvokePacked]). Pairwise merging to fixpoint
    then fuses a producer primitive into its single consumer when:

    - the TVM-style operator-pattern lattice allows it (elementwise and
      broadcast ops fuse forward into anything up to dense/conv epilogues;
      injective ops fuse among themselves and into reductions; opaque ops
      never fuse), and
    - the paper's dynamic fusion policy holds: every op on both sides has a
      data-independent shape function. An op whose shape function needs
      values (arange, unique, nms) would need access to *intermediate*
      results of the fused group, so it must stay un-fused. *)

open Nimble_ir

let max_group_size = 12

(* Ops that become VM instructions or memory-dialect calls, not kernels. *)
let dialect_op name =
  List.mem name [ "shape_of"; "reshape_tensor"; "device_copy" ]
  || (String.length name > 7 && String.sub name 0 7 = "memory.")

let pattern_rank = function
  | Op.Elemwise -> 0
  | Op.Broadcast -> 1
  | Op.Injective -> 2
  | Op.Comm_reduce -> 3
  | Op.Out_fusable -> 4
  | Op.Opaque -> 5

let max_pattern a b = if pattern_rank a >= pattern_rank b then a else b

(** Can a producer group with pattern [p] fuse into a consumer op/group with
    pattern [c]? Returns the combined pattern. *)
let combine ~producer:p ~consumer:c : Op.pattern option =
  match (p, c) with
  | Op.Opaque, _ | _, Op.Opaque -> None
  | Op.Out_fusable, (Op.Elemwise | Op.Broadcast) -> Some Op.Out_fusable
  | Op.Out_fusable, _ -> None
  | Op.Comm_reduce, _ -> None (* reductions close their group *)
  | (Op.Elemwise | Op.Broadcast | Op.Injective), Op.Comm_reduce -> Some Op.Comm_reduce
  | (Op.Elemwise | Op.Broadcast | Op.Injective), Op.Out_fusable ->
      (* injective producers do not fuse into dense/conv inputs *)
      None
  | (Op.Elemwise | Op.Broadcast | Op.Injective), (Op.Elemwise | Op.Broadcast | Op.Injective)
    ->
      Some (max_pattern p c)

(* ------------------------------------------------------------------ *)
(* Primitive metadata                                                  *)
(* ------------------------------------------------------------------ *)

(* [next] numbers one module's primitives in creation order ({!run} makes
   one counter per module), so a kernel name [fused_<ops>_<i>] is a
   function of the module alone and any compile of a module can relink a
   decoded copy of it by name. *)
let primitive_attrs next ~ops ~pattern : Attrs.t =
  let name = Fmt.str "fused_%s_%d" (String.concat "_" ops) !next in
  incr next;
  Attrs.empty
  |> fun a ->
  Attrs.set a "Primitive" (Attrs.Int 1)
  |> fun a ->
  Attrs.set a "name" (Attrs.Str name)
  |> fun a ->
  Attrs.set a "ops" (Attrs.Str (String.concat "," ops))
  |> fun a -> Attrs.set a "pattern" (Attrs.Str (Op.pattern_to_string pattern))

let is_primitive (fn : Expr.fn) = Attrs.get_int ~default:0 fn.Expr.fn_attrs "Primitive" = 1

let primitive_name (fn : Expr.fn) =
  match Attrs.find_str fn.Expr.fn_attrs "name" with
  | Some n -> n
  | None -> "prim"

let primitive_ops (fn : Expr.fn) =
  match Attrs.find_str fn.Expr.fn_attrs "ops" with
  | Some s -> String.split_on_char ',' s
  | None -> []

let primitive_pattern (fn : Expr.fn) =
  match Attrs.find_str fn.Expr.fn_attrs "pattern" with
  | Some "elemwise" -> Op.Elemwise
  | Some "broadcast" -> Op.Broadcast
  | Some "injective" -> Op.Injective
  | Some "comm_reduce" -> Op.Comm_reduce
  | Some "out_fusable" -> Op.Out_fusable
  | _ -> Op.Opaque

(** Every op call site in the primitive has a statically-known output
    shape: registered data-independent, or proven by the Classify
    shape-value dominance pass. Site-aware — the [proven] attribute
    survives wrapping because [wrap_call] keeps op attrs in the body. *)
let data_independent (fn : Expr.fn) =
  let body_ops = ref [] in
  let ok = ref true in
  Expr.iter
    (function
      | Expr.Call { callee = Expr.Op name; attrs; _ } ->
          body_ops := name :: !body_ops;
          if not (Nimble_shape.Shape_func.fusible_site ~name ~attrs) then ok := false
      | _ -> ())
    fn.Expr.body;
  !ok
  && (* ops recorded on the group but absent from the body (hand-built
        groups) carry no site attrs; judge them by registry mode *)
  List.for_all
    (fun op ->
      List.mem op !body_ops || Nimble_shape.Shape_func.fusible_as_consumer op)
    (primitive_ops fn)

let group_size (fn : Expr.fn) = List.length (primitive_ops fn)

(* ------------------------------------------------------------------ *)
(* Step 1: wrap kernel-op calls into singleton primitives              *)
(* ------------------------------------------------------------------ *)

(* Type of an atom, when known (infer runs before fusion). *)
let atom_ty : Expr.t -> Ty.t option = function
  | Expr.Var v -> v.Expr.vty
  | Expr.Const t ->
      Some (Ty.tensor_of_shape ~dtype:(Nimble_tensor.Tensor.dtype t) (Nimble_tensor.Tensor.shape t))
  | _ -> None

let wrap_call next name args attrs : Expr.t =
  let op_def = Op.get name in
  let params =
    List.mapi (fun i a -> Expr.fresh_var ?ty:(atom_ty a) (Fmt.str "p%d" i)) args
  in
  let body = Expr.op_call ~attrs name (List.map Expr.var params) in
  (* A proven data-dependent site computes a statically-shaped result
     elementwise over its (value) inputs; its registered Opaque pattern
     exists only because its shape needs values — which the dominance
     proof just discharged. Upgrade so fusion can absorb it. *)
  let pattern =
    match op_def.Op.pattern with
    | Op.Opaque
      when (match Nimble_shape.Shape_func.classify ~name ~attrs with
           | Nimble_shape.Shape_func.Site_proven _ -> true
           | _ -> false) ->
        Op.Injective
    | p -> p
  in
  let fn_attrs = primitive_attrs next ~ops:[ name ] ~pattern in
  Expr.Call
    {
      callee = Expr.Fn { params; ret_ty = None; body; fn_attrs };
      args;
      attrs = Attrs.empty;
    }

let wrap next (e : Expr.t) : Expr.t =
  Expr.map_bottom_up
    (function
      | Expr.Call { callee = Expr.Op name; args; attrs }
        when (not (dialect_op name))
             && List.for_all Anf.is_atom args ->
          wrap_call next name args attrs
      | e -> e)
    e

(* ------------------------------------------------------------------ *)
(* Step 2: pairwise merge to fixpoint                                  *)
(* ------------------------------------------------------------------ *)

(* Uses of every variable of [e], by vid. Vids are unique, and a merge
   moves the producer's argument uses into the merged call without adding
   or dropping any (only the producer variable's single use goes, with its
   binding), so counts taken once before the first round stay exact for
   every variable still bound, through every round. *)
let use_counts (e : Expr.t) : int -> int =
  let counts = Hashtbl.create 256 in
  Expr.iter
    (function
      | Expr.Var v ->
          Hashtbl.replace counts v.Expr.vid
            (1 + Option.value ~default:0 (Hashtbl.find_opt counts v.Expr.vid))
      | _ -> ())
    e;
  fun vid -> Option.value ~default:0 (Hashtbl.find_opt counts vid)

(* Inline producer primitive [pfn]/[pargs] into consumer [cfn]/[cargs] at the
   consumer parameter that receives [vp]. *)
let merge next ~vp ~(pfn : Expr.fn) ~pargs ~(cfn : Expr.fn) ~cargs ~pattern : Expr.t =
  (* Find which consumer params receive [vp]. *)
  let pairs = List.combine cfn.Expr.params cargs in
  let receiving, keeping =
    List.partition
      (fun (_, arg) -> match arg with Expr.Var v -> v.Expr.vid = vp | _ -> false)
      pairs
  in
  (* Fresh params for the producer's inputs. *)
  let fresh_pparams =
    List.map (fun (p : Expr.var) -> Expr.fresh_var p.Expr.vname ?ty:p.Expr.vty) pfn.Expr.params
  in
  let psubst =
    List.map2
      (fun (old : Expr.var) fresh -> (old.Expr.vid, Expr.Var fresh))
      pfn.Expr.params fresh_pparams
  in
  let pbody = Expr.substitute psubst pfn.Expr.body in
  (* Bind producer output once, substitute for every receiving param. *)
  let pv = Expr.fresh_var "f" in
  let csubst =
    List.map (fun ((p : Expr.var), _) -> (p.Expr.vid, Expr.Var pv)) receiving
  in
  let cbody = Expr.substitute csubst cfn.Expr.body in
  let new_body = Expr.Let (pv, pbody, cbody) in
  let new_params = fresh_pparams @ List.map fst keeping in
  let new_args = pargs @ List.map snd keeping in
  let ops = primitive_ops pfn @ primitive_ops cfn in
  let fn_attrs = primitive_attrs next ~ops ~pattern in
  Expr.Call
    {
      callee = Expr.Fn { params = new_params; ret_ty = cfn.Expr.ret_ty; body = new_body; fn_attrs };
      args = new_args;
      attrs = Attrs.empty;
    }

(* Try to fuse [Let (v, prim-call, body)] with a consumer in [body]. *)
let rec fuse_chain next uses (e : Expr.t) : Expr.t * bool =
  match e with
  | Expr.Let
      (v, (Expr.Call { callee = Expr.Fn pfn; args = pargs; _ } as bound), body)
    when is_primitive pfn -> (
      match find_consumer next uses v.Expr.vid pfn body with
      | Some rebuild -> (rebuild ~pfn ~pargs, true)
      | None ->
          let body', changed = fuse_chain next uses body in
          (Expr.Let (v, bound, body'), changed))
  | Expr.Let (v, bound, body) ->
      let bound', c1 = fuse_inside next uses bound in
      let body', c2 = fuse_chain next uses body in
      (Expr.Let (v, bound', body'), c1 || c2)
  | Expr.If (c, t, f) ->
      let t', c1 = fuse_chain next uses t in
      let f', c2 = fuse_chain next uses f in
      (Expr.If (c, t', f'), c1 || c2)
  | Expr.Match (s, clauses) ->
      let changed = ref false in
      let clauses =
        List.map
          (fun cl ->
            let rhs, c = fuse_chain next uses cl.Expr.rhs in
            if c then changed := true;
            { cl with Expr.rhs })
          clauses
      in
      (Expr.Match (s, clauses), !changed)
  | _ -> fuse_inside next uses e

and fuse_inside next uses (e : Expr.t) : Expr.t * bool =
  match e with
  | Expr.Fn fn when not (is_primitive fn) ->
      let body, changed = fuse_chain next uses fn.Expr.body in
      (Expr.Fn { fn with Expr.body = body }, changed)
  | Expr.If (c, t, f) ->
      let t', c1 = fuse_chain next uses t in
      let f', c2 = fuse_chain next uses f in
      (Expr.If (c, t', f'), c1 || c2)
  | Expr.Match (s, clauses) ->
      let changed = ref false in
      let clauses =
        List.map
          (fun cl ->
            let rhs, c = fuse_chain next uses cl.Expr.rhs in
            if c then changed := true;
            { cl with Expr.rhs })
          clauses
      in
      (Expr.Match (s, clauses), !changed)
  | _ -> (e, false)

(* Search [body] for the unique consumer of [vp]: a directly-following
   primitive call taking [Var vp] as an argument, with [vp] used nowhere
   else. Returns a rebuild function on success. *)
and find_consumer next uses vp (pfn : Expr.fn) (body : Expr.t) :
    (pfn:Expr.fn -> pargs:Expr.t list -> Expr.t) option =
  if uses vp <> 1 then None
  else
    match body with
    | Expr.Let (cv, Expr.Call { callee = Expr.Fn cfn; args = cargs; _ }, rest)
      when is_primitive cfn
           && List.exists
                (function Expr.Var v -> v.Expr.vid = vp | _ -> false)
                cargs -> (
        if
          group_size pfn + group_size cfn > max_group_size
          || not (data_independent pfn && data_independent cfn)
        then None
        else
          match
            combine ~producer:(primitive_pattern pfn) ~consumer:(primitive_pattern cfn)
          with
          | None -> None
          | Some pattern ->
              Some
                (fun ~pfn ~pargs ->
                  let merged = merge next ~vp ~pfn ~pargs ~cfn ~cargs ~pattern in
                  Expr.Let (cv, merged, rest)))
    | Expr.Let (cv, bound, rest) when not (Expr.uses_var vp bound) ->
        (* consumer appears later in the chain *)
        Option.map
          (fun rebuild ~pfn ~pargs -> Expr.Let (cv, bound, rebuild ~pfn ~pargs))
          (find_consumer next uses vp pfn rest)
    | _ -> None

let fixpoint next e =
  let uses = use_counts e in
  let rec go e =
    let e', changed = fuse_chain next uses e in
    if changed then go e' else e'
  in
  go e

(* Fusion over one function body (expects ANF), numbering its primitives
   from [next]. [merge = false] only wraps ops into singleton primitives
   without fusing — the no-fusion ablation. *)
let run_fn ~merge next (fn : Expr.fn) : Expr.fn =
  let wrapped = wrap next fn.Expr.body in
  { fn with Expr.body = (if merge then fixpoint next wrapped else wrapped) }

let run ?(merge = true) (m : Irmod.t) : Irmod.t =
  let next = ref 0 in
  Irmod.map_funcs m (fun _name fn -> run_fn ~merge next fn);
  m

(** Statistics for tests and ablations: primitives and their group sizes. *)
let primitives_of (e : Expr.t) : Expr.fn list =
  let acc = ref [] in
  Expr.iter
    (function
      | Expr.Call { callee = Expr.Fn fn; _ } when is_primitive fn -> acc := fn :: !acc
      | _ -> ())
    e;
  List.rev !acc
