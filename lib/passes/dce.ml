(** Dead-code elimination: drop let bindings whose variable is unused and
    whose right-hand side is pure.

    Memory-dialect operations ([invoke_mut], [kill], allocations feeding
    them) are effectful and survive; everything else in the IR is pure. *)

open Nimble_ir

let is_effectful_call name =
  List.mem name
    [ "memory.invoke_mut"; "memory.invoke_shape_func"; "memory.kill"; "device_copy" ]

let rec is_pure (e : Expr.t) : bool =
  match e with
  | Expr.Var _ | Expr.Const _ | Expr.Global _ | Expr.Op _ | Expr.Ctor _ -> true
  | Expr.Tuple es -> List.for_all is_pure es
  | Expr.Proj (e1, _) -> is_pure e1
  | Expr.Call { callee = Expr.Op name; _ } -> not (is_effectful_call name)
  | Expr.Call { callee = Expr.Ctor _; _ } -> true
  | Expr.Call _ -> false (* user function calls may allocate/recurse: keep *)
  | Expr.Fn _ -> true
  | Expr.Let (_, bound, body) -> is_pure bound && is_pure body
  | Expr.If (c, t, f) -> is_pure c && is_pure t && is_pure f
  | Expr.Match (s, clauses) ->
      is_pure s && List.for_all (fun cl -> is_pure cl.Expr.rhs) clauses

module Int_set = Set.Make (Int)

let rec used_vars acc (e : Expr.t) =
  match e with
  | Expr.Var v -> Int_set.add v.Expr.vid acc
  | _ -> List.fold_left used_vars acc (Expr.children e)

(* One bottom-up sweep returning the swept expression and the set of
   variables it uses. A let's body is swept before its variable is tested
   against the body's set, so a binding used only by dead bindings is
   dead by the time it is tested: one sweep reaches the fixpoint. A dead
   binding's right-hand side is dropped unswept (removing pure bindings
   never changes purity, so testing it before sweeping is exact). *)
let rec sweep_used (e : Expr.t) : Expr.t * Int_set.t =
  match e with
  | Expr.Let (v, bound, body) ->
      let body, used = sweep_used body in
      if (not (Int_set.mem v.Expr.vid used)) && is_pure bound then (body, used)
      else
        let bound, bound_used = sweep_inside bound in
        (Expr.Let (v, bound, body), Int_set.union bound_used used)
  | _ -> sweep_inside e

and sweep_inside (e : Expr.t) : Expr.t * Int_set.t =
  match e with
  | Expr.Fn fn ->
      let body, used = sweep_used fn.Expr.body in
      (Expr.Fn { fn with Expr.body }, used)
  | Expr.If (c, t, f) ->
      let t, t_used = sweep_used t and f, f_used = sweep_used f in
      (Expr.If (c, t, f), used_vars (Int_set.union t_used f_used) c)
  | Expr.Match (s, clauses) ->
      let clauses, used =
        List.fold_right
          (fun cl (cls, used) ->
            let rhs, rhs_used = sweep_used cl.Expr.rhs in
            ({ cl with Expr.rhs } :: cls, Int_set.union rhs_used used))
          clauses ([], Int_set.empty)
      in
      (Expr.Match (s, clauses), used_vars used s)
  | Expr.Call { callee = Expr.Fn fn; args; attrs } ->
      let body, used = sweep_used fn.Expr.body in
      ( Expr.Call { callee = Expr.Fn { fn with Expr.body }; args; attrs },
        List.fold_left used_vars used args )
  | _ -> (e, used_vars Int_set.empty e)

(** Drop every dead pure binding of [e], nested regions included, in one
    sweep. *)
let sweep (e : Expr.t) : Expr.t = fst (sweep_used e)

let run_fn (fn : Expr.fn) : Expr.fn = { fn with Expr.body = sweep fn.Expr.body }

let run (m : Irmod.t) : Irmod.t =
  Irmod.map_funcs m (fun _name fn -> run_fn fn);
  m
