(** Common-subexpression elimination on ANF.

    Model builders construct IR as expression trees, so a value referenced
    several times (an LSTM's gate pre-activation, say) appears as duplicated
    subtrees; after ANF these become sequences of structurally identical
    bindings. CSE walks each straight-line region, keys every pure binding
    by a canonical string (operator, attributes, representative argument
    ids, constant identity) and rewrites later duplicates to reuse the first
    binding. Branches are processed with isolated tables seeded from their
    prefix, so nothing leaks across control flow. *)

open Nimble_tensor
open Nimble_ir

type env = {
  table : (string, Expr.var) Hashtbl.t;  (** canonical key -> binding *)
  repr : (int, Expr.var) Hashtbl.t;  (** vid -> representative var *)
  consts : (Tensor.t * int) list ref;
      (** this function's constants by physical identity; shared by every
          copy of the env, so a constant has one id in all branches *)
}

let copy_env env =
  { env with table = Hashtbl.copy env.table; repr = Hashtbl.copy env.repr }

let const_id env (t : Tensor.t) =
  match List.find_opt (fun (c, _) -> c == t) !(env.consts) with
  | Some (_, id) -> id
  | None ->
      let id = List.length !(env.consts) in
      env.consts := (t, id) :: !(env.consts);
      id

let rep env (v : Expr.var) =
  match Hashtbl.find_opt env.repr v.Expr.vid with Some r -> r | None -> v

let atom_key env = function
  | Expr.Var v -> Fmt.str "v%d" (rep env v).Expr.vid
  | Expr.Const t -> Fmt.str "c%d" (const_id env t)
  | Expr.Global g -> "g:" ^ g
  | Expr.Op o -> "o:" ^ o
  | Expr.Ctor c -> Fmt.str "k:%s.%s" c.Adt.adt_name c.Adt.ctor_name
  | _ -> raise Exit

(* Canonical key of a pure ANF right-hand side; raises Exit when the RHS is
   not CSE-able (control flow, functions, effects). *)
let rhs_key env (e : Expr.t) : string =
  match e with
  | Expr.Call { callee = Expr.Op name; args; attrs } ->
      if String.length name > 7 && String.sub name 0 7 = "memory." then raise Exit;
      if List.mem name [ "device_copy" ] then raise Exit;
      Fmt.str "call:%s%a(%s)" name Attrs.pp attrs
        (String.concat "," (List.map (atom_key env) args))
  | Expr.Call { callee = Expr.Ctor c; args; _ } ->
      Fmt.str "ctor:%s.%s(%s)" c.Adt.adt_name c.Adt.ctor_name
        (String.concat "," (List.map (atom_key env) args))
  | Expr.Tuple es -> Fmt.str "tuple(%s)" (String.concat "," (List.map (atom_key env) es))
  | Expr.Proj (e1, i) -> Fmt.str "proj:%d(%s)" i (atom_key env e1)
  | Expr.Var _ | Expr.Const _ -> atom_key env e
  | _ -> raise Exit

let subst_atom env = function
  | Expr.Var v -> Expr.Var (rep env v)
  | a -> a

let rec rewrite env (e : Expr.t) : Expr.t =
  match e with
  | Expr.Let (v, bound, body) -> (
      let bound = rewrite_rhs env bound in
      match rhs_key env bound with
      | key -> (
          match Hashtbl.find_opt env.table key with
          | Some existing ->
              Hashtbl.replace env.repr v.Expr.vid existing;
              rewrite env body
          | None ->
              Hashtbl.replace env.table key v;
              Expr.Let (v, bound, rewrite env body))
      | exception Exit -> Expr.Let (v, bound, rewrite env body))
  | Expr.If (c, t, f) ->
      Expr.If (subst_atom env c, rewrite (copy_env env) t, rewrite (copy_env env) f)
  | Expr.Match (s, clauses) ->
      Expr.Match
        ( subst_atom env s,
          List.map
            (fun cl -> { cl with Expr.rhs = rewrite (copy_env env) cl.Expr.rhs })
            clauses )
  | Expr.Var v -> Expr.Var (rep env v)
  | _ -> rewrite_rhs env e

and rewrite_rhs env (e : Expr.t) : Expr.t =
  match e with
  | Expr.Tuple es -> Expr.Tuple (List.map (subst_atom env) es)
  | Expr.Proj (e1, i) -> Expr.Proj (subst_atom env e1, i)
  | Expr.Call { callee; args; attrs } ->
      let callee =
        match callee with
        | Expr.Fn fn -> Expr.Fn { fn with Expr.body = rewrite (copy_env env) fn.Expr.body }
        | c -> subst_atom env c
      in
      Expr.Call { callee; args = List.map (subst_atom env) args; attrs }
  | Expr.Fn fn -> Expr.Fn { fn with Expr.body = rewrite (copy_env env) fn.Expr.body }
  | Expr.If (c, t, f) ->
      Expr.If (subst_atom env c, rewrite (copy_env env) t, rewrite (copy_env env) f)
  | Expr.Match (s, clauses) ->
      Expr.Match
        ( subst_atom env s,
          List.map
            (fun cl -> { cl with Expr.rhs = rewrite (copy_env env) cl.Expr.rhs })
            clauses )
  | Expr.Var v -> Expr.Var (rep env v)
  | _ -> e

let run_fn (fn : Expr.fn) : Expr.fn =
  let env = { table = Hashtbl.create 64; repr = Hashtbl.create 64; consts = ref [] } in
  { fn with Expr.body = rewrite env fn.Expr.body }

let run (m : Irmod.t) : Irmod.t =
  Irmod.map_funcs m (fun _name fn -> run_fn fn);
  m
