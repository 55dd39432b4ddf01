(** A-normal form conversion.

    Every compound subexpression is let-bound so later passes (fusion,
    manifest alloc, memory planning, the bytecode emitter) see a flat chain
    of lets whose right-hand sides are single operations over atoms.

    Model builders construct expression {e DAGs}: the same OCaml node is
    referenced wherever its value is reused (a transformer layer's output
    feeds both the next layer's attention and its residual add). Walking the
    DAG as a tree would duplicate work exponentially, so conversion memoizes
    on *physical identity*: the first occurrence of a shared node produces
    its binding, later occurrences reuse the variable. Branch conversions
    get a copy of the memo, so bindings created inside an [if]/[match] arm
    never leak out of their scope. *)

open Nimble_ir

let is_atom = function
  | Expr.Var _ | Expr.Const _ | Expr.Global _ | Expr.Op _ | Expr.Ctor _ -> true
  | Expr.Tuple _ | Expr.Proj _ | Expr.Call _ | Expr.Fn _ | Expr.Let _
  | Expr.If _ | Expr.Match _ ->
      false

(* Physical-identity memo: structural Hashtbl.hash for bucketing (bounded
   traversal, so cheap even on big DAGs), physical equality within buckets. *)
module Memo = struct
  type t = (int, (Expr.t * Expr.t) list ref) Hashtbl.t

  let create () : t = Hashtbl.create 256

  let copy (t : t) : t =
    let fresh = Hashtbl.create (Hashtbl.length t * 2) in
    Hashtbl.iter (fun h bucket -> Hashtbl.replace fresh h (ref !bucket)) t;
    fresh

  let find (t : t) (e : Expr.t) : Expr.t option =
    match Hashtbl.find_opt t (Hashtbl.hash e) with
    | None -> None
    | Some bucket ->
        List.find_map (fun (key, atom) -> if key == e then Some atom else None) !bucket

  let add (t : t) (e : Expr.t) (atom : Expr.t) =
    let h = Hashtbl.hash e in
    match Hashtbl.find_opt t h with
    | Some bucket -> bucket := (e, atom) :: !bucket
    | None -> Hashtbl.replace t h (ref [ (e, atom) ])
end

(* Nodes worth memoizing: pure dataflow that would be recomputed if
   duplicated. Control flow and functions are scope-sensitive; atoms are
   free to duplicate. *)
let memoizable = function
  | Expr.Call _ | Expr.Tuple _ | Expr.Proj _ -> true
  | _ -> false

(* A conversion's state: the memo, copied for each branch, and the fresh
   variable given to each binder converted so far, shared by all. *)
type ctx = { memo : Memo.t; vars : (int, Expr.var) Hashtbl.t }

(* A fresh variable for binder [v] (same name and declared type): the
   passes after ANF set variables' types, and must not reach the
   caller's. *)
let rename ctx (v : Expr.var) =
  let v' = Expr.fresh_var ?ty:v.Expr.vty v.Expr.vname in
  Hashtbl.replace ctx.vars v.Expr.vid v';
  v'

(* An atom with its variable renamed. *)
let atom ctx (e : Expr.t) =
  match e with
  | Expr.Var v -> (
      match Hashtbl.find_opt ctx.vars v.Expr.vid with Some v' -> Expr.Var v' | None -> e)
  | _ -> e

let rec pattern ctx = function
  | Expr.Pwild -> Expr.Pwild
  | Expr.Pvar v -> Expr.Pvar (rename ctx v)
  | Expr.Pctor (c, ps) -> Expr.Pctor (c, List.map (pattern ctx) ps)

(* [norm ctx e k]: normalize [e]; [k] receives an atom for [e]. *)
let rec norm ctx (e : Expr.t) (k : Expr.t -> Expr.t) : Expr.t =
  match if memoizable e then Memo.find ctx.memo e else None with
  | Some a -> k a
  | None -> (
      match e with
      | Expr.Var _ | Expr.Const _ | Expr.Global _ | Expr.Op _ | Expr.Ctor _ -> k (atom ctx e)
      | Expr.Tuple es -> norm_list ctx es (fun atoms -> bind ctx e (Expr.Tuple atoms) k)
      | Expr.Proj (e1, i) -> norm ctx e1 (fun a -> bind ctx e (Expr.Proj (a, i)) k)
      | Expr.Call { callee; args; attrs } ->
          norm_callee ctx callee (fun c ->
              norm_list ctx args (fun atoms ->
                  bind ctx e (Expr.Call { callee = c; args = atoms; attrs }) k))
      | Expr.Fn fn -> bind ctx e (Expr.Fn (convert_fn_in ctx fn)) k
      | Expr.Let (v, bound, body) -> norm_named ctx v bound (fun () -> norm ctx body k)
      | Expr.If (c, t, f) ->
          norm ctx c (fun ca ->
              bind ctx e (Expr.If (ca, convert_scoped ctx t, convert_scoped ctx f)) k)
      | Expr.Match (scrut, clauses) ->
          norm ctx scrut (fun sa -> bind ctx e (Expr.Match (sa, clauses_in ctx clauses)) k))

and norm_callee ctx callee f =
  match callee with
  | Expr.Op _ | Expr.Ctor _ | Expr.Global _ -> f callee
  | _ -> norm ctx callee f

(* Bind a normalized compound node [rebuilt] (for original node [orig]). *)
and bind ctx (orig : Expr.t) (rebuilt : Expr.t) (k : Expr.t -> Expr.t) : Expr.t =
  if is_atom rebuilt then k rebuilt
  else begin
    let v = Expr.fresh_var "t" in
    if memoizable orig then Memo.add ctx.memo orig (Expr.Var v);
    Expr.Let (v, rebuilt, k (Expr.Var v))
  end

(* Normalize [bound] into the RHS of a let that keeps the user's name
   (with a fresh variable). *)
and norm_named ctx v (bound : Expr.t) (k : unit -> Expr.t) : Expr.t =
  match bound with
  | Expr.Let (v2, b2, body2) -> norm_named ctx v2 b2 (fun () -> norm_named ctx v body2 k)
  | _ when is_atom bound ->
      let bound = atom ctx bound in
      let v = rename ctx v in
      Expr.Let (v, bound, k ())
  | _ -> (
      match Memo.find ctx.memo bound with
      | Some a ->
          let v = rename ctx v in
          Expr.Let (v, a, k ())
      | None ->
          (* [rhs] builds the let once its operands are atoms; the
             binder is renamed after them, which cannot mention it *)
          let rhs r =
            let v = rename ctx v in
            if memoizable bound then Memo.add ctx.memo bound (Expr.Var v);
            Expr.Let (v, r, k ())
          in
          match bound with
          | Expr.Tuple es -> norm_list ctx es (fun atoms -> rhs (Expr.Tuple atoms))
          | Expr.Proj (e1, i) -> norm ctx e1 (fun a -> rhs (Expr.Proj (a, i)))
          | Expr.Call { callee; args; attrs } ->
              norm_callee ctx callee (fun c ->
                  norm_list ctx args (fun atoms -> rhs (Expr.Call { callee = c; args = atoms; attrs })))
          | Expr.Fn fn -> rhs (Expr.Fn (convert_fn_in ctx fn))
          | Expr.If (c, t, f) ->
              norm ctx c (fun ca -> rhs (Expr.If (ca, convert_scoped ctx t, convert_scoped ctx f)))
          | Expr.Match (scrut, clauses) ->
              norm ctx scrut (fun sa -> rhs (Expr.Match (sa, clauses_in ctx clauses)))
          | _ -> rhs bound)

and norm_list ctx es k =
  match es with
  | [] -> k []
  | e :: rest -> norm ctx e (fun a -> norm_list ctx rest (fun atoms -> k (a :: atoms)))

and clauses_in ctx clauses =
  List.map
    (fun cl ->
      let pat = pattern ctx cl.Expr.pat in
      { Expr.pat; rhs = convert_scoped ctx cl.Expr.rhs })
    clauses

(* Convert a branch body: outer bindings are visible, inner ones don't leak. *)
and convert_scoped ctx (e : Expr.t) : Expr.t =
  norm { ctx with memo = Memo.copy ctx.memo } e (fun a -> a)

and convert_fn_in ctx (fn : Expr.fn) : Expr.fn =
  let params = List.map (rename ctx) fn.Expr.params in
  { fn with Expr.params; body = norm { ctx with memo = Memo.create () } fn.Expr.body (fun a -> a) }

let context () = { memo = Memo.create (); vars = Hashtbl.create 64 }

(** Convert an expression to ANF. *)
let convert (e : Expr.t) : Expr.t = norm (context ()) e (fun a -> a)

(** Convert a function to ANF. *)
let convert_fn (fn : Expr.fn) : Expr.fn = convert_fn_in (context ()) fn

(** Convert every function of [m] into a new module. *)
let run (m : Irmod.t) : Irmod.t =
  let ctx = context () and out = Irmod.create () in
  List.iter (Irmod.add_adt out) (Irmod.adts m);
  List.iter (fun (name, fn) -> Irmod.add_func out name (convert_fn_in ctx fn)) (Irmod.functions m);
  out

(** Distinct expression nodes across a module's functions, a node the
    builder shares counted once: the module's size before conversion. A
    tree walk ({!Expr.size}) counts a shared node once per path to it. *)
let dag_size (m : Irmod.t) : int =
  let seen = Memo.create () and count = ref 0 in
  let rec visit e =
    if Memo.find seen e = None then begin
      Memo.add seen e e;
      incr count;
      List.iter visit (Expr.children e)
    end
  in
  List.iter (fun (_, fn) -> visit (Expr.Fn fn)) (Irmod.functions m);
  !count

(** Validate ANF: every let RHS is a single operation over atoms; useful in
    tests and as a pass precondition. *)
let rec is_anf (e : Expr.t) : bool =
  match e with
  | _ when is_atom e -> true
  | Expr.Let (_, bound, body) -> is_anf_rhs bound && is_anf body
  | Expr.If (c, t, f) -> is_atom c && is_anf t && is_anf f
  | Expr.Match (s, clauses) ->
      is_atom s && List.for_all (fun cl -> is_anf cl.Expr.rhs) clauses
  | _ -> is_anf_rhs e

and is_anf_rhs = function
  | Expr.Tuple es -> List.for_all is_atom es
  | Expr.Proj (e, _) -> is_atom e
  | Expr.Call { callee; args; _ } ->
      (is_atom callee || match callee with Expr.Fn _ -> true | _ -> false)
      && List.for_all is_atom args
  | Expr.Fn fn -> is_anf fn.Expr.body
  | Expr.If (c, t, f) -> is_atom c && is_anf t && is_anf f
  | Expr.Match (s, clauses) ->
      is_atom s && List.for_all (fun cl -> is_anf cl.Expr.rhs) clauses
  | e -> is_atom e
