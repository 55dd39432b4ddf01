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

(* [norm memo e k]: normalize [e]; [k] receives an atom for [e]. *)
let rec norm memo (e : Expr.t) (k : Expr.t -> Expr.t) : Expr.t =
  match if memoizable e then Memo.find memo e else None with
  | Some atom -> k atom
  | None -> (
      match e with
      | Expr.Var _ | Expr.Const _ | Expr.Global _ | Expr.Op _ | Expr.Ctor _ -> k e
      | Expr.Tuple es -> norm_list memo es (fun atoms -> bind memo e (Expr.Tuple atoms) k)
      | Expr.Proj (e1, i) -> norm memo e1 (fun a -> bind memo e (Expr.Proj (a, i)) k)
      | Expr.Call { callee; args; attrs } ->
          let norm_callee f =
            match callee with
            | Expr.Op _ | Expr.Ctor _ | Expr.Global _ -> f callee
            | _ -> norm memo callee f
          in
          norm_callee (fun c ->
              norm_list memo args (fun atoms ->
                  bind memo e (Expr.Call { callee = c; args = atoms; attrs }) k))
      | Expr.Fn fn ->
          bind memo e (Expr.Fn { fn with Expr.body = convert fn.Expr.body }) k
      | Expr.Let (v, bound, body) -> norm_named memo v bound (fun () -> norm memo body k)
      | Expr.If (c, t, f) ->
          norm memo c (fun ca ->
              bind memo e
                (Expr.If (ca, convert_scoped memo t, convert_scoped memo f))
                k)
      | Expr.Match (scrut, clauses) ->
          norm memo scrut (fun sa ->
              let clauses =
                List.map
                  (fun cl -> { cl with Expr.rhs = convert_scoped memo cl.Expr.rhs })
                  clauses
              in
              bind memo e (Expr.Match (sa, clauses)) k))

(* Bind a normalized compound node [rebuilt] (for original node [orig]). *)
and bind memo (orig : Expr.t) (rebuilt : Expr.t) (k : Expr.t -> Expr.t) : Expr.t =
  if is_atom rebuilt then k rebuilt
  else begin
    let v = Expr.fresh_var "t" in
    if memoizable orig then Memo.add memo orig (Expr.Var v);
    Expr.Let (v, rebuilt, k (Expr.Var v))
  end

(* Normalize [bound] into the RHS of a let that keeps the user's name. *)
and norm_named memo v (bound : Expr.t) (k : unit -> Expr.t) : Expr.t =
  let remember () = if memoizable bound then Memo.add memo bound (Expr.Var v) in
  match bound with
  | Expr.Let (v2, b2, body2) -> norm_named memo v2 b2 (fun () -> norm_named memo v body2 k)
  | _ when is_atom bound -> Expr.Let (v, bound, k ())
  | _ -> (
      match Memo.find memo bound with
      | Some atom -> Expr.Let (v, atom, k ())
      | None -> (
          match bound with
          | Expr.Tuple es ->
              norm_list memo es (fun atoms ->
                  remember ();
                  Expr.Let (v, Expr.Tuple atoms, k ()))
          | Expr.Proj (e1, i) ->
              norm memo e1 (fun a ->
                  remember ();
                  Expr.Let (v, Expr.Proj (a, i), k ()))
          | Expr.Call { callee; args; attrs } ->
              let norm_callee f =
                match callee with
                | Expr.Op _ | Expr.Ctor _ | Expr.Global _ -> f callee
                | _ -> norm memo callee f
              in
              norm_callee (fun c ->
                  norm_list memo args (fun atoms ->
                      remember ();
                      Expr.Let (v, Expr.Call { callee = c; args = atoms; attrs }, k ())))
          | Expr.Fn fn ->
              Expr.Let (v, Expr.Fn { fn with Expr.body = convert fn.Expr.body }, k ())
          | Expr.If (c, t, f) ->
              norm memo c (fun ca ->
                  Expr.Let
                    (v, Expr.If (ca, convert_scoped memo t, convert_scoped memo f), k ()))
          | Expr.Match (scrut, clauses) ->
              norm memo scrut (fun sa ->
                  let clauses =
                    List.map
                      (fun cl -> { cl with Expr.rhs = convert_scoped memo cl.Expr.rhs })
                      clauses
                  in
                  Expr.Let (v, Expr.Match (sa, clauses), k ()))
          | _ -> Expr.Let (v, bound, k ())))

and norm_list memo es k =
  match es with
  | [] -> k []
  | e :: rest -> norm memo e (fun a -> norm_list memo rest (fun atoms -> k (a :: atoms)))

(* Convert a branch body: outer bindings are visible, inner ones don't leak. *)
and convert_scoped memo (e : Expr.t) : Expr.t = norm (Memo.copy memo) e (fun a -> a)

(** Convert an expression to ANF. *)
and convert (e : Expr.t) : Expr.t = norm (Memo.create ()) e (fun a -> a)

(** Convert a function body to ANF. *)
let convert_fn (fn : Expr.fn) : Expr.fn = { fn with Expr.body = convert fn.Expr.body }

(** Convert every function in a module. *)
let run (m : Irmod.t) : Irmod.t =
  Irmod.map_funcs m (fun _name fn -> convert_fn fn);
  m

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
