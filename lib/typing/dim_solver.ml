(** Union-find over symbolic dimensions.

    Implements the paper's sub-shaping analysis (§4.1): every [Any] dimension
    is replaced with a fresh [Sym] class; type relations unify classes that
    must denote the same extent; a class may be refined to a static extent.
    Unifying a dynamic dim against a static one records a *residual check* —
    the gradual-typing obligation that is re-verified at runtime by the shape
    functions. *)

open Nimble_ir

type node = Root of Dim.t | Link of int

type residual = { sym_id : int; expected : Dim.t; context : string }

type t = {
  classes : (int, node) Hashtbl.t;
  mutable residuals : residual list;
  mutable last_sym : int;
      (** highest [Sym] id this solver has handed out: classes are numbered
          per solver, so a module's ids do not depend on what the process
          inferred before *)
}

exception Dim_error of string

let err fmt = Fmt.kstr (fun s -> raise (Dim_error s)) fmt

let create () = { classes = Hashtbl.create 32; residuals = []; last_sym = 0 }

let fresh t =
  t.last_sym <- t.last_sym + 1;
  let d = Dim.Sym t.last_sym in
  Hashtbl.replace t.classes t.last_sym (Root d);
  d

let rec find_root t id =
  match Hashtbl.find_opt t.classes id with
  | None ->
      Hashtbl.replace t.classes id (Root (Dim.Sym id));
      (id, Dim.Sym id)
  | Some (Root d) -> (id, d)
  | Some (Link parent) ->
      let root = find_root t parent in
      Hashtbl.replace t.classes id (Link (fst root));
      root

(** The most specific known value of a dimension. *)
let resolve t (d : Dim.t) : Dim.t =
  match d with
  | Dim.Static _ | Dim.Any -> d
  | Dim.Sym id -> snd (find_root t id)

(** Replace every [Any] in a type with a fresh symbolic class. *)
let rec symbolize t (ty : Ty.t) : Ty.t =
  match ty with
  | Ty.Tensor { dims; dtype } ->
      let dims =
        Array.map (function Dim.Any -> fresh t | (Dim.Static _ | Dim.Sym _) as d -> d) dims
      in
      Ty.Tensor { dims; dtype }
  | Ty.Tuple ts -> Ty.Tuple (List.map (symbolize t) ts)
  | Ty.Func (args, ret) -> Ty.Func (List.map (symbolize t) args, symbolize t ret)
  | Ty.Adt _ | Ty.Storage | Ty.Var _ -> ty

(** Unify two dims; returns the representative. Static-vs-static mismatch is
    a compile-time error; dynamic-vs-static records a residual runtime check
    and refines the class. *)
let unify ?(context = "") t a b : Dim.t =
  let a = resolve t a and b = resolve t b in
  match (a, b) with
  | Dim.Static x, Dim.Static y ->
      if x = y then a else err "dimension mismatch: %d vs %d%s" x y
        (if context = "" then "" else " in " ^ context)
  | Dim.Any, d | d, Dim.Any -> d
  | Dim.Sym i, Dim.Sym j ->
      if i = j then a
      else begin
        let ri, _ = find_root t i and rj, _ = find_root t j in
        if ri <> rj then Hashtbl.replace t.classes rj (Link ri);
        Dim.Sym ri
      end
  | Dim.Sym i, (Dim.Static _ as s) | (Dim.Static _ as s), Dim.Sym i ->
      let ri, _ = find_root t i in
      Hashtbl.replace t.classes ri (Root s);
      t.residuals <- { sym_id = ri; expected = s; context } :: t.residuals;
      s

(** Are two dims known to denote the same extent? *)
let same t a b =
  match (resolve t a, resolve t b) with
  | Dim.Static x, Dim.Static y -> x = y
  | Dim.Sym i, Dim.Sym j -> fst (find_root t i) = fst (find_root t j)
  | _, _ -> false

(** Rewrite a type, resolving every [Sym] to its representative. *)
let rec apply t (ty : Ty.t) : Ty.t =
  match ty with
  | Ty.Tensor { dims; dtype } -> Ty.Tensor { dims = Array.map (resolve t) dims; dtype }
  | Ty.Tuple ts -> Ty.Tuple (List.map (apply t) ts)
  | Ty.Func (args, ret) -> Ty.Func (List.map (apply t) args, apply t ret)
  | Ty.Adt _ | Ty.Storage | Ty.Var _ -> ty

let residuals t = t.residuals
let residual_count t = List.length t.residuals
