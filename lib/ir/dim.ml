(** Compile-time tensor dimensions.

    [Static n] is a known extent; [Any] is the paper's statically-unknown
    dimension (§4.1); [Sym id] is an [Any] that type inference has proven
    equal to other occurrences with the same [id] — the "identical Any"
    analysis that enables shape-specialized codegen. *)

type t =
  | Static of int
  | Any
  | Sym of int

let static n =
  if n < 0 then invalid_arg "Dim.static: negative extent";
  Static n

let is_static = function Static _ -> true | Any | Sym _ -> false
let is_dynamic d = not (is_static d)

let equal a b =
  match (a, b) with
  | Static x, Static y -> x = y
  | Any, Any -> true
  | Sym x, Sym y -> x = y
  | (Static _ | Any | Sym _), _ -> false

(** Whether a runtime extent [n] is admissible for this dimension — the
    gradual-typing residual check. *)
let admits d n =
  match d with
  | Static m -> m = n
  | Any | Sym _ -> n >= 0

let pp ppf = function
  | Static n -> Fmt.int ppf n
  | Any -> Fmt.string ppf "?"
  | Sym id -> Fmt.pf ppf "s%d" id

let to_string d = Fmt.str "%a" pp d

(** Broadcast relation for one dimension pair (paper §4.1):
    - [broadcast Any (Static 1)] is [Any]
    - [broadcast Any (Static d)] is [Static d] when [d > 1]
    - [broadcast Any Any] is [Any]. *)
let broadcast a b =
  match (a, b) with
  | Static 1, d | d, Static 1 -> Some d
  | Static x, Static y -> if x = y then Some (Static x) else None
  | Sym x, Sym y when x = y -> Some (Sym x)
  | (Any | Sym _), Static d | Static d, (Any | Sym _) ->
      (* d > 1 here (the d = 1 case matched above): the output must be d; the
         residual check that the dynamic side is 1 or d happens at runtime. *)
      Some (Static d)
  | (Any | Sym _), (Any | Sym _) -> Some Any

(** Try to add two dims statically (used by concat relations). *)
let add a b =
  match (a, b) with
  | Static x, Static y -> Static (x + y)
  | _, _ -> Any

let mul a b =
  match (a, b) with
  | Static x, Static y -> Static (x * y)
  | Static 0, _ | _, Static 0 -> Static 0
  | _, _ -> Any
