(** Symbolic arena plans (see [arena_plan.mli]): the plan record and its
    IR attribute codec. *)

open Nimble_ir

type binder = { b_arg : int; b_dim : int; b_sym : int }
type slot = { s_offset : Sym_expr.t; s_size : Sym_expr.t }

type t = {
  device : int;
  align : int;
  binders : binder array;
  slots : slot array;
  total : Sym_expr.t;
}

let free_dims p =
  List.sort_uniq compare
    (Sym_expr.free_dims p.total
    @ List.concat_map
        (fun s -> Sym_expr.free_dims s.s_offset @ Sym_expr.free_dims s.s_size)
        (Array.to_list p.slots))

let to_attrs p : Attrs.t =
  [
    ("alignment", Attrs.Int p.align);
    ("device", Attrs.Int p.device);
    ("dtype", Attrs.Str "uint8");
    ("arena", Attrs.Bool true);
    ( "binders",
      Attrs.Ints
        (List.concat_map
           (fun b -> [ b.b_arg; b.b_dim; b.b_sym ])
           (Array.to_list p.binders)) );
    ( "slots",
      Attrs.Str
        (String.concat ";"
           (List.map
              (fun s -> Sym_expr.to_string s.s_offset ^ "|" ^ Sym_expr.to_string s.s_size)
              (Array.to_list p.slots))) );
    ("total", Attrs.Str (Sym_expr.to_string p.total));
  ]

exception Malformed of string

let of_attrs attrs =
  let fail fmt = Fmt.kstr (fun s -> raise (Malformed s)) fmt in
  let expr what s =
    try Sym_expr.of_string s
    with Sym_expr.Parse_error msg -> fail "unparseable %s: %s" what msg
  in
  let rec triples = function
    | [] -> []
    | b_arg :: b_dim :: b_sym :: rest -> { b_arg; b_dim; b_sym } :: triples rest
    | _ -> fail "binders are not (arg, dim, sym) triples"
  in
  let slot pair =
    match String.index_opt pair '|' with
    | Some i ->
        {
          s_offset = expr "slot offset" (String.sub pair 0 i);
          s_size = expr "slot size" (String.sub pair (i + 1) (String.length pair - i - 1));
        }
    | None -> fail "malformed slot %S" pair
  in
  match
    let binders = triples (Option.value ~default:[] (Attrs.find_ints attrs "binders")) in
    let slots =
      match Attrs.find_str attrs "slots" with
      | None | Some "" -> fail "missing slots"
      | Some s -> List.map slot (String.split_on_char ';' s)
    in
    let total =
      match Attrs.find_str attrs "total" with
      | Some s -> expr "total" s
      | None -> fail "missing total"
    in
    {
      device = Attrs.get_int ~default:0 attrs "device";
      align = Attrs.get_int ~default:64 attrs "alignment";
      binders = Array.of_list binders;
      slots = Array.of_list slots;
      total;
    }
  with
  | p -> Ok p
  | exception Malformed msg -> Error msg

let pp ppf p =
  Fmt.pf ppf "device=%d align=%d total=%s" p.device p.align (Sym_expr.to_string p.total);
  Array.iter
    (fun b -> Fmt.pf ppf "@\n  binder: arg%d dim%d -> s%d" b.b_arg b.b_dim b.b_sym)
    p.binders;
  Array.iteri
    (fun i s ->
      Fmt.pf ppf "@\n  slot %d: offset=%s size=%s" i (Sym_expr.to_string s.s_offset)
        (Sym_expr.to_string s.s_size))
    p.slots
