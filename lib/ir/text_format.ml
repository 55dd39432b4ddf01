(** Textual format for Nimble IR modules: a parser and a printer that
    round-trip, playing the role of the paper's framework frontends — models
    can be written, stored and loaded as text.

    {[
      type TensorList = Nil() | Cons(Tensor[(1, ?), f32], TensorList)

      def @main(%x: Tensor[(?, 16), f32]) {
        let %h = dense(%x, randn[(8, 16), seed=3]);
        let %b = relu(%h);
        concat(%h, %b) {axis=1}
      }
    ]}

    Expressions: [let %v = e; e], [if (c) { e } else { e }],
    [match (e) { | Ctor(%a, %b) => { e } ... }], [fn (%p: ty) { e }],
    tuple [(e, e)], projection [e.0], op/global/constructor calls with
    optional [{k=v, ...}] attributes, scalar literals, and tensor literals
    [zeros[(d,...)]], [ones[...]], [randn[..., seed=n]]. *)

open Nimble_tensor

exception Parse_error of string

let err fmt = Fmt.kstr (fun s -> raise (Parse_error s)) fmt

(* ================================================================== *)
(* Lexer                                                               *)
(* ================================================================== *)

type token =
  | INT of int
  | FLOAT of float
  | STRING of string
  | LIDENT of string  (** lowercase identifier *)
  | UIDENT of string  (** capitalized identifier *)
  | VAR of string  (** %name *)
  | GLOBAL of string  (** @name *)
  | LPAREN | RPAREN | LBRACE | RBRACE | LBRACKET | RBRACKET
  | COMMA | SEMI | COLON | EQUALS | BAR | DOT | QUESTION
  | ARROW  (** -> *)
  | FATARROW  (** => *)
  | EOF

let pp_token ppf = function
  | INT i -> Fmt.pf ppf "int %d" i
  | FLOAT f -> Fmt.pf ppf "float %g" f
  | STRING s -> Fmt.pf ppf "string %S" s
  | LIDENT s -> Fmt.pf ppf "ident %s" s
  | UIDENT s -> Fmt.pf ppf "Ident %s" s
  | VAR s -> Fmt.pf ppf "%%%s" s
  | GLOBAL s -> Fmt.pf ppf "@%s" s
  | LPAREN -> Fmt.string ppf "(" | RPAREN -> Fmt.string ppf ")"
  | LBRACE -> Fmt.string ppf "{" | RBRACE -> Fmt.string ppf "}"
  | LBRACKET -> Fmt.string ppf "[" | RBRACKET -> Fmt.string ppf "]"
  | COMMA -> Fmt.string ppf "," | SEMI -> Fmt.string ppf ";"
  | COLON -> Fmt.string ppf ":" | EQUALS -> Fmt.string ppf "="
  | BAR -> Fmt.string ppf "|" | DOT -> Fmt.string ppf "."
  | QUESTION -> Fmt.string ppf "?"
  | ARROW -> Fmt.string ppf "->" | FATARROW -> Fmt.string ppf "=>"
  | EOF -> Fmt.string ppf "<eof>"

let is_ident_char c =
  (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9') || c = '_'

let tokenize (src : string) : token list =
  let n = String.length src in
  let toks = ref [] in
  let emit t = toks := t :: !toks in
  let i = ref 0 in
  let peek k = if !i + k < n then Some src.[!i + k] else None in
  let read_while pred start =
    let j = ref start in
    while !j < n && pred src.[!j] do incr j done;
    let s = String.sub src start (!j - start) in
    i := !j;
    s
  in
  while !i < n do
    let c = src.[!i] in
    if c = ' ' || c = '\t' || c = '\n' || c = '\r' then incr i
    else if c = '-' && peek 1 = Some '-' then begin
      (* line comment *)
      while !i < n && src.[!i] <> '\n' do incr i done
    end
    else if c = '-' && peek 1 = Some '>' then begin
      emit ARROW;
      i := !i + 2
    end
    else if c = '=' && peek 1 = Some '>' then begin
      emit FATARROW;
      i := !i + 2
    end
    else if c = '%' then begin
      incr i;
      emit (VAR (read_while is_ident_char !i))
    end
    else if c = '@' then begin
      incr i;
      emit (GLOBAL (read_while is_ident_char !i))
    end
    else if c = '"' then begin
      incr i;
      let start = !i in
      while !i < n && src.[!i] <> '"' do incr i done;
      if !i >= n then err "unterminated string literal";
      emit (STRING (String.sub src start (!i - start)));
      incr i
    end
    else if (c >= '0' && c <= '9') || (c = '-' && (match peek 1 with Some d -> d >= '0' && d <= '9' | None -> false)) then begin
      let start = !i in
      if c = '-' then incr i;
      let _ = read_while (fun ch -> (ch >= '0' && ch <= '9') || ch = '.' || ch = 'e' || ch = 'E' || ch = '-' || ch = '+') !i in
      let lit = String.sub src start (!i - start) in
      if String.contains lit '.' || String.contains lit 'e' || String.contains lit 'E'
      then
        match float_of_string_opt lit with
        | Some v -> emit (FLOAT v)
        | None -> err "malformed float literal %s" lit
      else
        match int_of_string_opt lit with
        | Some v -> emit (INT v)
        | None -> err "integer literal %s out of range" lit
    end
    else if (c >= 'a' && c <= 'z') || c = '_' then
      emit (LIDENT (read_while is_ident_char !i))
    else if c >= 'A' && c <= 'Z' then
      let word = read_while is_ident_char !i in
      if word = "Tensor" || word = "Storage" then emit (UIDENT word)
      else emit (UIDENT word)
    else begin
      (match c with
      | '(' -> emit LPAREN
      | ')' -> emit RPAREN
      | '{' -> emit LBRACE
      | '}' -> emit RBRACE
      | '[' -> emit LBRACKET
      | ']' -> emit RBRACKET
      | ',' -> emit COMMA
      | ';' -> emit SEMI
      | ':' -> emit COLON
      | '=' -> emit EQUALS
      | '|' -> emit BAR
      | '.' -> emit DOT
      | '?' -> emit QUESTION
      | c -> err "unexpected character %C" c);
      incr i
    end
  done;
  List.rev (EOF :: !toks)

(* ================================================================== *)
(* Parser                                                              *)
(* ================================================================== *)

type parser_state = {
  mutable toks : token list;
  mutable vars : (string * Expr.var) list;  (** in-scope name -> var *)
  adts : (string, Adt.def) Hashtbl.t;
}

let current p = match p.toks with t :: _ -> t | [] -> EOF

let advance p = match p.toks with _ :: rest -> p.toks <- rest | [] -> ()

let expect p t =
  if current p = t then advance p
  else err "expected %a, found %a" pp_token t pp_token (current p)

let parse_lident p =
  match current p with
  | LIDENT s -> advance p; s
  | t -> err "expected identifier, found %a" pp_token t

let parse_int p =
  match current p with
  | INT v -> advance p; v
  | t -> err "expected integer, found %a" pp_token t

let dtype_of_name = function
  | "f32" -> Dtype.F32
  | "f64" -> Dtype.F64
  | "i32" -> Dtype.I32
  | "i64" -> Dtype.I64
  | "u8" -> Dtype.U8
  | s -> err "unknown dtype %s" s

let dtype_name = function
  | Dtype.F32 -> "f32"
  | Dtype.F64 -> "f64"
  | Dtype.I32 -> "i32"
  | Dtype.I64 -> "i64"
  | Dtype.U8 -> "u8"

(* --------------------------- types --------------------------- *)

let rec parse_ty p : Ty.t =
  match current p with
  | UIDENT "Tensor" ->
      advance p;
      expect p LBRACKET;
      expect p LPAREN;
      let dims = ref [] in
      while current p <> RPAREN do
        (match current p with
        | INT v when v >= 0 -> advance p; dims := Dim.static v :: !dims
        | INT v -> err "negative dimension %d" v
        | QUESTION -> advance p; dims := Dim.Any :: !dims
        | t -> err "expected dimension, found %a" pp_token t);
        if current p = COMMA then advance p
      done;
      expect p RPAREN;
      expect p COMMA;
      let dt = dtype_of_name (parse_lident p) in
      expect p RBRACKET;
      Ty.Tensor { dims = Array.of_list (List.rev !dims); dtype = dt }
  | UIDENT "Storage" -> advance p; Ty.Storage
  | UIDENT name -> advance p; Ty.Adt name
  | LPAREN ->
      advance p;
      let tys = ref [] in
      while current p <> RPAREN do
        tys := parse_ty p :: !tys;
        if current p = COMMA then advance p
      done;
      expect p RPAREN;
      Ty.Tuple (List.rev !tys)
  | t -> err "expected a type, found %a" pp_token t

(* --------------------------- attrs --------------------------- *)

let parse_attr_value p : Attrs.value =
  match current p with
  | INT v -> advance p; Attrs.Int v
  | FLOAT v -> advance p; Attrs.Float v
  | STRING s -> advance p; Attrs.Str s
  | LIDENT "true" -> advance p; Attrs.Bool true
  | LIDENT "false" -> advance p; Attrs.Bool false
  | LBRACKET ->
      advance p;
      let vs = ref [] in
      while current p <> RBRACKET do
        vs := parse_int p :: !vs;
        if current p = COMMA then advance p
      done;
      expect p RBRACKET;
      Attrs.Ints (List.rev !vs)
  | t -> err "expected attribute value, found %a" pp_token t

let parse_attrs p : Attrs.t =
  if current p <> LBRACE then Attrs.empty
  else begin
    advance p;
    let attrs = ref [] in
    while current p <> RBRACE do
      let key = parse_lident p in
      expect p EQUALS;
      let v = parse_attr_value p in
      attrs := (key, v) :: !attrs;
      if current p = COMMA then advance p
    done;
    expect p RBRACE;
    List.rev !attrs
  end

(* --------------------------- tensor literals --------------------------- *)

(* zeros[(2, 3)] | ones[(2, 3), f32] | randn[(2, 3), seed=7] *)
let parse_tensor_literal p kind : Tensor.t =
  expect p LBRACKET;
  expect p LPAREN;
  let dims = ref [] in
  while current p <> RPAREN do
    dims := parse_int p :: !dims;
    if current p = COMMA then advance p
  done;
  expect p RPAREN;
  let shape = Array.of_list (List.rev !dims) in
  let dtype = ref Dtype.F32 in
  let seed = ref 0 in
  while current p = COMMA do
    advance p;
    match current p with
    | LIDENT "seed" ->
        advance p;
        expect p EQUALS;
        seed := parse_int p
    | LIDENT dt -> advance p; dtype := dtype_of_name dt
    | t -> err "expected dtype or seed=, found %a" pp_token t
  done;
  expect p RBRACKET;
  match kind with
  | `Zeros -> Tensor.zeros ~dtype:!dtype shape
  | `Ones -> Tensor.ones ~dtype:!dtype shape
  | `Randn -> Tensor.randn ~dtype:!dtype (Rng.create ~seed:!seed) shape

(* tensor[(d, ...), dtype; v, v, ...] — the lossless dense literal the
   printer emits for arbitrary constants *)
let parse_dense_literal p : Tensor.t =
  expect p LBRACKET;
  expect p LPAREN;
  let dims = ref [] in
  while current p <> RPAREN do
    dims := parse_int p :: !dims;
    if current p = COMMA then advance p
  done;
  expect p RPAREN;
  expect p COMMA;
  let dtype = dtype_of_name (parse_lident p) in
  let shape = Array.of_list (List.rev !dims) in
  expect p SEMI;
  let vals = ref [] in
  let parse_num () =
    match current p with
    | FLOAT v -> advance p; v
    | INT v -> advance p; float_of_int v
    | t -> err "expected a number in tensor literal, found %a" pp_token t
  in
  while current p <> RBRACKET do
    vals := parse_num () :: !vals;
    if current p = COMMA then advance p
  done;
  expect p RBRACKET;
  Tensor.of_float_array ~dtype shape (Array.of_list (List.rev !vals))

(* --------------------------- expressions --------------------------- *)

let lookup_var p name =
  match List.assoc_opt name p.vars with
  | Some v -> v
  | None -> err "unbound variable %%%s" name

let lookup_ctor p name =
  let found = ref None in
  Hashtbl.iter
    (fun _ def -> match Adt.find_ctor def name with Some c -> found := Some c | None -> ())
    p.adts;
  match !found with Some c -> c | None -> err "unknown constructor %s" name

let rec parse_expr p : Expr.t =
  match current p with
  | LIDENT "let" ->
      advance p;
      let name = match current p with VAR s -> advance p; s | t -> err "expected %%var, found %a" pp_token t in
      (* optional annotation *)
      let ty = if current p = COLON then (advance p; Some (parse_ty p)) else None in
      expect p EQUALS;
      let bound = parse_expr p in
      expect p SEMI;
      let v = Expr.fresh_var ?ty name in
      let saved = p.vars in
      p.vars <- (name, v) :: p.vars;
      let body = parse_expr p in
      p.vars <- saved;
      Expr.Let (v, bound, body)
  | LIDENT "if" ->
      advance p;
      expect p LPAREN;
      let c = parse_expr p in
      expect p RPAREN;
      expect p LBRACE;
      let t = parse_expr p in
      expect p RBRACE;
      expect p (LIDENT "else");
      expect p LBRACE;
      let f = parse_expr p in
      expect p RBRACE;
      Expr.If (c, t, f)
  | LIDENT "match" ->
      advance p;
      expect p LPAREN;
      let scrut = parse_expr p in
      expect p RPAREN;
      expect p LBRACE;
      let clauses = ref [] in
      while current p = BAR do
        advance p;
        let pat = parse_pattern p in
        expect p FATARROW;
        expect p LBRACE;
        let saved = p.vars in
        List.iter (fun (v : Expr.var) -> p.vars <- (v.Expr.vname, v) :: p.vars) (Expr.pat_vars pat);
        let rhs = parse_expr p in
        p.vars <- saved;
        expect p RBRACE;
        clauses := { Expr.pat; rhs } :: !clauses
      done;
      expect p RBRACE;
      Expr.Match (scrut, List.rev !clauses)
  | LIDENT "fn" ->
      advance p;
      expect p LPAREN;
      let params = parse_params p in
      expect p RPAREN;
      expect p LBRACE;
      let saved = p.vars in
      List.iter (fun (v : Expr.var) -> p.vars <- (v.Expr.vname, v) :: p.vars) params;
      let body = parse_expr p in
      p.vars <- saved;
      expect p RBRACE;
      Expr.fn params body
  | _ -> parse_postfix p

and parse_params p : Expr.var list =
  let params = ref [] in
  while current p <> RPAREN do
    (match current p with
    | VAR name ->
        advance p;
        expect p COLON;
        let ty = parse_ty p in
        params := Expr.fresh_var ~ty name :: !params
    | t -> err "expected %%param, found %a" pp_token t);
    if current p = COMMA then advance p
  done;
  List.rev !params

and parse_pattern p : Expr.pat =
  match current p with
  | LIDENT "_" -> advance p; Expr.Pwild
  | VAR name -> advance p; Expr.Pvar (Expr.fresh_var name)
  | UIDENT cname ->
      advance p;
      let ctor = lookup_ctor p cname in
      expect p LPAREN;
      let pats = ref [] in
      while current p <> RPAREN do
        pats := parse_pattern p :: !pats;
        if current p = COMMA then advance p
      done;
      expect p RPAREN;
      Expr.Pctor (ctor, List.rev !pats)
  | t -> err "expected a pattern, found %a" pp_token t

and parse_postfix p : Expr.t =
  let e = ref (parse_atom p) in
  while current p = DOT do
    advance p;
    let i = parse_int p in
    e := Expr.Proj (!e, i)
  done;
  !e

and parse_call_args p : Expr.t list =
  expect p LPAREN;
  let args = ref [] in
  while current p <> RPAREN do
    args := parse_expr p :: !args;
    if current p = COMMA then advance p
  done;
  expect p RPAREN;
  List.rev !args

and parse_atom p : Expr.t =
  match current p with
  | VAR name ->
      advance p;
      let v = lookup_var p name in
      if current p = LPAREN then
        (* closure call *)
        Expr.call (Expr.Var v) (parse_call_args p)
      else Expr.Var v
  | GLOBAL name ->
      advance p;
      if current p = LPAREN then Expr.call (Expr.Global name) (parse_call_args p)
      else Expr.Global name
  | FLOAT v -> advance p; Expr.const_scalar v
  | INT v -> advance p; Expr.const_scalar (float_of_int v)
  | LIDENT "tensor" -> advance p; Expr.Const (parse_dense_literal p)
  | LIDENT "zeros" -> advance p; Expr.Const (parse_tensor_literal p `Zeros)
  | LIDENT "ones" -> advance p; Expr.Const (parse_tensor_literal p `Ones)
  | LIDENT "randn" -> advance p; Expr.Const (parse_tensor_literal p `Randn)
  | LIDENT op_name when Op.exists op_name ->
      advance p;
      let args = parse_call_args p in
      let attrs = parse_attrs p in
      Expr.op_call ~attrs op_name args
  | UIDENT cname ->
      advance p;
      let ctor = lookup_ctor p cname in
      Expr.ctor_call ctor (parse_call_args p)
  | LPAREN ->
      advance p;
      let first = parse_expr p in
      if current p = RPAREN then begin
        advance p;
        first
      end
      else begin
        let es = ref [ first ] in
        while current p = COMMA do
          advance p;
          es := parse_expr p :: !es
        done;
        expect p RPAREN;
        Expr.Tuple (List.rev !es)
      end
  | t -> err "expected an expression, found %a" pp_token t

(* --------------------------- top level --------------------------- *)

let parse_adt_def p : Adt.def =
  expect p (LIDENT "type");
  let name = match current p with UIDENT s -> advance p; s | t -> err "expected type name, found %a" pp_token t in
  expect p EQUALS;
  let ctors = ref [] in
  let parse_ctor () =
    let cname = match current p with UIDENT s -> advance p; s | t -> err "expected constructor, found %a" pp_token t in
    expect p LPAREN;
    let tys = ref [] in
    while current p <> RPAREN do
      tys := parse_ty p :: !tys;
      if current p = COMMA then advance p
    done;
    expect p RPAREN;
    ctors := (cname, List.rev !tys) :: !ctors
  in
  parse_ctor ();
  while current p = BAR do
    advance p;
    parse_ctor ()
  done;
  Adt.define ~name (List.rev !ctors)

let parse_fun_def p : string * Expr.fn =
  expect p (LIDENT "def");
  let name = match current p with GLOBAL s -> advance p; s | t -> err "expected @name, found %a" pp_token t in
  expect p LPAREN;
  let params = parse_params p in
  expect p RPAREN;
  let ret_ty = if current p = ARROW then (advance p; Some (parse_ty p)) else None in
  expect p LBRACE;
  let saved = p.vars in
  List.iter (fun (v : Expr.var) -> p.vars <- (v.Expr.vname, v) :: p.vars) params;
  let body = parse_expr p in
  p.vars <- saved;
  expect p RBRACE;
  (name, Expr.fn_def ?ret_ty params body)

(** Parse a textual module. *)
let parse_module (src : string) : Irmod.t =
  let p = { toks = tokenize src; vars = []; adts = Hashtbl.create 4 } in
  let m = Irmod.create () in
  let rec go () =
    match current p with
    | EOF -> ()
    | LIDENT "type" ->
        let def = parse_adt_def p in
        Hashtbl.replace p.adts def.Adt.name def;
        Irmod.add_adt m def;
        go ()
    | LIDENT "def" ->
        let name, fn = parse_fun_def p in
        Irmod.add_func m name fn;
        go ()
    | t -> err "expected 'type' or 'def' at top level, found %a" pp_token t
  in
  go ();
  m

(* ================================================================== *)
(* Printer (emits the same format; constants print as literals when    *)
(* recognizable, otherwise as inline data via zeros + note)            *)
(* ================================================================== *)

let print_dim ppf = function
  | Dim.Static n -> Fmt.int ppf n
  | Dim.Any | Dim.Sym _ -> Fmt.string ppf "?"

let rec print_ty ppf = function
  | Ty.Tensor { dims; dtype } ->
      Fmt.pf ppf "Tensor[(%a), %s]" Fmt.(array ~sep:(any ", ") print_dim) dims
        (dtype_name dtype)
  | Ty.Tuple ts -> Fmt.pf ppf "(%a)" Fmt.(list ~sep:(any ", ") print_ty) ts
  | Ty.Adt name -> Fmt.string ppf name
  | Ty.Storage -> Fmt.string ppf "Storage"
  | Ty.Func _ | Ty.Var _ -> err "cannot print function or inference types"

let var_name (v : Expr.var) = Fmt.str "%s_%d" v.Expr.vname v.Expr.vid

(* Constants are printed as literals when they are recognizably uniform;
   arbitrary data falls back to zeros with a comment (lossy — weights should
   be attached programmatically or via the serialized executable). *)
let print_const ppf (t : Tensor.t) =
  let shape = Tensor.shape t in
  if Tensor.numel t = 1 && Shape.rank shape = 0 then
    Fmt.pf ppf "%.17g" (Tensor.item t)
  else
    let v0 = if Tensor.numel t > 0 then Tensor.get_float t 0 else 0.0 in
    let uniform =
      let ok = ref true in
      for i = 0 to Tensor.numel t - 1 do
        if Tensor.get_float t i <> v0 then ok := false
      done;
      !ok
    in
    let dims = Fmt.str "(%a)" Fmt.(array ~sep:(any ", ") int) shape in
    if uniform && v0 = 0.0 then Fmt.pf ppf "zeros[%s, %s]" dims (dtype_name (Tensor.dtype t))
    else if uniform && v0 = 1.0 then Fmt.pf ppf "ones[%s, %s]" dims (dtype_name (Tensor.dtype t))
    else begin
      (* lossless dense literal *)
      Fmt.pf ppf "tensor[%s, %s;" dims (dtype_name (Tensor.dtype t));
      for i = 0 to Tensor.numel t - 1 do
        if i > 0 then Fmt.pf ppf ",";
        Fmt.pf ppf " %.17g" (Tensor.get_float t i)
      done;
      Fmt.pf ppf "]"
    end

let rec print_expr ppf (e : Expr.t) =
  match e with
  | Expr.Var v -> Fmt.pf ppf "%%%s" (var_name v)
  | Expr.Global g -> Fmt.pf ppf "@%s" g
  | Expr.Op o -> Fmt.string ppf o
  | Expr.Ctor c -> Fmt.pf ppf "%s" c.Adt.ctor_name
  | Expr.Const t -> print_const ppf t
  | Expr.Tuple es -> Fmt.pf ppf "(%a)" Fmt.(list ~sep:(any ", ") print_expr) es
  | Expr.Proj (e1, i) -> Fmt.pf ppf "%a.%d" print_expr e1 i
  | Expr.Call { callee = Expr.Op name; args; attrs } ->
      Fmt.pf ppf "%s(%a)%a" name Fmt.(list ~sep:(any ", ") print_expr) args print_attrs attrs
  | Expr.Call { callee = Expr.Ctor c; args; _ } ->
      Fmt.pf ppf "%s(%a)" c.Adt.ctor_name Fmt.(list ~sep:(any ", ") print_expr) args
  | Expr.Call { callee = Expr.Global g; args; _ } ->
      Fmt.pf ppf "@%s(%a)" g Fmt.(list ~sep:(any ", ") print_expr) args
  | Expr.Call { callee; args; _ } ->
      Fmt.pf ppf "%a(%a)" print_expr callee Fmt.(list ~sep:(any ", ") print_expr) args
  | Expr.Fn fn ->
      Fmt.pf ppf "fn (%a) {@;<1 2>@[<v>%a@]@ }" print_params fn.Expr.params print_expr
        fn.Expr.body
  | Expr.Let (v, bound, body) ->
      Fmt.pf ppf "@[<v>let %%%s = %a;@ %a@]" (var_name v) print_expr bound print_expr body
  | Expr.If (c, t, f) ->
      Fmt.pf ppf "@[<v>if (%a) {@;<1 2>@[<v>%a@]@ } else {@;<1 2>@[<v>%a@]@ }@]"
        print_expr c print_expr t print_expr f
  | Expr.Match (scrut, clauses) ->
      let pp_clause ppf { Expr.pat; rhs } =
        Fmt.pf ppf "| %a => {@;<1 2>@[<v>%a@]@ }" print_pat pat print_expr rhs
      in
      Fmt.pf ppf "@[<v>match (%a) {@ %a@ }@]" print_expr scrut
        Fmt.(list ~sep:(any "@ ") pp_clause)
        clauses

and print_pat ppf = function
  | Expr.Pwild -> Fmt.string ppf "_"
  | Expr.Pvar v -> Fmt.pf ppf "%%%s" (var_name v)
  | Expr.Pctor (c, ps) ->
      Fmt.pf ppf "%s(%a)" c.Adt.ctor_name Fmt.(list ~sep:(any ", ") print_pat) ps

and print_params ppf params =
  Fmt.(list ~sep:(any ", "))
    (fun ppf (v : Expr.var) ->
      match v.Expr.vty with
      | Some ty -> Fmt.pf ppf "%%%s: %a" (var_name v) print_ty ty
      | None -> err "cannot print unannotated parameter %%%s" v.Expr.vname)
    ppf params

and print_attrs ppf (attrs : Attrs.t) =
  if attrs = [] then ()
  else
    let pp_v ppf = function
      | Attrs.Int i -> Fmt.int ppf i
      | Attrs.Float f -> Fmt.pf ppf "%.17g" f
      | Attrs.Bool b -> Fmt.bool ppf b
      | Attrs.Str s -> Fmt.pf ppf "%S" s
      | Attrs.Ints l -> Fmt.pf ppf "[%a]" Fmt.(list ~sep:(any ", ") int) l
    in
    Fmt.pf ppf " {%a}"
      Fmt.(list ~sep:(any ", ") (pair ~sep:(any "=") string pp_v))
      attrs

let print_adt ppf (def : Adt.def) =
  let pp_ctor ppf (c : Adt.ctor) =
    Fmt.pf ppf "%s(%a)" c.Adt.ctor_name Fmt.(list ~sep:(any ", ") print_ty) c.Adt.arg_tys
  in
  Fmt.pf ppf "type %s = %a" def.Adt.name Fmt.(list ~sep:(any " | ") pp_ctor) def.Adt.ctors

(** Print a module in the textual format. *)
let print_module ppf (m : Irmod.t) =
  List.iter (fun def -> Fmt.pf ppf "%a@.@." print_adt def) (Irmod.adts m);
  List.iter
    (fun (name, (fn : Expr.fn)) ->
      match fn.Expr.ret_ty with
      | Some ret ->
          Fmt.pf ppf "@[<v>def @@%s(%a) -> %a {@;<1 2>@[<v>%a@]@ }@]@.@." name
            print_params fn.Expr.params print_ty ret print_expr fn.Expr.body
      | None ->
          Fmt.pf ppf "@[<v>def @@%s(%a) {@;<1 2>@[<v>%a@]@ }@]@.@." name print_params
            fn.Expr.params print_expr fn.Expr.body)
    (Irmod.functions m)

let module_to_string m = Fmt.str "%a" print_module m
