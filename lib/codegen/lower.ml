(** Lowering straight-line bodies to runners, once, at link time.

    A primitive function (produced by the fusion pass) is a straight-line
    dataflow of operator calls, and so is the [main] of a fused static
    module. {!compile} numbers such a body's parameters and let-bindings
    into slots and resolves every call site once; the runner it returns
    fills a fresh slot array per call and never walks the IR again.
    Composed shape functions ({!shape_func_of_primitive}) and the static
    executor use it directly. Kernels ({!lower}) are staged: each maximal
    chain of elementwise operators runs as one strided loop through
    scratch strips, and the kernel writes its outputs into the
    destinations [invoke_mut] hands it. [dense] calls inside a kernel are
    routed through the symbolic residue {!Dispatch} when one is
    configured — this is where symbolic codegen plugs into the
    pipeline. Every executed op reports to {!Trace}. *)

open Nimble_tensor
open Nimble_ir
module SF = Nimble_shape.Shape_func

exception Lower_error of string

let err fmt = Fmt.kstr (fun s -> raise (Lower_error s)) fmt

type 'a value = Leaf of 'a | Tuple of 'a value list

let rec flatten v acc =
  match v with Leaf x -> x :: acc | Tuple vs -> List.fold_right flatten vs acc

let leaves v = flatten v []

(* An operator's outputs as one value: a leaf, or a tuple of leaves. *)
let outputs = function [ x ] -> Leaf x | xs -> Tuple (List.map (fun x -> Leaf x) xs)

(* ------------------------------------------------------------------ *)
(* Bodies as sites                                                     *)
(* ------------------------------------------------------------------ *)

type rhs = Call of Expr.t * Attrs.t * int list | Tup of int list | Proj of int * int

(* A body as sites in evaluation order. Slots [0, n_params) hold the
   parameters; each constant, call, tuple and projection gets one slot,
   and a let-bound variable names the slot of its bound expression. *)
type body = {
  n_params : int;
  n_slots : int;
  consts : (int * Tensor.t) list;
  sites : (int * rhs) array;
  result : int;
}

let sites_of ~error ~name (fn : Expr.fn) =
  let fail fmt = Fmt.kstr (fun s -> raise (error (name ^ ": " ^ s))) fmt in
  let slots = Hashtbl.create 16 and n = ref 0 and consts = ref [] and sites = ref [] in
  let fresh () =
    incr n;
    !n - 1
  in
  let bind (v : Expr.var) s = Hashtbl.replace slots v.Expr.vid s in
  List.iter (fun p -> bind p (fresh ())) fn.Expr.params;
  let n_params = !n in
  let site rhs =
    let s = fresh () in
    sites := (s, rhs) :: !sites;
    s
  in
  let rec go (e : Expr.t) =
    match e with
    | Expr.Var v -> (
        match Hashtbl.find_opt slots v.Expr.vid with
        | Some s -> s
        | None -> fail "unbound variable %%%s" v.Expr.vname)
    | Expr.Const t ->
        let s = fresh () in
        consts := (s, t) :: !consts;
        s
    | Expr.Tuple es ->
        let ss = List.map go es in
        site (Tup ss)
    | Expr.Proj (e1, i) ->
        let s1 = go e1 in
        site (Proj (s1, i))
    | Expr.Let (v, bound, body) ->
        bind v (go bound);
        go body
    | Expr.Call { callee; args; attrs } ->
        let ss = List.map go args in
        site (Call (callee, attrs, ss))
    | Expr.Global _ | Expr.Op _ | Expr.Ctor _ | Expr.Fn _ | Expr.If _ | Expr.Match _ ->
        fail "control flow or function values inside a straight-line body"
  in
  let result = go fn.Expr.body in
  { n_params; n_slots = !n; consts = !consts; sites = Array.of_list (List.rev !sites); result }

let gather env args = List.fold_right (fun a acc -> flatten env.(a) acc) args []

let project ~error ~name v i =
  match v with
  | Tuple vs when i < List.length vs -> List.nth vs i
  | _ -> raise (error (Fmt.str "%s: projection %d out of a value without it" name i))

let compile ~error ~name ~const ~call (fn : Expr.fn) =
  let fail fmt = Fmt.kstr (fun s -> raise (error (name ^ ": " ^ s))) fmt in
  let b = sites_of ~error ~name fn in
  let template = Array.make b.n_slots (Tuple []) in
  List.iter (fun (s, t) -> template.(s) <- Leaf (const t)) b.consts;
  let steps =
    Array.map
      (fun (s, rhs) ->
        match rhs with
        | Call (callee, attrs, args) ->
            let f = call callee attrs in
            fun env -> env.(s) <- f (gather env args)
        | Tup args -> fun env -> env.(s) <- Tuple (List.map (fun a -> env.(a)) args)
        | Proj (a, i) -> fun env -> env.(s) <- project ~error ~name env.(a) i)
      b.sites
  in
  fun args ->
    if List.length args <> b.n_params then
      fail "expected %d arguments, got %d" b.n_params (List.length args);
    let env = Array.copy template in
    List.iteri (fun i a -> env.(i) <- Leaf a) args;
    Array.iter (fun step -> step env) steps;
    env.(b.result)

let op_name ~name = function
  | Expr.Op op -> op
  | _ -> err "%s: a primitive body may only call operators" name

(* ------------------------------------------------------------------ *)
(* Staged kernels                                                      *)
(* ------------------------------------------------------------------ *)

type kernel = Tensor.t list -> Tensor.t array -> Tensor.t array

(* An elementwise operator a chain computes, and what a chain absorbs:
   such an operator, or a slice read as an offset and strides into its
   input. *)
type elem = Un of Ops_elem.unop | Bin of Ops_elem.binop
type member = Elem of elem | Slice of int array * int array  (** begins, ends *)

(* A chain computes in floats: an operator joins one when it keeps
   floats float, so comparisons and logical operators (whose results are
   [U8]) stay resolved calls, and a chain over float leaves has their
   promoted dtype. *)
let member_of op attrs nargs =
  let keeps_float dt = Dtype.equal dt Dtype.F32 in
  match (Ops_elem.unop_of_name op, Ops_elem.binop_of_name op, nargs) with
  | Some u, _, 1 when keeps_float (Ops_elem.unop_dtype u Dtype.F32) -> Some (Elem (Un u))
  | _, Some b, 2 when keeps_float (Ops_elem.binop_dtype b Dtype.F32 Dtype.F32) -> Some (Elem (Bin b))
  | _ when op = "strided_slice" && nargs = 1 -> (
      match (Attrs.find_ints attrs "begins", Attrs.find_ints attrs "ends") with
      | Some b, Some e -> Some (Slice (Array.of_list b, Array.of_list e))
      | _ -> None)
  | _ -> None

let window_shape s begins ends =
  let lo, hi = Ops_shape.slice_window s ~begins ~ends in
  Array.mapi (fun i h -> h - lo.(i)) hi

(* An elementwise operator's output shape from its inputs'. *)
let elem_shape e (ins : Shape.t list) =
  match (e, ins) with
  | Un _, [ s ] -> s
  | Bin op, [ sa; sb ] -> (
      match Shape.broadcast sa sb with
      | Some s -> s
      | None ->
          Tensor.type_err "%s: cannot broadcast %a with %a" (Ops_elem.binop_name op) Shape.pp sa
            Shape.pp sb)
  | _ -> err "elementwise operator with the wrong number of inputs"

(* A member's output shape and dtype from its inputs'. *)
let member_desc m (ins : (Shape.t * Dtype.t) list) =
  match (m, ins) with
  | Elem (Un op as e), [ (s, dt) ] -> (elem_shape e [ s ], Ops_elem.unop_dtype op dt)
  | Elem (Bin op as e), [ (sa, da); (sb, db) ] -> (elem_shape e [ sa; sb ], Ops_elem.binop_dtype op da db)
  | Slice (b, e), [ (s, dt) ] -> (window_shape s b e, dt)
  | _ -> err "elementwise member with the wrong number of inputs"

(* A chain: [nodes] in post-order, the root last, each reading leaves
   and earlier nodes. Node [j] writes strip [strip.(j)]; the root writes
   the chain's target. *)
type arg = L of int | N of int

type leaf = { slot : int; view : (int array * int array) option }

type node = { op : elem; args : arg array }

type chain = {
  root : int;
  nodes : node array;
  strip : int array;
  n_strips : int;
  leaves : leaf array;
  dst : int option;  (** the output the root writes *)
  static : (Shape.t array * Shape.t * Strided.plan) option;
      (** leaf shapes, output shape and plan, when every leaf's shape is
          known at link time *)
}

(* Elements per scratch strip: a strip stays on the minor heap. *)
let strip_len = 256

(* Leaf [l] of shape [s] as a loop operand over [out]: its first element
   and, per dim of [out], its stride (0 where it broadcasts). *)
let operand out (l : leaf) s =
  let st = Shape.strides s in
  let off, vs =
    match l.view with
    | None -> (0, s)
    | Some (b, e) ->
        let lo, hi = Ops_shape.slice_window s ~begins:b ~ends:e in
        (Array.fold_left ( + ) 0 (Array.map2 ( * ) lo st), Array.mapi (fun i h -> h - lo.(i)) hi)
  in
  let lead = Array.length out - Array.length vs in
  (off, Array.init (Array.length out) (fun i -> if i < lead || vs.(i - lead) = 1 then 0 else st.(i - lead)))

(* The chain's output shape and loop plan for leaves of shapes [shapes]. *)
let plan_chain c shapes =
  let node_shapes = Array.make (Array.length c.nodes) [||] in
  let shape_of = function
    | L i -> (
        match c.leaves.(i).view with None -> shapes.(i) | Some (b, e) -> window_shape shapes.(i) b e)
    | N k -> node_shapes.(k)
  in
  Array.iteri
    (fun j (n : node) -> node_shapes.(j) <- elem_shape n.op (List.map shape_of (Array.to_list n.args)))
    c.nodes;
  let out = node_shapes.(Array.length c.nodes - 1) in
  let ops = Array.mapi (fun i l -> operand out l shapes.(i)) c.leaves in
  (out, Strided.plan out (Array.append [| (0, Shape.strides out) |] ops))

let same_buf (a : Tensor.t) (b : Tensor.t) =
  match (a.Tensor.buf, b.Tensor.buf) with
  | Tensor.Floats x, Tensor.Floats y -> Array.length x > 0 && x == y
  | Tensor.Ints x, Tensor.Ints y -> Array.length x > 0 && x == y
  | _ -> false

let fail_in name fmt = Fmt.kstr (fun s -> raise (Lower_error (name ^ ": " ^ s))) fmt

let checked_len ~name (t : Tensor.t) =
  let len = match t.Tensor.buf with Tensor.Floats b -> Array.length b | Tensor.Ints b -> Array.length b in
  if len <> Tensor.numel t then
    fail_in name "a %a tensor holds %d elements" Shape.pp (Tensor.shape t) len

let rec shapes_match expect (ts : Tensor.t array) i =
  i >= Array.length expect
  || (Shape.equal expect.(i) (Tensor.shape ts.(i)) && shapes_match expect ts (i + 1))

(* Where a chain operand's elements are, from block [b] of a run with
   offsets [offs] and steps [steps]: a leaf in its buffer, a node in its
   strip. *)
let src_buf bufs strips strip = function L i -> bufs.(i) | N k -> strips.(strip.(k))
let src_off offs steps b = function L i -> offs.(i + 1) + (b * steps.(i + 1)) | N _ -> 0
let src_step steps = function L i -> steps.(i + 1) | N _ -> 1

(* Each node's dtype as its operator gives it. *)
let node_dtypes c (ts : Tensor.t array) =
  let dts = Array.make (Array.length c.nodes) Dtype.F32 in
  let dt_of = function L i -> Tensor.dtype ts.(i) | N k -> dts.(k) in
  Array.iteri
    (fun j (n : node) ->
      dts.(j) <-
        (match n.op with
        | Un op -> Ops_elem.unop_dtype op (dt_of n.args.(0))
        | Bin op -> Ops_elem.binop_dtype op (dt_of n.args.(0)) (dt_of n.args.(1))))
    c.nodes;
  dts

let nothing = Tensor.empty [| 0 |]

(* Run chain [c]: read its leaves from [env], write its target (the
   destination [dsts.(k)] it owns, else a fresh tensor) and bind it to
   the root's slot. *)
let run_chain ~name c (env : Tensor.t value array) (dsts : Tensor.t array) =
  let nl = Array.length c.leaves and nn = Array.length c.nodes in
  let ts = Array.make nl nothing and floats = ref true in
  for i = 0 to nl - 1 do
    match env.(c.leaves.(i).slot) with
    | Leaf t ->
        checked_len ~name t;
        ts.(i) <- t;
        floats := !floats && Dtype.is_float (Tensor.dtype t)
    | Tuple _ -> fail_in name "an elementwise operand is a tuple"
  done;
  let out, plan =
    match c.static with
    | Some (expect, out, plan) when shapes_match expect ts 0 -> (out, plan)
    | _ -> plan_chain c (Array.map Tensor.shape ts)
  in
  (* over float leaves every node is float, and the root has their
     promoted dtype (see [member_of]); an integer node stores each value
     as an integer tensor would *)
  let dts = if !floats then [||] else node_dtypes c ts in
  let out_dt =
    if !floats then Array.fold_left (fun dt t -> Dtype.promote dt (Tensor.dtype t)) (Tensor.dtype ts.(0)) ts
    else dts.(nn - 1)
  in
  (* a destination of another extent gets the output in its place, as
     [store] hands back a resolved result *)
  let target =
    match c.dst with
    | Some k when Array.length dsts > 0 && Shape.equal (Tensor.shape dsts.(k)) out ->
        let d = dsts.(k) in
        if not (Dtype.equal (Tensor.dtype d) out_dt) then
          fail_in name "output %d is %a, its destination %a" k Dtype.pp out_dt Dtype.pp
            (Tensor.dtype d);
        checked_len ~name d;
        d
    | _ -> Tensor.empty ~dtype:out_dt out
  in
  let bufs = Array.make nl [||] in
  for i = 0 to nl - 1 do
    bufs.(i) <- Tensor.floats ts.(i)
  done;
  (* an integer root goes through one more strip *)
  let tbuf = match target.Tensor.buf with Tensor.Floats b -> b | Tensor.Ints _ -> [||] in
  let tints = match target.Tensor.buf with Tensor.Ints b -> b | Tensor.Floats _ -> [||] in
  let int_out = not (Dtype.is_float out_dt) in
  Strided.run plan (fun elems ->
      let len = Stdlib.max 1 (Stdlib.min strip_len elems) in
      let strips =
        Array.init (c.n_strips + Bool.to_int int_out) (fun _ -> Array.create_float len)
      in
      fun offs steps n ->
        let base = ref 0 in
        while !base < n do
          let w = Stdlib.min len (n - !base) and b = !base in
          for j = 0 to nn - 1 do
            let direct = j = nn - 1 && not int_out in
            let d =
              if direct then tbuf
              else if j = nn - 1 then strips.(c.n_strips)
              else strips.(c.strip.(j))
            in
            let od = if direct then offs.(0) + (b * steps.(0)) else 0 in
            let sd = if direct then steps.(0) else 1 in
            let nd = c.nodes.(j) in
            (match nd.op with
            | Un op ->
                let x = nd.args.(0) in
                Ops_elem.map1 op d od sd (src_buf bufs strips c.strip x) (src_off offs steps b x)
                  (src_step steps x) w
            | Bin op ->
                let x = nd.args.(0) and y = nd.args.(1) in
                Ops_elem.map2 op d od sd (src_buf bufs strips c.strip x) (src_off offs steps b x)
                  (src_step steps x) (src_buf bufs strips c.strip y) (src_off offs steps b y)
                  (src_step steps y) w);
            if j = nn - 1 && int_out then begin
              let o = offs.(0) + (b * steps.(0)) and s = steps.(0) in
              for i = 0 to w - 1 do
                Array.unsafe_set tints (o + (i * s)) (Tensor.clamp out_dt (int_of_float d.(i)))
              done
            end
            else if Array.length dts > 0 && not (Dtype.is_float dts.(j)) then
              for i = 0 to w - 1 do
                d.(i) <- float_of_int (Tensor.clamp dts.(j) (int_of_float d.(i)))
              done
          done;
          base := b + w
        done);
  env.(c.root) <- Leaf target

let rec bind_params env i = function
  | [] -> ()
  | a :: rest ->
      env.(i) <- Leaf a;
      bind_params env (i + 1) rest

let rec check_aliases ~name d k i = function
  | [] -> ()
  | a :: rest ->
      if same_buf d a then fail_in name "destination %d is input %d" k i;
      check_aliases ~name d k (i + 1) rest

(* Output [k] of a call: written in place already, copied into its
   destination when it is a resolved result of the same extent, or handed
   back in the destination's place (an upper-bound output). *)
let store ~name dsts k res =
  let d = dsts.(k) in
  if res != d then
    if Shape.equal (Tensor.shape res) (Tensor.shape d) then begin
      if not (Dtype.equal (Tensor.dtype res) (Tensor.dtype d)) then
        fail_in name "output %d is %a, its destination %a" k Dtype.pp (Tensor.dtype res) Dtype.pp
          (Tensor.dtype d);
      Tensor.blit ~src:res ~dst:d
    end
    else dsts.(k) <- res

let lower ?dispatch ~name (fn : Expr.fn) : kernel =
  let fail fmt = fail_in name fmt in
  let error s = Lower_error s in
  let b = sites_of ~error ~name fn in
  let n = b.n_slots in
  let members = Array.make n None and args_of = Array.make n [] in
  (* [consumer.(s)]: the one site every use of [s] is an argument of, -1
     for none yet, -2 for several or for a use that is not a call *)
  let consumer = Array.make n (-1) in
  let use s c = consumer.(s) <- (if consumer.(s) = -1 || consumer.(s) = c then c else -2) in
  Array.iter
    (fun (s, rhs) ->
      match rhs with
      | Call (callee, attrs, args) ->
          let op = op_name ~name callee in
          members.(s) <- member_of op attrs (List.length args);
          args_of.(s) <- args;
          List.iter (fun a -> use a s) args
      | Tup args -> List.iter (fun a -> use a (-2)) args
      | Proj (a, _) -> use a (-2))
    b.sites;
  use b.result (-2);
  let computes s = match members.(s) with Some (Elem _) -> true | _ -> false in
  (* a member feeding a computing member and nothing else is inlined *)
  let internal =
    Array.init n (fun s -> members.(s) <> None && consumer.(s) >= 0 && computes consumer.(s))
  in
  (* link-time shapes, worked out for the leaves of chains: parameters
     with static types, constants, and what the sites feeding them give *)
  let static = Array.make n None and known = Array.make n false in
  let rhs_of = Array.make n None in
  Array.iter (fun (s, rhs) -> rhs_of.(s) <- Some rhs) b.sites;
  List.iteri
    (fun i (p : Expr.var) ->
      known.(i) <- true;
      static.(i) <- Option.bind p.Expr.vty Ty.static_shape)
    fn.Expr.params;
  List.iter
    (fun (s, t) ->
      known.(s) <- true;
      static.(s) <- Some (Tensor.shape t))
    b.consts;
  let rec static_of s =
    if not known.(s) then begin
      known.(s) <- true;
      static.(s) <-
        (match rhs_of.(s) with
        | Some (Call (callee, attrs, args)) -> (
            match List.map static_of args with
            | ins when List.for_all Option.is_some ins -> (
                let ins = List.map Option.get ins and op = op_name ~name callee in
                try
                  match members.(s) with
                  | Some m -> Some (fst (member_desc m (List.map (fun s -> (s, Dtype.F32)) ins)))
                  | None when SF.classify ~name:op ~attrs = SF.Site_static -> (
                      match SF.run op ~attrs (List.map SF.shape_only ins) with
                      | [ s ] -> Some s
                      | _ -> None)
                  | None -> None
                with _ -> None)
            | _ -> None)
        | Some (Tup _ | Proj _) | None -> None)
    end;
    static.(s)
  in
  let chain root =
    let nodes = ref [] and nn = ref 0 and leaves = ref [] and nl = ref 0 in
    let leaf l =
      match List.find_opt (fun (_, l') -> l.view = None && l' = l) !leaves with
      | Some (i, _) -> L i
      | None ->
          leaves := (!nl, l) :: !leaves;
          incr nl;
          L (!nl - 1)
    in
    let seen = Hashtbl.create 8 in
    let rec visit s =
      if s <> root && not internal.(s) then leaf { slot = s; view = None }
      else
        match (Hashtbl.find_opt seen s, members.(s), args_of.(s)) with
        | Some a, _, _ -> a
        | None, Some (Slice (bg, en)), [ a ] -> leaf { slot = a; view = Some (bg, en) }
        | None, Some (Elem op), args ->
            let args = Array.of_list (List.map visit args) in
            nodes := { op; args } :: !nodes;
            incr nn;
            Hashtbl.replace seen s (N (!nn - 1));
            N (!nn - 1)
        | None, _, _ -> fail "slot %d is not an elementwise member" s
    in
    ignore (visit root);
    let nodes = Array.of_list (List.rev !nodes) in
    let leaves = Array.of_list (List.rev_map snd !leaves) in
    (* strips by linear scan: a node's only reader is its consumer, so a
       node's strip is free again once its consumer has run *)
    let strip = Array.make (Array.length nodes) (-1) and free = ref [] and count = ref 0 in
    Array.iteri
      (fun j (nd : node) ->
        Array.iter (function N k when strip.(k) >= 0 && not (List.mem strip.(k) !free) -> free := strip.(k) :: !free | _ -> ()) nd.args;
        if j < Array.length nodes - 1 then
          match !free with
          | s :: rest ->
              strip.(j) <- s;
              free := rest
          | [] ->
              strip.(j) <- !count;
              incr count)
      nodes;
    let c =
      { root; nodes; strip; n_strips = !count; leaves; dst = (if root = b.result then Some 0 else None); static = None }
    in
    let shapes = Array.map (fun l -> static_of l.slot) leaves in
    if Array.for_all Option.is_some shapes then
      let shapes = Array.map Option.get shapes in
      match plan_chain c shapes with
      | out, plan -> { c with static = Some (shapes, out, plan) }
      | exception _ -> c
    else c
  in
  let resolve callee attrs =
    let op = op_name ~name callee in
    let f = Op_eval.resolve op ~attrs in
    match dispatch with
    | Some d when op = "dense" -> ( function [ a; w ] -> [ Dispatch.run d a w ] | ins -> f ins)
    | _ -> f
  in
  let steps =
    List.filter_map
      (fun (s, rhs) ->
        match rhs with
        | Call _ when internal.(s) -> None
        | Call _ when computes s ->
            let c = chain s in
            Some (fun env dsts -> run_chain ~name c env dsts)
        | Call (callee, attrs, args) ->
            let f = resolve callee attrs in
            Some (fun env _ -> env.(s) <- outputs (f (gather env args)))
        | Tup args -> Some (fun env _ -> env.(s) <- Tuple (List.map (fun a -> env.(a)) args))
        | Proj (a, i) -> Some (fun env _ -> env.(s) <- project ~error ~name env.(a) i))
      (Array.to_list b.sites)
    |> Array.of_list
  in
  let template = Array.make n (Tuple []) in
  List.iter (fun (s, t) -> template.(s) <- Leaf t) b.consts;
  (* Under a {!Trace} listener: one event per operator, in body order,
     from the shapes the call saw (an inlined member has no tensor). *)
  let trace env =
    let descs = Array.make n [] in
    let desc s = if internal.(s) then descs.(s) else List.map (fun t -> (Tensor.shape t, Tensor.dtype t)) (leaves env.(s)) in
    Array.iter
      (fun (s, rhs) ->
        match rhs with
        | Call (callee, attrs, args) ->
            let ins = List.concat_map desc args in
            let outs =
              match members.(s) with
              | Some m when internal.(s) || computes s -> [ member_desc m ins ]
              | _ -> desc s
            in
            if internal.(s) then descs.(s) <- outs;
            Trace.record_shapes (op_name ~name callee) ~attrs ins outs
        | Tup _ | Proj _ -> ())
      b.sites
  in
  fun args dsts ->
    if List.length args <> b.n_params then
      fail "expected %d arguments, got %d" b.n_params (List.length args);
    for k = 0 to Array.length dsts - 1 do
      check_aliases ~name dsts.(k) k 0 args
    done;
    let env = Array.copy template in
    bind_params env 0 args;
    for i = 0 to Array.length steps - 1 do
      steps.(i) env dsts
    done;
    let results =
      match (env.(b.result), Array.length dsts) with
      | Leaf res, 0 -> [| res |]
      | Leaf res, 1 ->
          store ~name dsts 0 res;
          dsts
      | v, 0 -> Array.of_list (leaves v)
      | v, nd ->
          let outs = leaves v in
          if List.length outs <> nd then
            fail "%d outputs for %d destinations" (List.length outs) nd;
          List.iteri (store ~name dsts) outs;
          dsts
    in
    if Trace.enabled () then trace env;
    results

(* A member's output: its shape, and its value when every input of the
   member has one. The value is computed only if a later member's shape
   function reads it; the lazy is made per call, never shared. *)
type shaped = { shape : Shape.t; data : Tensor.t Lazy.t option }

let shape_func_of_primitive ~name (fn : Expr.fn) : SF.input list -> Shape.t list =
  let grouped = match fn.Expr.body with Expr.Call _ -> false | _ -> true in
  let call callee attrs =
    let op = op_name ~name callee in
    let site = SF.classify ~name:op ~attrs in
    let reads_values =
      match site with
      | SF.Site_proven _ | SF.Site_dynamic SF.Data_dep -> true
      | SF.Site_static | SF.Site_dynamic _ | SF.Site_unknown -> false
    in
    let arg (x : shaped) =
      if not reads_values then SF.shape_only x.shape
      else
        match x.data with
        | Some d -> SF.with_data (Lazy.force d)
        | None -> err "%s: %s needs a value that is unavailable" name op
    in
    match site with
    | SF.Site_dynamic _ when grouped ->
        fun _ ->
          err "%s: unproven dynamic member %s (%s)" name op (SF.site_to_string site)
    | _ ->
        let eval = Op_eval.resolve op ~attrs in
        fun ins ->
          let shapes = SF.run op ~attrs (List.map arg ins) in
          let data =
            if List.for_all (fun x -> Option.is_some x.data) ins then
              Some
                (lazy
                  (let ins = List.map (fun x -> Lazy.force (Option.get x.data)) ins in
                   let outs = eval ins in
                   Trace.record_op op ~attrs ins outs;
                   outs))
            else None
          in
          outputs
            (List.mapi
               (fun i shape ->
                 { shape; data = Option.map (fun d -> lazy (List.nth (Lazy.force d) i)) data })
               shapes)
  in
  let const t = { shape = Tensor.shape t; data = Some (Lazy.from_val t) } in
  let run = compile ~error:(fun s -> Lower_error s) ~name ~const ~call fn in
  let input (i : SF.input) = { shape = i.shape; data = Option.map Lazy.from_val i.data } in
  fun ins -> List.map (fun x -> x.shape) (leaves (run (List.map input ins)))
