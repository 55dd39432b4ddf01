(** Lowering straight-line bodies to runners, once, at link time.

    A primitive function (produced by the fusion pass) is a straight-line
    dataflow of operator calls, and so is the [main] of a fused static
    module. {!compile} numbers such a body's parameters and let-bindings
    into slots and resolves every call site once; the runner it returns
    fills a fresh slot array per call and never walks the IR again.
    Kernels ({!lower}), composed shape functions
    ({!shape_func_of_primitive}) and the static executor are its three
    uses. [dense] calls inside a kernel are routed through the symbolic
    residue {!Dispatch} when one is configured — this is where symbolic
    codegen plugs into the pipeline. Every executed op reports to
    {!Trace}. *)

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

let compile ~error ~name ~const ~call (fn : Expr.fn) =
  let fail fmt = Fmt.kstr (fun s -> raise (error (name ^ ": " ^ s))) fmt in
  let slots = Hashtbl.create 16 and n_slots = ref 0 in
  let bind (v : Expr.var) =
    let s = !n_slots in
    incr n_slots;
    Hashtbl.replace slots v.Expr.vid s;
    s
  in
  List.iter (fun p -> ignore (bind p)) fn.Expr.params;
  let n_params = !n_slots in
  (* a call's arguments, flattened to leaves left to right *)
  let rec gather env = function
    | [] -> []
    | f :: fs -> (
        match f env with
        | Leaf x -> x :: gather env fs
        | v -> flatten v (gather env fs))
  in
  let rec go (e : Expr.t) : 'a value array -> 'a value =
    match e with
    | Expr.Var v -> (
        match Hashtbl.find_opt slots v.Expr.vid with
        | Some s -> fun env -> env.(s)
        | None -> fail "unbound variable %%%s" v.Expr.vname)
    | Expr.Const t ->
        let c = Leaf (const t) in
        fun _ -> c
    | Expr.Tuple es ->
        let fs = List.map go es in
        fun env -> Tuple (List.map (fun f -> f env) fs)
    | Expr.Proj (e1, i) -> (
        let f = go e1 in
        fun env ->
          match f env with
          | Tuple vs when i < List.length vs -> List.nth vs i
          | _ -> fail "projection %d out of a value without it" i)
    | Expr.Let (v, bound, body) ->
        let fb = go bound in
        let s = bind v in
        let fbody = go body in
        fun env ->
          env.(s) <- fb env;
          fbody env
    | Expr.Call { callee; args; attrs } ->
        let fargs = List.map go args and f = call callee attrs in
        fun env -> f (gather env fargs)
    | Expr.Global _ | Expr.Op _ | Expr.Ctor _ | Expr.Fn _ | Expr.If _ | Expr.Match _ ->
        fail "control flow or function values inside a straight-line body"
  in
  let body = go fn.Expr.body and size = !n_slots in
  fun args ->
    if List.length args <> n_params then
      fail "expected %d arguments, got %d" n_params (List.length args);
    let env = Array.make size (Tuple []) in
    List.iteri (fun i a -> env.(i) <- Leaf a) args;
    body env

let op_name ~name = function
  | Expr.Op op -> op
  | _ -> err "%s: a primitive body may only call operators" name

let lower ?dispatch ~name (fn : Expr.fn) : Tensor.t list -> Tensor.t list =
  let call callee attrs =
    let op = op_name ~name callee in
    let eval ins = outputs (Trace.eval_op op ~attrs ins) in
    match (op, dispatch) with
    | "dense", Some d -> (
        function
        | [ a; w ] as ins ->
            let out = Dispatch.run d a w in
            Trace.record_op "dense" ~attrs ins [ out ];
            Leaf out
        | ins -> eval ins)
    | _ -> eval
  in
  let run =
    compile ~error:(fun s -> Lower_error s) ~name ~const:Fun.id ~call fn
  in
  fun args -> leaves (run args)

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
        fun ins ->
          let shapes = SF.run op ~attrs (List.map arg ins) in
          let data =
            if List.for_all (fun x -> Option.is_some x.data) ins then
              Some
                (lazy
                  (Trace.eval_op op ~attrs
                     (List.map (fun x -> Lazy.force (Option.get x.data)) ins)))
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
