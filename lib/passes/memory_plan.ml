(** Memory planning (paper §4.3, evaluated in §6.3).

    On the manifest-alloc IR this pass:

    1. {b coalesces} static storage allocations: all [memory.alloc_storage]
       calls with compile-time sizes in a straight-line region are replaced
       by one arena allocation per device, and each tensor is given an
       offset into the arena. Offsets are assigned first-fit using liveness
       intervals, so storage is *reused* across tensors whose lifetimes do
       not overlap — this is what cuts both allocation count and footprint;
    2. {b symbolically plans} dynamic allocations whose output dims are
       expressions over the function's symbolic parameter dims
       (BladeDISC++-style): each such site becomes a slot in the device
       arena whose offset/size are {!Nimble_shape.Sym_expr} expressions,
       and the per-device arena allocation becomes a [memory.bind_arena]
       op carrying the whole plan — evaluated once per request by the VM
       against the dims bound from the actual argument shapes. Sites whose
       shape function is data-dependent (or whose dims cannot be bound
       from the parameters) keep the per-site allocation — the upper-bound
       fallback path;
    3. inserts [memory.kill] after the last use of dynamically-allocated
       tensors so the VM can release them before frame exit.

    Symbolic planning applies to each function's top-level region only;
    conditional branches are planned recursively as separate static
    regions (conservative but sound). See [docs/MEMORY.md]. *)

open Nimble_tensor
open Nimble_ir
module Sym_expr = Nimble_shape.Sym_expr
module Arena_plan = Nimble_shape.Arena_plan

type stats = {
  mutable storages_before : int;
  mutable storages_after : int;
  mutable arena_bytes : int;  (** total coalesced arena size *)
  mutable sum_bytes : int;  (** what the un-coalesced storages added up to *)
  mutable kills_inserted : int;
  mutable symbolic_slots : int;  (** dynamic sites folded into a symbolic plan *)
}

let fresh_stats () =
  {
    storages_before = 0;
    storages_after = 0;
    arena_bytes = 0;
    sum_bytes = 0;
    kills_inserted = 0;
    symbolic_slots = 0;
  }

(* A straight-line let chain: bindings plus terminal expression. *)
let rec chain_of (e : Expr.t) =
  match e with
  | Expr.Let (v, bound, body) ->
      let bs, term = chain_of body in
      ((v, bound) :: bs, term)
  | _ -> ([], e)

let rec rebuild bindings term =
  match bindings with
  | [] -> term
  | (v, bound) :: rest -> Expr.Let (v, bound, rebuild rest term)

let align_up n a = (n + a - 1) / a * a

type static_alloc = {
  storage_var : int;  (** vid of the storage binding *)
  tensor_var : int;  (** vid of the tensor allocated from it *)
  alloc_index : int;  (** binding index of the storage alloc *)
  mutable last_use : int;  (** binding index of the tensor's last use *)
  size : int;  (** aligned bytes *)
  device : int;
  mutable offset : int;
}

(* A dynamic allocation site folded into the symbolic plan: its size is an
   expression over the function's bindable symbolic dims. *)
type dyn_site = {
  d_storage_var : int;
  d_tensor_var : int;
  d_alloc_index : int;
  mutable d_last_use : int;
  d_size : Sym_expr.t;  (** aligned bytes, symbolic *)
  d_device : int;
  mutable d_slot : int;  (** arena slot index, assigned during layout *)
}

(* [Some e] when every dim is static or a symbolic dim bindable from the
   function's parameters ([binders] maps sym id -> (param, dim index)). *)
let size_expr_of_ty binders ~alignment (ty : Ty.t) : Sym_expr.t option =
  match ty with
  | Ty.Tensor { dims; dtype } ->
      let rec go acc i =
        if i = Array.length dims then Some acc
        else
          match dims.(i) with
          | Dim.Static d -> go (Sym_expr.mul acc (Sym_expr.const d)) (i + 1)
          | Dim.Sym s when List.mem_assoc s binders ->
              go (Sym_expr.mul acc (Sym_expr.dim s)) (i + 1)
          | _ -> None
      in
      Option.map
        (fun e ->
          Sym_expr.align
            (Sym_expr.mul e (Sym_expr.const (Dtype.size_in_bytes dtype)))
            alignment)
        (go (Sym_expr.const 1) 0)
  | _ -> None

module Int_set = Set.Make (Int)

(* [f vid] for every variable use in [e], nested regions included. *)
let iter_uses f e = Expr.iter (function Expr.Var v -> f v.Expr.vid | _ -> ()) e

(* A binding whose RHS can carry a reference to a tensor onward (aliases,
   tuples, ADT construction, control-flow results). Kernel calls only read
   their arguments; copies produce fresh tensors. *)
let rhs_may_alias = function
  | Expr.Var _ | Expr.Tuple _ | Expr.Proj _ | Expr.If _ | Expr.Match _ -> true
  | Expr.Call { callee = Expr.Ctor _; _ } -> true
  | Expr.Call { callee = Expr.Global _; _ } | Expr.Call { callee = Expr.Fn _; _ } -> true
  | _ -> false

(* Index of the last binding of the region that uses each variable
   anywhere inside it, or [n] (the binding count) when the tail term uses
   it. *)
let last_use_index (barr : (Expr.var * Expr.t) array) term =
  let last = Hashtbl.create 256 in
  Array.iteri
    (fun j (_, bound) -> iter_uses (fun vid -> Hashtbl.replace last vid j) bound)
    barr;
  iter_uses (fun vid -> Hashtbl.replace last vid (Array.length barr)) term;
  last

(* Liveness of a tensor must follow every alias through which its buffer
   stays reachable. One forward pass gives each variable the set of
   [tensors] it may reach: a tensor reaches itself, and a may-alias
   binding reaches whatever the variables it uses (anywhere inside it)
   reach. A buffer then lives until the last use of anything that reaches
   it ([n] when the tail term does); [-1] when nothing uses it. *)
let alias_last_use (barr : (Expr.var * Expr.t) array) ~last_use tensors : int -> int =
  let reach = Hashtbl.create 64 in
  let reach_of vid = Option.value ~default:Int_set.empty (Hashtbl.find_opt reach vid) in
  List.iter (fun t -> Hashtbl.replace reach t (Int_set.add t (reach_of t))) tensors;
  Array.iter
    (fun ((v : Expr.var), bound) ->
      if rhs_may_alias bound then begin
        let reached = ref Int_set.empty in
        iter_uses (fun vid -> reached := Int_set.union (reach_of vid) !reached) bound;
        if not (Int_set.is_empty !reached) then
          Hashtbl.replace reach v.Expr.vid (Int_set.union !reached (reach_of v.Expr.vid))
      end)
    barr;
  let last = Hashtbl.create 64 in
  Hashtbl.iter
    (fun vid ts ->
      match Hashtbl.find_opt last_use vid with
      | Some j ->
          Int_set.iter
            (fun t ->
              Hashtbl.replace last t
                (Stdlib.max j (Option.value ~default:(-1) (Hashtbl.find_opt last t))))
            ts
      | None -> ())
    reach;
  fun t -> Option.value ~default:(-1) (Hashtbl.find_opt last t)

(* First-fit offset assignment over liveness intervals. *)
let assign_offsets allocs =
  let placed : static_alloc list ref = ref [] in
  List.iter
    (fun a ->
      let overlaps b =
        (* lifetimes intersect *)
        a.alloc_index <= b.last_use && b.alloc_index <= a.last_use
      in
      let conflicts = List.filter overlaps !placed in
      let sorted =
        List.sort (fun x y -> compare x.offset y.offset) conflicts
      in
      let off = ref 0 in
      List.iter
        (fun c ->
          if c.offset < !off + a.size && !off < c.offset + c.size then
            off := c.offset + c.size)
        sorted;
      a.offset <- !off;
      placed := a :: !placed)
    allocs;
  List.fold_left (fun acc a -> Stdlib.max acc (a.offset + a.size)) 0 allocs

let storage_size_bytes ~attrs (shape : int array) =
  let dt =
    match Attrs.find_str attrs "dtype" with
    | Some s -> Option.value ~default:Dtype.F32 (Dtype.of_string s)
    | None -> Dtype.F32
  in
  let align = Attrs.get_int ~default:64 attrs "alignment" in
  align_up (Array.fold_left ( * ) 1 shape * Dtype.size_in_bytes dt) align

(* ------------------------------------------------------------------ *)

let rec plan_expr stats ~binders (e : Expr.t) : Expr.t =
  let bindings, term = chain_of e in
  let bindings =
    (* recurse into nested regions first; branch sub-regions are planned
       as separate static regions (no symbolic binders) *)
    List.map
      (fun (v, bound) ->
        let bound =
          match bound with
          | Expr.If (c, t, f) ->
              Expr.If (c, plan_expr stats ~binders:[] t, plan_expr stats ~binders:[] f)
          | Expr.Match (s, clauses) ->
              Expr.Match
                ( s,
                  List.map
                    (fun cl -> { cl with Expr.rhs = plan_expr stats ~binders:[] cl.Expr.rhs })
                    clauses )
          | Expr.Fn fn when not (Fusion.is_primitive fn) ->
              Expr.Fn { fn with Expr.body = plan_expr stats ~binders:[] fn.Expr.body }
          | _ -> bound
        in
        (v, bound))
      bindings
  in
  let barr = Array.of_list bindings in
  (* -------- the tensor allocated from each storage ------------------ *)
  (* storage vid -> (index, tensor var, tensor attrs) of the last
     [memory.alloc_tensor] taking it; a storage bound at [i] keeps it only
     when that index is past [i] *)
  let tensor_of_storage = Hashtbl.create 64 in
  Array.iteri
    (fun j ((tv : Expr.var), tb) ->
      match tb with
      | Expr.Call
          { callee = Expr.Op "memory.alloc_tensor"; args = Expr.Var sv :: _; attrs }
        ->
          Hashtbl.replace tensor_of_storage sv.Expr.vid (j, tv, attrs)
      | _ -> ())
    barr;
  let tensor_after i (v : Expr.var) =
    match Hashtbl.find_opt tensor_of_storage v.Expr.vid with
    | Some (j, tv, tattrs) when j > i -> Some (tv, tattrs)
    | _ -> None
  in
  (* -------- collect static storage allocs in this region ------------ *)
  let allocs = ref [] in
  Array.iteri
    (fun i ((v : Expr.var), bound) ->
      match bound with
      | Expr.Call
          { callee = Expr.Op "memory.alloc_storage"; args = [ Expr.Const shape_t ]; attrs }
        -> (
          stats.storages_before <- stats.storages_before + 1;
          let shape = Tensor.to_shape shape_t in
          let size = storage_size_bytes ~attrs shape in
          let device = Attrs.get_int ~default:0 attrs "device" in
          match tensor_after i v with
          | None -> ()
          | Some (tv, _) ->
              allocs :=
                {
                  storage_var = v.Expr.vid;
                  tensor_var = tv.Expr.vid;
                  alloc_index = i;
                  last_use = i;
                  size;
                  device;
                  offset = 0;
                }
                :: !allocs)
      | _ -> ())
    barr;
  let allocs = List.rev !allocs in
  (* -------- symbolic dynamic sites ----------------------------------- *)
  (* A plannable site is [storage = memory.alloc_storage(%sh)] followed by
     [out = memory.alloc_tensor(storage, %sh)] whose shape function is
     data-independent and whose output dims are all static or bindable
     symbolic dims. Everything else (data-dependent, upper-bound, unbound
     dims) keeps the per-site allocation: the upper-bound fallback. *)
  let dyn_sites = ref [] in
  if binders <> [] then
    Array.iteri
      (fun i ((v : Expr.var), bound) ->
        match bound with
        | Expr.Call
            { callee = Expr.Op "memory.alloc_storage"; args = [ Expr.Var _ ]; attrs }
          when not (Attrs.get_bool attrs "arena") -> (
            let device = Attrs.get_int ~default:0 attrs "device" in
            let alignment = Attrs.get_int ~default:64 attrs "alignment" in
            match tensor_after i v with
            | Some (tv, tattrs)
              when (match Attrs.find_str tattrs "mode" with
                   (* proven sites have dominance-refined [Sym] dims, so
                      their size is a plannable symbolic expression too *)
                   | Some "data_indep" | Some "proven" -> true
                   | _ -> false) -> (
                match
                  Option.bind tv.Expr.vty (size_expr_of_ty binders ~alignment)
                with
                | Some size when Sym_expr.monotone size ->
                    stats.storages_before <- stats.storages_before + 1;
                    dyn_sites :=
                      {
                        d_storage_var = v.Expr.vid;
                        d_tensor_var = tv.Expr.vid;
                        d_alloc_index = i;
                        d_last_use = i;
                        d_size = size;
                        d_device = device;
                        d_slot = -1;
                      }
                      :: !dyn_sites
                | _ -> ())
            | _ -> ())
        | _ -> ())
      barr;
  let dyn_sites = List.rev !dyn_sites in
  (* -------- liveness (alias-aware) ----------------------------------- *)
  let last_use = last_use_index barr term in
  let buffer_last_use =
    alias_last_use barr ~last_use
      (List.map (fun a -> a.tensor_var) allocs
      @ List.map (fun d -> d.d_tensor_var) dyn_sites)
  in
  List.iter
    (fun a -> a.last_use <- Stdlib.max a.last_use (buffer_last_use a.tensor_var))
    allocs;
  List.iter
    (fun d -> d.d_last_use <- Stdlib.max d.d_last_use (buffer_last_use d.d_tensor_var))
    dyn_sites;
  (* -------- coalesce per device ------------------------------------- *)
  let devices =
    List.sort_uniq compare
      (List.map (fun a -> a.device) allocs
      @ List.map (fun d -> d.d_device) dyn_sites)
  in
  let arena_vars = Hashtbl.create 4 in
  let arena_lets = ref [] in
  List.iter
    (fun dev ->
      let dev_allocs = List.filter (fun a -> a.device = dev) allocs in
      let dev_dyn = List.filter (fun d -> d.d_device = dev) dyn_sites in
      if dev_allocs <> [] || dev_dyn <> [] then begin
        let total = assign_offsets dev_allocs in
        stats.arena_bytes <- stats.arena_bytes + total;
        stats.sum_bytes <-
          stats.sum_bytes + List.fold_left (fun acc a -> acc + a.size) 0 dev_allocs;
        stats.storages_after <- stats.storages_after + 1;
        let arena_v = Expr.fresh_var ~ty:Ty.Storage "arena" in
        Hashtbl.replace arena_vars dev arena_v;
        let alloc =
          if dev_dyn = [] then
            (* static-only device: a plain constant-size arena *)
            Expr.op_call
              ~attrs:
                [
                  ("alignment", Attrs.Int 64);
                  ("device", Attrs.Int dev);
                  ("dtype", Attrs.Str "uint8");
                  ("arena", Attrs.Bool true);
                ]
              "memory.alloc_storage"
              [ Expr.Const (Tensor.of_int_array ~dtype:Dtype.I64 [| 1 |] [| total |]) ]
          else begin
            (* Symbolic slot layout after the static prefix [0, total):
               sites with equal size expressions and disjoint lifetimes
               share a slot; every fresh slot extends the running total.
               Offsets stay 64-aligned because every size is. *)
            let slots = ref [] in
            (* reversed (offset, size, intervals ref) *)
            let running = ref (Sym_expr.const total) in
            let disjoint (a1, l1) (a2, l2) = l1 < a2 || l2 < a1 in
            List.iter
              (fun d ->
                let interval = (d.d_alloc_index, d.d_last_use) in
                let rec find idx = function
                  | [] -> None
                  | (_, size, ivals) :: rest ->
                      if
                        Sym_expr.equal size d.d_size
                        && List.for_all (disjoint interval) !ivals
                      then Some (idx, ivals)
                      else find (idx + 1) rest
                in
                match find 0 (List.rev !slots) with
                | Some (idx, ivals) ->
                    d.d_slot <- idx;
                    ivals := interval :: !ivals
                | None ->
                    d.d_slot <- List.length !slots;
                    slots := (!running, d.d_size, ref [ interval ]) :: !slots;
                    running := Sym_expr.add !running d.d_size)
              dev_dyn;
            stats.symbolic_slots <- stats.symbolic_slots + List.length dev_dyn;
            let plan =
              {
                Arena_plan.device = dev;
                align = 64;
                binders = [||];
                slots =
                  Array.of_list
                    (List.rev_map
                       (fun (s_offset, s_size, _) -> { Arena_plan.s_offset; s_size })
                       !slots);
                total = !running;
              }
            in
            (* one binder per free dim, read from the parameter it came from *)
            let binders =
              List.map
                (fun s ->
                  let b_arg, b_dim = List.assoc s binders in
                  { Arena_plan.b_arg; b_dim; b_sym = s })
                (Arena_plan.free_dims plan)
            in
            Expr.op_call
              ~attrs:(Arena_plan.to_attrs { plan with binders = Array.of_list binders })
              "memory.bind_arena" []
          end
        in
        arena_lets := (arena_v, alloc) :: !arena_lets
      end)
    devices;
  let by_storage_var = Hashtbl.create 64 in
  List.iter (fun a -> Hashtbl.replace by_storage_var a.storage_var a) allocs;
  let by_dyn_storage = Hashtbl.create 16 in
  List.iter (fun d -> Hashtbl.replace by_dyn_storage d.d_storage_var d) dyn_sites;
  (* -------- rewrite bindings ---------------------------------------- *)
  (* each surviving binding keeps its original index, for kill insertion *)
  let rewritten =
    Array.to_list barr
    |> List.mapi (fun i b -> (i, b))
    |> List.filter_map (fun (i, ((v : Expr.var), bound)) ->
           match bound with
           | Expr.Call { callee = Expr.Op "memory.alloc_storage"; _ }
             when Hashtbl.mem by_storage_var v.Expr.vid
                  || Hashtbl.mem by_dyn_storage v.Expr.vid ->
               None (* replaced by the arena *)
           | Expr.Call
               { callee = Expr.Op "memory.alloc_tensor"; args = Expr.Var sv :: more; attrs }
             when Hashtbl.mem by_storage_var sv.Expr.vid ->
               let a = Hashtbl.find by_storage_var sv.Expr.vid in
               let arena_v = Hashtbl.find arena_vars a.device in
               let attrs = Attrs.set attrs "offset" (Attrs.Int a.offset) in
               Some
                 ( i,
                   v,
                   Expr.Call
                     {
                       callee = Expr.Op "memory.alloc_tensor";
                       args = Expr.Var arena_v :: more;
                       attrs;
                     } )
           | Expr.Call
               { callee = Expr.Op "memory.alloc_tensor"; args = Expr.Var sv :: more; attrs }
             when Hashtbl.mem by_dyn_storage sv.Expr.vid ->
               (* a symbolic slot: the VM resolves the offset from the plan
                  bound by the enclosing [memory.bind_arena] *)
               let d = Hashtbl.find by_dyn_storage sv.Expr.vid in
               let arena_v = Hashtbl.find arena_vars d.d_device in
               let attrs = Attrs.set attrs "plan_slot" (Attrs.Int d.d_slot) in
               Some
                 ( i,
                   v,
                   Expr.Call
                     {
                       callee = Expr.Op "memory.alloc_tensor";
                       args = Expr.Var arena_v :: more;
                       attrs;
                     } )
           | _ -> Some (i, v, bound))
  in
  (* -------- kill insertion for dynamic tensors ----------------------- *)
  let coalesced = Hashtbl.create 64 in
  List.iter (fun a -> Hashtbl.replace coalesced a.tensor_var ()) allocs;
  List.iter (fun d -> Hashtbl.replace coalesced d.d_tensor_var ()) dyn_sites;
  let n = Array.length barr in
  let dynamic_tensors = ref [] in
  Array.iteri
    (fun i ((v : Expr.var), bound) ->
      match bound with
      | Expr.Call { callee = Expr.Op "memory.alloc_tensor"; _ }
        when not (Hashtbl.mem coalesced v.Expr.vid) -> (
          (* killed after its last use, unless the tail term returns it *)
          match Hashtbl.find_opt last_use v.Expr.vid with
          | Some j when j = n -> ()
          | j ->
              let last = Stdlib.max i (Option.value ~default:i j) in
              dynamic_tensors := (v, last) :: !dynamic_tensors)
      | _ -> ())
    barr;
  (* map: original index -> kills to insert after it *)
  let kills_at = Hashtbl.create 8 in
  List.iter
    (fun ((v : Expr.var), last) ->
      stats.kills_inserted <- stats.kills_inserted + 1;
      Hashtbl.replace kills_at last (v :: Option.value ~default:[] (Hashtbl.find_opt kills_at last)))
    !dynamic_tensors;
  (* Rebuild, tracking the original index of each surviving binding. *)
  let with_kills =
    List.concat_map
      (fun (i, (v : Expr.var), bound) ->
        let kills =
          match Hashtbl.find_opt kills_at i with
          | Some vs ->
              List.map
                (fun (kv : Expr.var) ->
                  ( Expr.fresh_var ~ty:Ty.unit "k",
                    Expr.op_call "memory.kill" [ Expr.Var kv ] ))
                vs
          | None -> []
        in
        ((v, bound) :: kills))
      rewritten
  in
  rebuild (List.rev !arena_lets @ with_kills) term

(** Symbolic binders of a function: maps each parameter-level [Dim.Sym] id
    to the (parameter index, dim index) the VM reads it from at runtime
    (first occurrence wins). *)
let binders_of_params (params : Expr.var list) : (int * (int * int)) list =
  let bs = ref [] in
  List.iteri
    (fun pi (p : Expr.var) ->
      match p.Expr.vty with
      | Some (Ty.Tensor { dims; _ }) ->
          Array.iteri
            (fun di dim ->
              match dim with
              | Dim.Sym s when not (List.mem_assoc s !bs) -> bs := (s, (pi, di)) :: !bs
              | _ -> ())
            dims
      | _ -> ())
    params;
  List.rev !bs

(** Run the planner; returns per-module statistics. [symbolic] (default on)
    enables the symbolic phase that folds bindable dynamic allocations into
    a per-device [memory.bind_arena] plan; with it off, only static
    coalescing and kill insertion run (the pre-symbolic behaviour). *)
let run ?(symbolic = true) (m : Irmod.t) : stats =
  let stats = fresh_stats () in
  Irmod.map_funcs m (fun _name fn ->
      let binders = if symbolic then binders_of_params fn.Expr.params else [] in
      { fn with Expr.body = plan_expr stats ~binders fn.Expr.body });
  stats
