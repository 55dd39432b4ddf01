(** Shape-based kernel dispatch (paper §4.5).

    For a kernel with one symbolic dimension tiled by factor [tile], codegen
    emits up to [tile] residue-specialized kernels; the dispatch function
    selects one from the runtime value [m mod tile], falling back to the
    guarded (boundary-checked) kernel for uncovered residues. The dispatcher
    can also route to an extern library kernel when profiling marked it
    faster, and — closing the profile-guided loop — to exact-extent tuned
    kernels installed at serve time by {!Autotune} via an atomic table swap.

    Every dispatcher keeps hit/miss counters (total and per residue) and an
    exact-extent histogram feeding the hotness tracker. The executable owns
    its dispatchers (each packed kernel carries the one it routes through);
    a process-wide list exists only so the observability layer can report
    dispatch-table statistics ({!snapshots}); {!last_selection} lets the VM
    trace attribute each kernel invocation to the specialization that
    actually fired. All shared state is domain-safe: counters are atomic,
    the mutable routing table is swapped with CAS (readers never block, and
    in-flight calls keep the table they loaded), and the last-selection slot
    is domain-local. *)

open Nimble_tensor

type dense_fn = Tensor.t -> Tensor.t -> Tensor.t

type selection = Hit of int | Miss of int | Extern | Tuned of int

(* One exact-extent specialization installed by the online tuner. *)
type tuned_entry = { te_extent : int; te_tile_m : int; te_fn : dense_fn }

(* The swappable part of the routing state. Residue kernels and the guarded
   fallback are fixed at creation; tuned entries and the extern route change
   at serve time, so they live behind one atomic so an install publishes a
   consistent table in a single CAS. Entries are newest-first. *)
type table = { tuned : tuned_entry list; extern : dense_fn option }

type t = {
  name : string;
  tile : int;
  covered : (int * dense_fn) list;  (** residue -> specialized kernel *)
  fallback : dense_fn;
  table : table Atomic.t;
  hits : int Atomic.t;
  misses : int Atomic.t;
  extern_calls : int Atomic.t;
  tuned_calls : int Atomic.t;
  installs : int Atomic.t;
  evictions : int Atomic.t;
  residue_hits : int Atomic.t array;  (** hit count per residue class *)
  hist_mux : Mutex.t;
  hist : (int, int ref) Hashtbl.t;  (** exact extent -> dispatch count *)
  observed_nk : (int * int) option Atomic.t;  (** last (n, k) seen by {!run} *)
}

(* Process-wide observability state: the dispatchers created so far, read
   only by {!snapshots} and {!reset_counters} (report aggregation), and the
   most recent selection (for trace attribution). It is CAS-prepended so
   compiles racing with a background tuner never lose a registration. *)
let registry : t list Atomic.t = Atomic.make []

(* Trace attribution is per-domain: each serve worker tags its own kernel
   spans without seeing selections made concurrently on other domains. *)
let last_key : (string * selection) option ref Domain.DLS.key =
  Domain.DLS.new_key (fun () -> ref None)

let last_selection () = !(Domain.DLS.get last_key)
let clear_last_selection () = Domain.DLS.get last_key := None
let set_last v = Domain.DLS.get last_key := Some v

let rec register t =
  let old = Atomic.get registry in
  if not (Atomic.compare_and_set registry old (t :: old)) then register t

(** [create ~num_kernels] builds a dispatcher generating [num_kernels]
    residue-specialized kernels out of the {!Dense_kernels.tile} possible
    ones; residues are chosen evenly spaced, matching the paper's
    "dispatch/k" settings. [name] labels the dispatcher in reports
    (default ["dense"]). *)
let create ?(name = "dense") ~num_kernels () =
  let tile = Dense_kernels.tile in
  if num_kernels < 0 || num_kernels > tile then
    Fmt.invalid_arg "Dispatch.create: num_kernels %d out of [0, %d]" num_kernels tile;
  let covered =
    if num_kernels = 0 then []
    else
      let step = tile / num_kernels in
      List.init num_kernels (fun i ->
          let r = i * step in
          (r, Dense_kernels.residue_kernel ~residue:r))
  in
  let t =
    {
      name;
      tile;
      covered;
      fallback = Dense_kernels.guarded_kernel;
      table = Atomic.make { tuned = []; extern = None };
      hits = Atomic.make 0;
      misses = Atomic.make 0;
      extern_calls = Atomic.make 0;
      tuned_calls = Atomic.make 0;
      installs = Atomic.make 0;
      evictions = Atomic.make 0;
      residue_hits = Array.init tile (fun _ -> Atomic.make 0);
      hist_mux = Mutex.create ();
      hist = Hashtbl.create 16;
      observed_nk = Atomic.make None;
    }
  in
  register t;
  t

let name t = t.name

let rec swap_table t f =
  let old = Atomic.get t.table in
  if not (Atomic.compare_and_set t.table old (f old)) then swap_table t f

let set_extern t fn = swap_table t (fun tbl -> { tbl with extern = Some fn })

(** Install an exact-extent tuned kernel ([tile_m]-tiled) into the live
    table. One CAS publishes the new table; readers mid-[select] keep the
    table they already loaded, so no call observes a half-installed state.
    Re-installing an extent replaces its entry in place; past [max_exact]
    entries (default 16) the oldest is evicted. *)
let install_tuned ?(max_exact = 16) t ~extent ~tile_m =
  if extent <= 0 then Fmt.invalid_arg "Dispatch.install_tuned: extent %d" extent;
  if tile_m <= 0 then Fmt.invalid_arg "Dispatch.install_tuned: tile_m %d" tile_m;
  let entry = { te_extent = extent; te_tile_m = tile_m;
                te_fn = Dense_kernels.tiled_kernel ~tile_m } in
  let evicted = ref 0 in
  swap_table t (fun tbl ->
      let kept = List.filter (fun e -> e.te_extent <> extent) tbl.tuned in
      let tuned = entry :: kept in
      let n = List.length tuned in
      evicted := max 0 (n - max_exact);
      let tuned = List.filteri (fun i _ -> i < max_exact) tuned in
      { tbl with tuned });
  Atomic.incr t.installs;
  for _ = 1 to !evicted do Atomic.incr t.evictions done

(** [tile_m] of the tuned kernel installed for [extent], if any. *)
let pretuned t ~extent =
  List.find_opt (fun e -> e.te_extent = extent) (Atomic.get t.table).tuned
  |> Option.map (fun e -> e.te_tile_m)

(** Installed (extent, tile_m) decisions, sorted by extent — what
    [Serve.Cache.persist_tunes] writes into the NMBLEXE4 tune table. *)
let tuned_decisions t =
  (Atomic.get t.table).tuned
  |> List.map (fun e -> (e.te_extent, e.te_tile_m))
  |> List.sort compare

let observe_extent t m =
  Mutex.lock t.hist_mux;
  (match Hashtbl.find_opt t.hist m with
  | Some r -> incr r
  | None -> Hashtbl.add t.hist m (ref 1));
  Mutex.unlock t.hist_mux

(** Exact-extent dispatch counts since the last reset, sorted by extent —
    the hotness signal {!Autotune} scans. *)
let extent_histogram t =
  Mutex.lock t.hist_mux;
  let rows = Hashtbl.fold (fun m r acc -> (m, !r) :: acc) t.hist [] in
  Mutex.unlock t.hist_mux;
  List.sort compare rows

(** The [(n, k)] weight dimensions of the most recent {!run} call — tells
    the background tuner what problem size to tune for. *)
let observed_dims t = Atomic.get t.observed_nk

(** Pick the kernel for runtime extent [m], recording the selection. *)
let select t ~m : dense_fn =
  observe_extent t m;
  let tbl = Atomic.get t.table in
  match List.find_opt (fun e -> e.te_extent = m) tbl.tuned with
  | Some e ->
      Atomic.incr t.tuned_calls;
      set_last (t.name, Tuned m);
      e.te_fn
  | None -> (
      match tbl.extern with
      | Some fn ->
          Atomic.incr t.extern_calls;
          set_last (t.name, Extern);
          fn
      | None -> (
          let r = m mod t.tile in
          match List.assoc_opt r t.covered with
          | Some fn ->
              Atomic.incr t.hits;
              Atomic.incr t.residue_hits.(r);
              set_last (t.name, Hit r);
              fn
          | None ->
              Atomic.incr t.misses;
              set_last (t.name, Miss r);
              t.fallback))

(** Run a dense call through the dispatcher. *)
let run t a w =
  let m = (Tensor.shape a).(0) in
  (match Tensor.shape w with
  | [| n; k |] -> Atomic.set t.observed_nk (Some (n, k))
  | _ -> ());
  (select t ~m) a w

let stats t = (Atomic.get t.hits, Atomic.get t.misses)

(** Calls served by an exact-extent tuned kernel. *)
let tuned_calls t = Atomic.get t.tuned_calls

(** Number of generated kernel bodies (code-size cost of dispatch, which the
    paper discusses as the trade-off knob); live tuned entries count. *)
let code_size t =
  List.length t.covered + List.length (Atomic.get t.table).tuned + 1

(* ----------------------- report aggregation ----------------------- *)

type snapshot = {
  snap_name : string;
  snap_tile : int;
  snap_kernels : int;  (** residue-specialized bodies generated *)
  snap_hits : int;
  snap_misses : int;
  snap_extern_calls : int;
  snap_tuned_calls : int;
  snap_installs : int;
  snap_evictions : int;
  snap_residue_hits : (int * int) list;  (** residue -> hits, nonzero only *)
  snap_tuned : (int * int) list;  (** extent -> tile_m installed *)
}

let snapshot_of t =
  {
    snap_name = t.name;
    snap_tile = t.tile;
    snap_kernels = List.length t.covered;
    snap_hits = Atomic.get t.hits;
    snap_misses = Atomic.get t.misses;
    snap_extern_calls = Atomic.get t.extern_calls;
    snap_tuned_calls = Atomic.get t.tuned_calls;
    snap_installs = Atomic.get t.installs;
    snap_evictions = Atomic.get t.evictions;
    snap_residue_hits =
      Array.to_list t.residue_hits
      |> List.mapi (fun r n -> (r, Atomic.get n))
      |> List.filter (fun (_, n) -> n > 0);
    snap_tuned = tuned_decisions t;
  }

let fired t =
  Atomic.get t.hits + Atomic.get t.misses + Atomic.get t.extern_calls
  + Atomic.get t.tuned_calls
  > 0

(** Per-dispatcher counters for every dispatcher created in this process,
    oldest first, dispatchers that never fired excluded. *)
let snapshots () =
  List.rev (Atomic.get registry) |> List.filter fired |> List.map snapshot_of

(** Zero every registered dispatcher's counters and extent histograms,
    scoping the next {!snapshots} to one measurement window. Installed tuned
    entries survive (they are routing state, not counters); the calling
    domain's {!last_selection} is cleared. *)
let reset_counters () =
  List.iter
    (fun t ->
      Atomic.set t.hits 0;
      Atomic.set t.misses 0;
      Atomic.set t.extern_calls 0;
      Atomic.set t.tuned_calls 0;
      Atomic.set t.installs 0;
      Atomic.set t.evictions 0;
      Array.iter (fun a -> Atomic.set a 0) t.residue_hits;
      Mutex.lock t.hist_mux;
      Hashtbl.reset t.hist;
      Mutex.unlock t.hist_mux)
    (Atomic.get registry);
  clear_last_selection ()
