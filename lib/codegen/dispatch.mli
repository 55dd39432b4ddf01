(** Shape-based kernel dispatch for symbolic codegen (paper §4.5).

    For a dense kernel whose row extent [m] is symbolic, codegen emits up to
    [tile] residue-specialized kernels; at runtime the dispatcher selects
    one from [m mod tile], falling back to the boundary-guarded kernel for
    uncovered residues — trading code size against the boundary-check cost
    Figure 3 measures. It can also route to a profiled third-party library
    kernel, and to exact-extent tuned kernels installed while serving by the
    online tuner ({!Autotune}) — see [docs/TUNING.md].

    Dispatchers also feed the observability layer: each keeps hit/miss
    counters (total and per residue class) plus an exact-extent histogram.
    An executable owns its dispatchers — each packed kernel carries the one
    it routes through ([Nimble_vm.Exe.dispatchers]) — and a process-wide
    list of every dispatcher is kept only for {!snapshots} and
    {!reset_counters}. {!last_selection} exposes the most recent routing
    decision so the VM trace can attribute a kernel invocation to the
    specialization that fired. All shared state is domain-safe: counters
    are atomic, routing tables swap by CAS (readers never block), and the
    last-selection slot is domain-local. *)

open Nimble_tensor

type dense_fn = Tensor.t -> Tensor.t -> Tensor.t

(** The routing decision for one call: a residue-specialized kernel
    ([Hit r]), the guarded fallback on an uncovered residue ([Miss r]), the
    extern library kernel, or an exact-extent tuned kernel installed online
    ([Tuned m]). *)
type selection = Hit of int | Miss of int | Extern | Tuned of int

type t

(** [create ~num_kernels ()] generates [num_kernels] of the [tile] (default
    8) possible residue kernels, evenly spaced — the paper's "dispatch/k".
    [num_kernels = 0] means no dispatch: every call takes the guarded
    fallback.
    @param name label used in reports and traces (default ["dense"]). *)
val create : ?name:string -> ?tile:int -> num_kernels:int -> unit -> t

(** The dispatcher's report/trace label (the packed kernel name when created
    by the emitter). *)
val name : t -> string

(** Route every call to a third-party library kernel (the §4.5 extension for
    profiling-selected extern kernels). *)
val set_extern : t -> dense_fn -> unit

(** Select the kernel for runtime extent [m], recording the selection.
    Routing order: exact-extent tuned entry, then extern, then residue
    kernel, then guarded fallback. *)
val select : t -> m:int -> dense_fn

(** Run a dense call through the dispatcher. *)
val run : t -> Tensor.t -> Tensor.t -> Tensor.t

(** [(hits, misses)]: calls served by a residue-specialized kernel vs the
    fallback (tuned and extern calls are counted separately). *)
val stats : t -> int * int

(** Calls served by an exact-extent tuned kernel since the last reset. *)
val tuned_calls : t -> int

(** Number of generated kernel bodies — the code-size cost of dispatch —
    including currently installed tuned entries. *)
val code_size : t -> int

(** {2 Online specialization} *)

(** [install_tuned t ~extent ~tile_m] publishes a [tile_m]-tiled kernel for
    exact extent [extent] into the live table with one CAS — calls mid-way
    through {!select} keep the table they loaded, so installs never pause or
    corrupt routing (and every kernel computes bitwise-identical results, so
    the swap is invisible in outputs). Re-installing an extent replaces its
    entry; past [max_exact] entries (default 16) the oldest is evicted.
    Raises [Invalid_argument] on non-positive [extent]/[tile_m]. *)
val install_tuned : ?max_exact:int -> t -> extent:int -> tile_m:int -> unit

(** [tile_m] of the tuned kernel installed for [extent], if any — lets the
    hotness scanner and warm restarts skip already-specialized extents. *)
val pretuned : t -> extent:int -> int option

(** Installed (extent, tile_m) decisions sorted by extent — the rows
    [Serve.Cache.persist_tunes] writes into the NMBLEXE4 tune table. *)
val tuned_decisions : t -> (int * int) list

(** Exact-extent dispatch counts since the last reset, sorted by extent —
    the hotness signal the autotune scan reads. *)
val extent_histogram : t -> (int * int) list

(** The [(n, k)] weight dimensions of the most recent {!run} call, telling
    the background tuner what problem size to tune for; [None] until the
    dispatcher has run. *)
val observed_dims : t -> (int * int) option

(** {2 Observability} *)

(** The calling domain's most recent routing decision, as
    [(dispatcher name, selection)] — read (and cleared with
    {!clear_last_selection}) by the VM interpreter around each
    packed-kernel call to tag the kernel's trace span. Domain-local: a
    serve worker never observes selections made on other domains. When
    several dense calls are fused into one kernel, the last call wins. *)
val last_selection : unit -> (string * selection) option

(** Clear the calling domain's {!last_selection} slot. *)
val clear_last_selection : unit -> unit

(** Counters of one dispatcher at one instant (the [dispatch] rows of the
    profiler report; see [docs/OBSERVABILITY.md]). *)
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

(** One dispatcher's counters at this instant. *)
val snapshot_of : t -> snapshot

(** Per-dispatcher counters for every dispatcher created in this process,
    oldest first; dispatchers that never fired are excluded. *)
val snapshots : unit -> snapshot list

(** Zero every registered dispatcher's counters and extent histograms,
    scoping the next {!snapshots} to one measurement window; installed
    tuned entries survive. *)
val reset_counters : unit -> unit
