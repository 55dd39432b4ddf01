(** Warm executable cache: compile once per model; cold loads take the
    serialize → deserialize → relink deployment path (relinking by name
    from the compile itself), warm loads return the cached linked
    executable (safe to share across VM workers — an executable is
    immutable after linking), and {!restore} relinks snapshots from the
    cached entries. *)

type t

(** An empty cache (no compiled entries, zeroed hit/miss counters). *)
val create : unit -> t

(** The linked executable for [name]; [build] is compiled and
    round-tripped on the first request only, and the decoded executable is
    relinked from that compile ([Nimble_vm.Exe.relink]). It is
    bytecode-verified before linking
    ([Nimble_analysis.Verifier.of_bytes]), so a corrupt artifact raises
    [Nimble_analysis.Verifier.Verify_error] here instead of reaching a
    worker VM. Transient injected faults at the ["deserialize"] point
    are retried a bounded number of times (a loader should survive a
    flaky artifact read); persistent ones propagate.
    @param options compiler options for the cold build; ignored on warm
    hits. *)
val load :
  ?options:Nimble_compiler.Nimble.options ->
  t -> name:string -> build:(unit -> Nimble_ir.Irmod.t) -> Nimble_vm.Exe.t

(** Replay the executable's persisted tune table (the NMBLEXE4 section)
    into the dispatch tables its linked kernels route through
    ([Nimble_vm.Exe.dispatchers]) via
    {!Nimble_codegen.Dispatch.install_tuned}, so a warm restart serves
    pre-specialized without re-tuning. Decisions naming kernels without a
    dispatcher are ignored. Returns how many decisions were applied.
    {!restore} calls this after relinking. *)
val apply_tunes : Nimble_vm.Exe.t -> int

(** Capture the installed tune decisions of the executable's dispatch
    tables into its tune table so the next
    {!Nimble_vm.Serialize.to_bytes} persists them — the checkpoint half of
    the warm-restart loop. Returns how many decisions were persisted. *)
val persist_tunes : Nimble_vm.Exe.t -> int

(** Warm loads served since creation. *)
val hits : t -> int

(** Cold loads (compile + round trip) performed since creation. *)
val misses : t -> int

(** Serialized size in bytes of a cached model, if present. *)
val serialized_bytes : t -> name:string -> int option

(** The snapshot manifest's [schema] member: ["nimble-snapshot/v1"]. *)
val snapshot_schema : string

(** Checkpoint every cached model to [dir]: persist live tune decisions,
    serialize each executable to [gen-N/<name>.nmblexe] — each snapshot
    gets a fresh generation subdirectory — and record the set (with the
    given per-model [hints] arena-bound dims, and the generation number)
    in a versioned top-level [MANIFEST.json]. Every file is temp-written
    and renamed, the manifest last, so the manifest rename is the commit
    point: a crash mid-snapshot leaves the previous generation fully
    intact and referenced. After the commit, generations older than the
    newest [keep] (default 2: current + one rollback) are
    garbage-collected best-effort. All I/O passes the ["snapshot_io"]
    fault point (transient faults retried, persistent propagate).
    Returns how many models were written.
    @raise Invalid_argument when [keep < 1]. *)
val snapshot :
  ?hints:(string * int array list) list -> ?keep:int -> t -> dir:string -> int

(** Generation numbers currently present under [dir] (unsorted); the
    manifest always references the highest one that was committed. *)
val generations : dir:string -> int list

(** One model brought back by {!restore}. *)
type restored = {
  r_name : string;
  r_exe : Nimble_vm.Exe.t;  (** decoded, verified, relinked, tunes applied *)
  r_bytes : int;  (** on-disk serialized size *)
  r_tunes_applied : int;  (** tune decisions replayed into dispatch *)
  r_arena_hints : int array list;
      (** arena-bound dims recorded at snapshot time — feed these to the
          engine's [warm_hints] to pre-warm arenas before traffic *)
}

(** Warm-restart every model in [dir]'s manifest: decode each
    [.nmblexe] (bytecode-verified; transient ["snapshot_io"] and
    ["deserialize"] faults retried), relink its packed functions by name
    from the model's cached entry without recompiling, replay the
    persisted tune table, and replace the cache entries. Each model must
    have been {!load}ed into this cache first — from any compile of the
    same module, since packed names depend only on the module.
    @raise Failure on a missing or ill-versioned manifest, a model that
    was never loaded, or a snapshot whose packed names disagree with the
    loaded model's; the message names the model and the kernel. *)
val restore : t -> dir:string -> restored list
