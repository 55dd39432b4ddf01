(** Warm executable cache: compile once per model, serve forever.

    A cold load runs the full deployment path — compile the IR module,
    {!Nimble_vm.Serialize.to_bytes} it, decode the bytes back, and
    relink the packed kernels by name from the compile — exactly what a
    server restoring a [.nimble] artifact from disk does, so the
    serialized format stays load-bearing in the serving path (and is
    covered by [test/test_serve.ml]). Warm loads return the cached,
    already-linked executable, and {!restore} relinks a snapshot from it.
    An executable is immutable after linking (bytecode, constants and
    packed implementations are only read), so many VM workers can share
    one instance across domains; each worker keeps its own
    {!Nimble_vm.Interp.t} for mutable state. *)

module Nimble = Nimble_compiler.Nimble

type entry = { exe : Nimble_vm.Exe.t; bytes : int  (** serialized size *) }

type t = {
  mux : Mutex.t;
  entries : (string, entry) Hashtbl.t;
  mutable hits : int;
  mutable misses : int;
}

let create () =
  {
    mux = Mutex.create ();
    entries = Hashtbl.create 4;
    hits = 0;
    misses = 0;
  }

let locked t f =
  Mutex.lock t.mux;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.mux) f

(** Decode-and-verify with a bounded retry of {e transient} injected
    faults: the ["deserialize"] fault point models a flaky artifact read
    (a torn NFS page, a racing writer), which a loader should retry a few
    times before giving up. Persistent faults propagate immediately, as
    does [Nimble_analysis.Verifier.Verify_error] — a decodable executable
    that fails bytecode verification is corrupt, not flaky. *)
let rec of_bytes_retrying ?(attempt = 0) bytes =
  try Nimble_analysis.Verifier.of_bytes bytes with
  | Nimble_fault.Fault.Injected { mode = Nimble_fault.Fault.Transient; _ }
    when attempt < 3 ->
      of_bytes_retrying ~attempt:(attempt + 1) bytes

(** Replay the executable's persisted tune table (NMBLEXE4) into the
    dispatch tables its kernels route through: each decision re-installs
    its tuned kernel via {!Nimble_codegen.Dispatch.install_tuned}, so a
    warm restart relinks pre-specialized and the hotness scanner (which
    skips already-tuned extents) never re-tunes them. Decisions naming
    kernels without a dispatcher (e.g. dispatch compiled off) are ignored
    — the table is advice, not an obligation. *)
let apply_tunes (exe : Nimble_vm.Exe.t) : int =
  let dispatchers = Nimble_vm.Exe.dispatchers exe in
  Array.fold_left
    (fun applied (tn : Nimble_vm.Exe.tune) ->
      match List.assoc_opt tn.Nimble_vm.Exe.tn_kernel dispatchers with
      | Some d ->
          Nimble_codegen.Dispatch.install_tuned d ~extent:tn.Nimble_vm.Exe.tn_extent
            ~tile_m:tn.Nimble_vm.Exe.tn_tile_m;
          applied + 1
      | None -> applied)
    0 exe.Nimble_vm.Exe.tunes

(** Capture the installed tune decisions of the executable's dispatch
    tables into its tune table, so the next
    {!Nimble_vm.Serialize.to_bytes} persists them (the checkpoint half of
    the warm-restart loop). *)
let persist_tunes (exe : Nimble_vm.Exe.t) : int =
  let tunes =
    Nimble_vm.Exe.dispatchers exe
    |> List.concat_map (fun (name, d) ->
           List.map
             (fun (extent, tile_m) ->
               { Nimble_vm.Exe.tn_kernel = name; tn_extent = extent;
                 tn_tile_m = tile_m })
             (Nimble_codegen.Dispatch.tuned_decisions d))
  in
  Nimble_vm.Exe.set_tunes exe (Array.of_list tunes);
  List.length tunes

(** [load t ~name ~build] returns the linked executable for [name],
    compiling (and serialize/deserialize round-tripping) [build ()] on
    the first request only. The build runs under the cache lock, so
    concurrent cold loads of the same model compile once.
    @param options compiler options for the cold build (guards on/off,
    dispatch thresholds); ignored on warm hits. *)
let load ?options t ~name ~(build : unit -> Nimble_ir.Irmod.t) :
    Nimble_vm.Exe.t =
  locked t (fun () ->
      match Hashtbl.find_opt t.entries name with
      | Some e ->
          t.hits <- t.hits + 1;
          e.exe
      | None ->
          t.misses <- t.misses + 1;
          let compiled = Nimble.compile ?options (build ()) in
          (* the deployment round trip: portable bytes, then relink the
             platform kernels by name from the compile itself *)
          let bytes = Nimble_vm.Serialize.to_bytes compiled in
          let exe = of_bytes_retrying bytes in
          Nimble_vm.Exe.relink ~from:compiled exe;
          Hashtbl.replace t.entries name { exe; bytes = String.length bytes };
          exe)

(** Warm loads served since creation. *)
let hits t = locked t (fun () -> t.hits)

(** Cold loads (compile + round trip) performed since creation. *)
let misses t = locked t (fun () -> t.misses)

(** Serialized size in bytes of a cached model, if present. *)
let serialized_bytes t ~name =
  locked t (fun () ->
      Option.map (fun e -> e.bytes) (Hashtbl.find_opt t.entries name))

(* --------------------------- snapshots ---------------------------- *)

module Json = Nimble_vm.Json

(** On-disk snapshot format version (the manifest [schema] member). *)
let snapshot_schema = "nimble-snapshot/v1"

(** Run [f] behind the ["snapshot_io"] fault point, retrying injected
    {e transient} faults a bounded number of times — snapshot I/O models
    a flaky disk, and both halves of the warm-restart loop should survive
    a torn read/write. Persistent faults propagate. *)
let rec io_retrying ?(attempt = 0) f =
  match
    Nimble_fault.Fault.check "snapshot_io";
    f ()
  with
  | v -> v
  | exception
      Nimble_fault.Fault.Injected { mode = Nimble_fault.Fault.Transient; _ }
    when attempt < 3 ->
      io_retrying ~attempt:(attempt + 1) f

let mkdir_p dir =
  let rec go d =
    if d <> "" && d <> "." && d <> "/" && not (Sys.file_exists d) then begin
      go (Filename.dirname d);
      (try Sys.mkdir d 0o755 with Sys_error _ when Sys.file_exists d -> ())
    end
  in
  go dir

(** [model.nmblexe] file name for a model, with anything outside
    [A-Za-z0-9._-] mapped to [_] so model names cannot escape [dir]. *)
let snapshot_file name =
  String.map
    (fun c ->
      match c with
      | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '.' | '_' | '-' -> c
      | _ -> '_')
    name
  ^ ".nmblexe"

let write_file_atomic path contents =
  let tmp = path ^ ".tmp" in
  let oc = open_out_bin tmp in
  Fun.protect ~finally:(fun () -> close_out_noerr oc) (fun () ->
      output_string oc contents);
  Sys.rename tmp path

(* ---- generation rotation: each snapshot lands in its own gen-N
   subdirectory and the top-level manifest is renamed over last, so a
   reader always sees a complete generation; older generations are
   garbage-collected after the manifest switch. *)

let generation_of_dirname name =
  if String.length name > 4 && String.sub name 0 4 = "gen-" then
    int_of_string_opt (String.sub name 4 (String.length name - 4))
  else None

let generation_dirname g = Printf.sprintf "gen-%d" g

(** Generation numbers present under [dir], unsorted. *)
let generations ~dir : int list =
  if Sys.file_exists dir && Sys.is_directory dir then
    Sys.readdir dir |> Array.to_list
    |> List.filter_map (fun n ->
           match generation_of_dirname n with
           | Some g when Sys.is_directory (Filename.concat dir n) -> Some g
           | _ -> None)
  else []

(* Best-effort removal of one generation directory: a crashed GC leaves
   at worst an extra stale generation, never a torn current one. *)
let remove_generation ~dir g =
  let gdir = Filename.concat dir (generation_dirname g) in
  (try
     Array.iter
       (fun f -> try Sys.remove (Filename.concat gdir f) with Sys_error _ -> ())
       (Sys.readdir gdir)
   with Sys_error _ -> ());
  try Sys.rmdir gdir with Sys_error _ -> ()

let read_file path =
  let ic = open_in_bin path in
  Fun.protect ~finally:(fun () -> close_in_noerr ic) (fun () ->
      really_input_string ic (in_channel_length ic))

(** Checkpoint every cached model to [dir]: for each entry, capture the
    live tune decisions ({!persist_tunes}), serialize to
    [<name>.nmblexe], and record it (with its [hints] arena-bound dims,
    if any) in a versioned [MANIFEST.json]. Each file is written to a
    temp name and renamed, so a crashed snapshot never leaves a torn
    manifest. All I/O passes the ["snapshot_io"] fault point (transient
    faults retried). Returns how many models were written. *)
let snapshot ?(hints = []) ?(keep = 2) t ~dir : int =
  if keep < 1 then invalid_arg "Cache.snapshot: keep must be >= 1";
  locked t (fun () ->
      let prior = generations ~dir in
      let gen = 1 + List.fold_left max 0 prior in
      mkdir_p (Filename.concat dir (generation_dirname gen));
      let models =
        Hashtbl.fold (fun name e acc -> (name, e) :: acc) t.entries []
        |> List.sort (fun (a, _) (b, _) -> String.compare a b)
      in
      let entries =
        List.map
          (fun (name, e) ->
            let tunes = persist_tunes e.exe in
            let bytes = Nimble_vm.Serialize.to_bytes e.exe in
            let file =
              Filename.concat (generation_dirname gen) (snapshot_file name)
            in
            io_retrying (fun () ->
                write_file_atomic (Filename.concat dir file) bytes);
            let arena_hints =
              match List.assoc_opt name hints with
              | None -> []
              | Some dims ->
                  List.map
                    (fun d ->
                      Json.List
                        (Array.to_list (Array.map (fun i -> Json.Int i) d)))
                    dims
            in
            Json.Obj
              [
                ("name", Json.String name);
                ("file", Json.String file);
                ("bytes", Json.Int (String.length bytes));
                ("tunes", Json.Int tunes);
                ("arena_hints", Json.List arena_hints);
              ])
          models
      in
      let manifest =
        Json.Obj
          [
            ("schema", Json.String snapshot_schema);
            ("generation", Json.Int gen);
            ("models", Json.List entries);
          ]
      in
      (* the rename is the commit point: a crash before it leaves the old
         manifest (and its generation) fully intact *)
      io_retrying (fun () ->
          write_file_atomic
            (Filename.concat dir "MANIFEST.json")
            (Json.to_string_pretty manifest));
      (* GC: every generation older than the newest [keep] is dead — no
         manifest can reference it anymore *)
      let kept =
        List.filteri (fun i _ -> i < keep)
          (List.sort (fun a b -> compare b a) (gen :: prior))
      in
      List.iter
        (fun g -> if not (List.mem g kept) then remove_generation ~dir g)
        prior;
      List.length models)

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

(** Warm-restart every model recorded in [dir]'s manifest: read and
    decode each [.nmblexe] (bytecode-verified; transient ["snapshot_io"] /
    ["deserialize"] faults retried), relink its packed functions from the
    model's cached entry — {e no recompilation} — replay its tune table,
    and replace the cache entry. Every model must have been {!load}ed
    first, from any compile of the same module.
    @raise Failure on a missing/ill-versioned manifest, a model never
    loaded, or a snapshot whose packed names disagree with the loaded
    model's (the message names the model and the kernel); [Sys_error] /
    [Json.Parse_error] / verifier errors propagate. *)
let restore t ~dir : restored list =
  locked t (fun () ->
      let manifest_path = Filename.concat dir "MANIFEST.json" in
      if not (Sys.file_exists manifest_path) then
        failwith ("no snapshot manifest at " ^ manifest_path);
      let manifest =
        Json.of_string (io_retrying (fun () -> read_file manifest_path))
      in
      (match Json.member "schema" manifest with
      | Some (Json.String s) when s = snapshot_schema -> ()
      | Some (Json.String s) ->
          failwith
            (Printf.sprintf "snapshot schema %S (expected %S)" s
               snapshot_schema)
      | _ -> failwith "snapshot manifest has no schema member");
      let models =
        Json.to_list_exn (Json.member_exn "models" manifest)
      in
      List.map
        (fun m ->
          let name = Json.to_string_exn (Json.member_exn "name" m) in
          let file = Json.to_string_exn (Json.member_exn "file" m) in
          let bytes =
            io_retrying (fun () -> read_file (Filename.concat dir file))
          in
          let exe = of_bytes_retrying bytes in
          let fail msg =
            failwith (Printf.sprintf "snapshot restore of %s: %s" name msg)
          in
          (match Hashtbl.find_opt t.entries name with
          | Some e -> (
              try Nimble_vm.Exe.relink ~from:e.exe exe
              with Invalid_argument msg -> fail msg)
          | None ->
              let names = Array.map fst exe.Nimble_vm.Exe.packed_names in
              fail
                ("the model was never loaded, so nothing can relink "
                ^ if names = [||] then "it" else names.(0)));
          let applied = apply_tunes exe in
          let arena_hints =
            match Json.member "arena_hints" m with
            | Some (Json.List hs) ->
                List.map
                  (fun h ->
                    Json.to_list_exn h |> List.map Json.to_int_exn
                    |> Array.of_list)
                  hs
            | _ -> []
          in
          Hashtbl.replace t.entries name
            { exe; bytes = String.length bytes };
          {
            r_name = name;
            r_exe = exe;
            r_bytes = String.length bytes;
            r_tunes_applied = applied;
            r_arena_hints = arena_hints;
          })
        models)
