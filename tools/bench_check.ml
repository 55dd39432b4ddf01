(* Schema gate for committed benchmark baselines: every non-empty line of
   each argument file must parse as a [nimble-bench/v1] table, a
   [nimble-serve/v1] serving-benchmark document, a [nimble-chaos/v1]
   fault-injection document, or a [nimble-compile/v1] compile report (the
   [schema] member picks the check). Exits 1 on any drift so
   `dune runtest` catches accidental format changes before a downstream
   scraper does.

   Checked per bench table: the exact [schema] tag; [title]/[unit]
   strings; [columns] a non-empty list of strings; [rows] a non-empty list
   of objects, each carrying a [label] string and a [cells] list whose
   length equals the column count and whose entries are numbers or null.

   Checked per serve document: [title]/[model] strings and a [points]
   list of at least three (arrival rate x shape mix) measurements, each
   with numeric [throughput_rps]/[p50_ms]/[p99_ms]/[allocs_per_request],
   integer [rejected]/[timeouts]/[queue_depth_hwm]/[arena_reuses], and a
   non-empty [batch_hist] object of integer counts.

   Checked per chaos document: [title]/[model]/[spec] strings; integer
   [requests]/[completed]/[failed]/[rejected]/[retries]/[worker_restarts]
   with the drain invariant completed + failed + rejected = requests; a
   boolean [bitwise_ok] that must be true (successful responses stay
   bitwise-equal to the fault-free reference); [failure_kinds] an object
   of integer tallies; and a non-empty [fault_points] object whose
   entries carry integer [attempts]/[hits] with hits <= attempts.

   Checked per compile report: integer [instructions]; integer
   [registers_before]/[registers_after] with after <= before (dead-register
   compaction never grows a frame); classification fields with
   sites_total >= classified_static >= 0 (top level and every [classify]
   row) and — across all compile lines of the file — at least one report
   with [fused_across_dynamic] > 0, so the committed baseline demonstrates
   a fusion across a proven formerly-dynamic boundary; a non-empty
   [passes] list of [{name, seconds, nodes_before, nodes_after}]; and a
   non-empty [verify] list of [{name, seconds, violations}] whose
   [violations] are all zero — a committed baseline must come from a
   pipeline the verifier and dialect lints accept (docs/ANALYSIS.md).

   Checked per tune document ([nimble-tune/v1], the BENCH_tune.json
   baseline from the online-specialization bench): [title]/[model]
   strings; a [points] list of at least two phases, each with a string
   [phase], numeric [hit_rate]/[p50_ms]/[p99_ms]/[throughput_rps] and
   integer [hits]/[misses]/[tuned_calls]/[installs]; at least one
   [before] and one [after] phase, with every [after] hit rate >= every
   [before] hit rate (specialization must not lose ground); a [bitwise_ok]
   boolean that must be true (live installs never change outputs); and a
   [warm_restart_pretuned] boolean that must be true (the persisted tune
   table relinks pre-specialized — docs/TUNING.md).

   Checked per fleet document ([nimble-fleet/v1], the BENCH_fleet.json
   baseline from the multi-model fleet bench): a [models] list of at
   least two weighted entries; a [points] list with at least three
   offered-rate points past saturation, each carrying numeric
   [offered_rate_rps]/[goodput_rps] and integer outcome tallies; the
   no-collapse invariant goodput@2x >= 0.5 x peak; nonzero
   [shed_total]/[tripped_total]/[trips] (the baseline must actually
   exercise SLO admission and the breakers); [snapshot_models] >= 1 with
   numeric cold-start vs warm-restart times; and
   [warm_restart_relink_only]/[bitwise_ok] booleans that must be true
   (docs/SERVING.md). *)

module Json = Nimble_vm.Json

let problems = ref 0

let fail file line fmt =
  Format.kasprintf
    (fun msg ->
      incr problems;
      Format.eprintf "%s:%d: %s@." file line msg)
    fmt

let str_member file lineno json key =
  match Json.member key json with
  | Some (Json.String s) -> Some s
  | Some _ ->
      fail file lineno "%S is not a string" key;
      None
  | None ->
      fail file lineno "missing key %S" key;
      None

(* a [nimble-serve/v1] line: the BENCH_serve.json baseline *)
let check_serve file lineno json =
  let str_member = str_member file lineno json in
  ignore (str_member "title");
  ignore (str_member "model");
  let num ctx point key =
    match Json.member key point with
    | Some (Json.Float _) | Some (Json.Int _) -> ()
    | _ -> fail file lineno "%s: missing numeric %S" ctx key
  in
  let int_ ctx point key =
    match Json.member key point with
    | Some (Json.Int _) -> ()
    | _ -> fail file lineno "%s: missing integer %S" ctx key
  in
  match Json.member "points" json with
  | Some (Json.List points) ->
      if List.length points < 3 then
        fail file lineno "%d points, want at least 3 (rate x mix grid)"
          (List.length points);
      List.iteri
        (fun i point ->
          let ctx = Fmt.str "point %d" i in
          (match Json.member "label" point with
          | Some (Json.String _) -> ()
          | _ -> fail file lineno "%s: missing string \"label\"" ctx);
          num ctx point "rate_rps";
          num ctx point "throughput_rps";
          num ctx point "p50_ms";
          num ctx point "p99_ms";
          int_ ctx point "rejected";
          int_ ctx point "timeouts";
          int_ ctx point "queue_depth_hwm";
          num ctx point "allocs_per_request";
          int_ ctx point "arena_reuses";
          match Json.member "batch_hist" point with
          | Some (Json.Obj ((_ :: _) as entries)) ->
              List.iter
                (fun (size, count) ->
                  (match int_of_string_opt size with
                  | Some _ -> ()
                  | None ->
                      fail file lineno "%s: batch_hist key %S is not a size" ctx size);
                  match count with
                  | Json.Int _ -> ()
                  | _ -> fail file lineno "%s: batch_hist[%s] is not an integer" ctx size)
                entries
          | _ -> fail file lineno "%s: missing non-empty \"batch_hist\" object" ctx)
        points
  | Some _ | None -> fail file lineno "missing \"points\" list"

(* a [nimble-chaos/v1] line: the BENCH_chaos.json baseline *)
let check_chaos file lineno json =
  let str_member = str_member file lineno json in
  ignore (str_member "title");
  ignore (str_member "model");
  ignore (str_member "spec");
  let int_ json key =
    match Json.member key json with
    | Some (Json.Int n) -> Some n
    | _ ->
        fail file lineno "missing integer %S" key;
        None
  in
  let requests = int_ json "requests" in
  let completed = int_ json "completed" in
  let failed = int_ json "failed" in
  let rejected = int_ json "rejected" in
  ignore (int_ json "retries");
  ignore (int_ json "worker_restarts");
  (match (requests, completed, failed, rejected) with
  | Some r, Some c, Some f, Some j ->
      if c + f + j <> r then
        fail file lineno "drain violated: %d completed + %d failed + %d rejected <> %d"
          c f j r
  | _ -> ());
  (match Json.member "bitwise_ok" json with
  | Some (Json.Bool true) -> ()
  | Some (Json.Bool false) ->
      fail file lineno "bitwise_ok is false: served results drifted from the reference"
  | _ -> fail file lineno "missing boolean \"bitwise_ok\"");
  (match Json.member "failure_kinds" json with
  | Some (Json.Obj entries) ->
      List.iter
        (fun (kind, count) ->
          match count with
          | Json.Int _ -> ()
          | _ -> fail file lineno "failure_kinds[%s] is not an integer" kind)
        entries
  | _ -> fail file lineno "missing \"failure_kinds\" object");
  match Json.member "fault_points" json with
  | Some (Json.Obj ((_ :: _) as entries)) ->
      List.iter
        (fun (point, stats) ->
          match (Json.member "attempts" stats, Json.member "hits" stats) with
          | Some (Json.Int a), Some (Json.Int h) ->
              if h > a then
                fail file lineno "fault_points[%s]: %d hits > %d attempts" point h a
          | _ ->
              fail file lineno "fault_points[%s]: missing integer attempts/hits" point)
        entries
  | _ -> fail file lineno "missing non-empty \"fault_points\" object"

(* a [nimble-tune/v1] line: the BENCH_tune.json baseline *)
let check_tune file lineno json =
  let str_member = str_member file lineno json in
  ignore (str_member "title");
  ignore (str_member "model");
  let num ctx point key =
    match Json.member key point with
    | Some (Json.Float _) | Some (Json.Int _) -> ()
    | _ -> fail file lineno "%s: missing numeric %S" ctx key
  in
  let int_ ctx point key =
    match Json.member key point with
    | Some (Json.Int _) -> ()
    | _ -> fail file lineno "%s: missing integer %S" ctx key
  in
  let hit_rate point =
    match Json.member "hit_rate" point with
    | Some (Json.Float f) -> Some f
    | Some (Json.Int n) -> Some (float_of_int n)
    | _ -> None
  in
  (match Json.member "points" json with
  | Some (Json.List points) ->
      if List.length points < 2 then
        fail file lineno "%d points, want at least 2 (a before and an after phase)"
          (List.length points);
      List.iteri
        (fun i point ->
          let ctx = Fmt.str "point %d" i in
          (match Json.member "phase" point with
          | Some (Json.String _) -> ()
          | _ -> fail file lineno "%s: missing string \"phase\"" ctx);
          num ctx point "hit_rate";
          num ctx point "p50_ms";
          num ctx point "p99_ms";
          num ctx point "throughput_rps";
          int_ ctx point "hits";
          int_ ctx point "misses";
          int_ ctx point "tuned_calls";
          int_ ctx point "installs")
        points;
      let phase name =
        List.filter
          (fun p -> Json.member "phase" p = Some (Json.String name))
          points
      in
      let before = phase "before" and after = phase "after" in
      if before = [] then fail file lineno "no \"before\" phase point";
      if after = [] then fail file lineno "no \"after\" phase point";
      List.iter
        (fun b ->
          List.iter
            (fun a ->
              match (hit_rate b, hit_rate a) with
              | Some hb, Some ha when ha < hb ->
                  fail file lineno
                    "hit rate regressed: after %.3f < before %.3f (re-tuning \
                     must not lose ground)"
                    ha hb
              | _ -> ())
            after)
        before
  | Some _ | None -> fail file lineno "missing \"points\" list");
  (match Json.member "bitwise_ok" json with
  | Some (Json.Bool true) -> ()
  | Some (Json.Bool false) ->
      fail file lineno "bitwise_ok is false: a live install changed outputs"
  | _ -> fail file lineno "missing boolean \"bitwise_ok\"");
  match Json.member "warm_restart_pretuned" json with
  | Some (Json.Bool true) -> ()
  | Some (Json.Bool false) ->
      fail file lineno
        "warm_restart_pretuned is false: the persisted tune table did not relink"
  | _ -> fail file lineno "missing boolean \"warm_restart_pretuned\""

(* a [nimble-fleet/v1] line: the BENCH_fleet.json baseline *)
let check_fleet file lineno json =
  let str_member = str_member file lineno json in
  ignore (str_member "title");
  let num_of key =
    match Json.member key json with
    | Some (Json.Float f) -> Some f
    | Some (Json.Int n) -> Some (float_of_int n)
    | _ ->
        fail file lineno "missing numeric %S" key;
        None
  in
  let int_of key =
    match Json.member key json with
    | Some (Json.Int n) -> Some n
    | _ ->
        fail file lineno "missing integer %S" key;
        None
  in
  let bool_true key why =
    match Json.member key json with
    | Some (Json.Bool true) -> ()
    | Some (Json.Bool false) -> fail file lineno "%S is false: %s" key why
    | _ -> fail file lineno "missing boolean %S" key
  in
  (match Json.member "models" json with
  | Some (Json.List ((_ :: _ :: _) as models)) ->
      List.iteri
        (fun i m ->
          (match Json.member "name" m with
          | Some (Json.String _) -> ()
          | _ -> fail file lineno "model %d: missing string \"name\"" i);
          match Json.member "weight" m with
          | Some (Json.Int w) when w >= 1 -> ()
          | _ -> fail file lineno "model %d: missing positive \"weight\"" i)
        models
  | _ -> fail file lineno "missing \"models\" list of at least 2 entries");
  (match Json.member "points" json with
  | Some (Json.List points) ->
      let past =
        List.filter
          (fun p -> Json.member "past_saturation" p = Some (Json.Bool true))
          points
      in
      if List.length past < 3 then
        fail file lineno
          "%d offered-rate points past saturation, want at least 3"
          (List.length past);
      List.iteri
        (fun i point ->
          let ctx = Fmt.str "point %d" i in
          (match Json.member "label" point with
          | Some (Json.String _) -> ()
          | _ -> fail file lineno "%s: missing string \"label\"" ctx);
          List.iter
            (fun key ->
              match Json.member key point with
              | Some (Json.Float _) | Some (Json.Int _) -> ()
              | _ -> fail file lineno "%s: missing numeric %S" ctx key)
            [ "offered_rate_rps"; "goodput_rps" ];
          List.iter
            (fun key ->
              match Json.member key point with
              | Some (Json.Int _) -> ()
              | _ -> fail file lineno "%s: missing integer %S" ctx key)
            [ "offered"; "ok"; "shed"; "tripped"; "rejected"; "timed_out";
              "failed" ])
        points
  | Some _ | None -> fail file lineno "missing \"points\" list");
  (* no-collapse: shedding at the door must keep goodput at twice the
     saturation rate within half of the peak (graceful degradation, not a
     congestion collapse) *)
  (match (num_of "peak_goodput_rps", num_of "goodput_at_2x_rps") with
  | Some peak, Some g2x ->
      if g2x < 0.5 *. peak then
        fail file lineno
          "goodput at 2x saturation (%.0f rps) collapsed below half the peak \
           (%.0f rps)"
          g2x peak
  | _ -> ());
  (match int_of "shed_total" with
  | Some n when n >= 1 -> ()
  | Some _ -> fail file lineno "\"shed_total\" is zero: admission never shed"
  | None -> ());
  (match int_of "tripped_total" with
  | Some n when n >= 1 -> ()
  | Some _ ->
      fail file lineno "\"tripped_total\" is zero: no breaker ever refused"
  | None -> ());
  (match int_of "trips" with
  | Some n when n >= 1 -> ()
  | Some _ -> fail file lineno "\"trips\" is zero: no breaker lane opened"
  | None -> ());
  (match int_of "snapshot_models" with
  | Some n when n >= 1 -> ()
  | Some _ -> fail file lineno "\"snapshot_models\" is zero: nothing checkpointed"
  | None -> ());
  ignore (num_of "cold_start_ms");
  ignore (num_of "warm_restart_ms");
  bool_true "warm_restart_relink_only"
    "the restore recompiled instead of relinking from the registry";
  bool_true "bitwise_ok"
    "a fleet response diverged from the sequential reference"

(* Across all compile-report lines of one file: at least one model must
   show a fused group crossing a proven formerly-dynamic boundary, or the
   classification pass is decorative (docs/ANALYSIS.md). *)
let compile_fused_seen = ref false
let compile_first_line = ref None

(* a [nimble-compile/v1] line: the BENCH_compile.json baseline *)
let check_compile file lineno json =
  if !compile_first_line = None then compile_first_line := Some lineno;
  (match Json.member "instructions" json with
  | Some (Json.Int n) when n > 0 -> ()
  | Some (Json.Int _) -> fail file lineno "\"instructions\" is not positive"
  | _ -> fail file lineno "missing integer \"instructions\"");
  (let regs key =
     match Json.member key json with
     | Some (Json.Int n) -> Some n
     | _ ->
         fail file lineno "missing integer %S" key;
         None
   in
   match (regs "registers_before", regs "registers_after") with
   | Some before, Some after ->
       if after > before then
         fail file lineno
           "registers_after %d > registers_before %d (compaction never grows a frame)"
           after before
   | _ -> ());
  (* classification fields: candidate sites >= dominance-proven sites,
     both non-negative, at top level and per classify-table row *)
  (let nat ctx entry key =
     match Json.member key entry with
     | Some (Json.Int n) when n >= 0 -> Some n
     | Some (Json.Int n) ->
         fail file lineno "%s: %S is negative (%d)" ctx key n;
         None
     | _ ->
         fail file lineno "%s: missing integer %S" ctx key;
         None
   in
   let counted_vs_proven ctx entry =
     (match (nat ctx entry "sites_total", nat ctx entry "classified_static") with
     | Some total, Some proven when proven > total ->
         fail file lineno
           "%s: classified_static %d > sites_total %d (cannot prove more \
            sites than exist)"
           ctx proven total
     | _ -> ());
     nat ctx entry "fused_across_dynamic"
   in
   (match counted_vs_proven "report" json with
   | Some n when n > 0 -> compile_fused_seen := true
   | _ -> ());
   match Json.member "classify" json with
   | Some (Json.List rows) ->
       List.iteri
         (fun i row ->
           let ctx = Fmt.str "classify row %d" i in
           (match Json.member "fn" row with
           | Some (Json.String _) -> ()
           | _ -> fail file lineno "%s: missing string \"fn\"" ctx);
           ignore (counted_vs_proven ctx row))
         rows
   | _ -> fail file lineno "missing \"classify\" list");
  let num ctx entry key =
    match Json.member key entry with
    | Some (Json.Float _) | Some (Json.Int _) -> ()
    | _ -> fail file lineno "%s: missing numeric %S" ctx key
  in
  (match Json.member "passes" json with
  | Some (Json.List ((_ :: _) as passes)) ->
      List.iteri
        (fun i p ->
          let ctx = Fmt.str "pass %d" i in
          (match Json.member "name" p with
          | Some (Json.String _) -> ()
          | _ -> fail file lineno "%s: missing string \"name\"" ctx);
          num ctx p "seconds";
          (match Json.member "nodes_before" p with
          | Some (Json.Int _) -> ()
          | _ -> fail file lineno "%s: missing integer \"nodes_before\"" ctx);
          match Json.member "nodes_after" p with
          | Some (Json.Int _) -> ()
          | _ -> fail file lineno "%s: missing integer \"nodes_after\"" ctx)
        passes
  | _ -> fail file lineno "missing non-empty \"passes\" list");
  match Json.member "verify" json with
  | Some (Json.List ((_ :: _) as checks)) ->
      List.iteri
        (fun i v ->
          let ctx = Fmt.str "verify %d" i in
          (match Json.member "name" v with
          | Some (Json.String _) -> ()
          | _ -> fail file lineno "%s: missing string \"name\"" ctx);
          num ctx v "seconds";
          match Json.member "violations" v with
          | Some (Json.Int 0) -> ()
          | Some (Json.Int n) ->
              fail file lineno
                "%s: %d violations (a committed baseline must verify clean)" ctx n
          | _ -> fail file lineno "%s: missing integer \"violations\"" ctx)
        checks
  | _ ->
      fail file lineno
        "missing non-empty \"verify\" list (every compile runs the lints and the bytecode verifier)"

let check_table file lineno json =
  let str_member = str_member file lineno json in
  ignore (str_member "title");
  ignore (str_member "unit");
  let ncols =
    match Json.member "columns" json with
    | Some (Json.List cols) when cols <> [] ->
        List.iter
          (function
            | Json.String _ -> ()
            | _ -> fail file lineno "non-string entry in \"columns\"")
          cols;
        List.length cols
    | Some _ | None ->
        fail file lineno "missing or empty \"columns\" list";
        -1
  in
  match Json.member "rows" json with
  | Some (Json.List rows) when rows <> [] ->
      List.iteri
        (fun i row ->
          (match Json.member "label" row with
          | Some (Json.String _) -> ()
          | _ -> fail file lineno "row %d: missing string \"label\"" i);
          match Json.member "cells" row with
          | Some (Json.List cells) ->
              if ncols >= 0 && List.length cells <> ncols then
                fail file lineno "row %d: %d cells for %d columns" i
                  (List.length cells) ncols;
              List.iter
                (function
                  | Json.Float _ | Json.Int _ | Json.Null -> ()
                  | _ -> fail file lineno "row %d: cell is not number|null" i)
                cells
          | _ -> fail file lineno "row %d: missing \"cells\" list" i)
        rows
  | Some _ | None -> fail file lineno "missing or empty \"rows\" list"

let check_file file =
  let ic = open_in file in
  let tables = ref 0 in
  let lineno = ref 0 in
  compile_fused_seen := false;
  compile_first_line := None;
  (try
     while true do
       let line = input_line ic in
       incr lineno;
       if String.trim line <> "" then begin
         incr tables;
         match Json.of_string line with
         | json -> (
             match Json.member "schema" json with
             | Some (Json.String "nimble-bench/v1") -> check_table file !lineno json
             | Some (Json.String "nimble-serve/v1") -> check_serve file !lineno json
             | Some (Json.String "nimble-chaos/v1") -> check_chaos file !lineno json
             | Some (Json.String "nimble-compile/v1") -> check_compile file !lineno json
             | Some (Json.String "nimble-tune/v1") -> check_tune file !lineno json
             | Some (Json.String "nimble-fleet/v1") -> check_fleet file !lineno json
             | Some (Json.String other) ->
                 fail file !lineno
                   "schema is %S, want \"nimble-bench/v1\", \"nimble-serve/v1\", \
                    \"nimble-chaos/v1\", \"nimble-compile/v1\", \
                    \"nimble-tune/v1\" or \"nimble-fleet/v1\""
                   other
             | Some _ | None -> fail file !lineno "missing string \"schema\"")
         | exception Json.Parse_error msg ->
             fail file !lineno "JSON parse error: %s" msg
       end
     done
   with End_of_file -> ());
  close_in ic;
  if !tables = 0 then fail file 0 "no tables found (empty file)";
  match !compile_first_line with
  | Some line when not !compile_fused_seen ->
      fail file line
        "no compile report has fused_across_dynamic > 0 (at least one zoo \
         model must fuse across a proven dynamic boundary)"
  | _ -> ()

let () =
  let files = List.tl (Array.to_list Sys.argv) in
  if files = [] then begin
    prerr_endline "usage: bench_check FILE...";
    exit 2
  end;
  List.iter check_file files;
  if !problems > 0 then begin
    Format.eprintf "bench_check: %d problem(s)@." !problems;
    exit 1
  end
