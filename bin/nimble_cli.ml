(** nimble_cli — compile, inspect and run models from the built-in zoo.

    {[
      nimble_cli compile bert -o bert.nimble   # compile + serialize
      nimble_cli disasm bert.nimble            # print bytecode
      nimble_cli run bert --seq 24             # compile, run, profile
      nimble_cli models                        # list the zoo
    ]} *)

open Cmdliner
open Nimble_tensor
module Nimble = Nimble_compiler.Nimble
module Interp = Nimble_vm.Interp
module Serve = Nimble_serve
module Fault = Nimble_fault.Fault
module Zoo = Nimble_workloads.Zoo

(** Exit with a one-line diagnostic (no backtrace): the polite way to
    refuse a malformed knob value. *)
let die fmt = Fmt.kstr (fun msg -> Fmt.epr "nimble_cli: %s@." msg; exit 1) fmt

let lookup name =
  match Zoo.find name with
  | Some m -> m
  | None ->
      Fmt.epr "unknown model %s; try: %s@." name
        (String.concat ", " (List.map (fun (m : Zoo.model) -> m.name) Zoo.models));
      exit 1

(* ------------------------- commands ------------------------- *)

let model_arg =
  Arg.(required & pos 0 (some string) None & info [] ~docv:"MODEL" ~doc:"Model from the zoo")

let models_cmd =
  let run () =
    List.iter (fun (m : Zoo.model) -> Fmt.pr "%-12s %s@." m.name m.description) Zoo.models
  in
  Cmd.v (Cmd.info "models" ~doc:"List the built-in model zoo") Term.(const run $ const ())

(** Write a JSON document to [path] and say so. *)
let save_json path doc =
  Nimble_vm.Json.save_file doc path;
  Fmt.pr "report: %s@." path

let compile_cmd =
  let output =
    Arg.(value & opt string "model.nimble" & info [ "o"; "output" ] ~doc:"Output path")
  in
  let report_out =
    Arg.(
      value
      & opt (some string) None
      & info [ "report" ] ~docv:"FILE"
          ~doc:"Write the compile report ($(i,nimble-compile/v1) JSON) to $(docv)")
  in
  let run model output report_out =
    let exe, report = Nimble.compile_with_report ((lookup model).build ()) in
    Nimble_vm.Serialize.save_file exe output;
    Fmt.pr "compiled %s -> %s@." model output;
    Fmt.pr "%a@." Nimble.pp_report report;
    Option.iter (fun path -> save_json path (Nimble.report_to_json report)) report_out
  in
  Cmd.v (Cmd.info "compile" ~doc:"Compile a zoo model to a serialized executable")
    Term.(const run $ model_arg $ output $ report_out)

let disasm_cmd =
  let path =
    Arg.(required & pos 0 (some string) None & info [] ~docv:"FILE" ~doc:"Executable file")
  in
  let run path =
    let exe =
      match Nimble_analysis.Verifier.load_file path with
      | exe -> exe
      | exception Nimble_analysis.Verifier.Verify_error ds ->
          List.iter (fun d -> Fmt.epr "%a@." Nimble_analysis.Diag.pp d) ds;
          die "%s failed bytecode verification (%d violations)" path (List.length ds)
    in
    Nimble_vm.Exe.disassemble Fmt.stdout exe
  in
  Cmd.v
    (Cmd.info "disasm" ~doc:"Verify and disassemble a serialized executable")
    Term.(const run $ path)

let seq_arg =
  Arg.(value & opt int 12 & info [ "seq" ] ~doc:"Sequence length / token count")

(* ------------------------- shared knobs ------------------------- *)

(** The knobs [run], [profile], [serve] and [loadgen] share. *)
type knobs = {
  options : Nimble.options;  (** [--no-guards] and [--no-symbolic-plan] applied *)
  trace : Nimble_vm.Trace.t option;
      (** the recorder, when [--trace] names a file; its clock starts
          when the knobs are read *)
  trace_out : string option;
  report_out : string option;
}

(** Reading the knobs applies [--domains] and [--fault]. A command takes
    this term last, so its own knobs are validated first. *)
let knobs_term =
  let domains =
    Arg.(
      value
      & opt (some int) None
      & info [ "domains" ] ~docv:"N"
          ~doc:
            "Domain-pool width for multicore kernels (overrides \
             $(b,NIMBLE_NUM_DOMAINS); 1 = fully sequential)")
  in
  let fault =
    Arg.(
      value
      & opt (some string) None
      & info [ "fault" ] ~docv:"SPEC"
          ~doc:
            "Fault-injection spec, e.g. $(b,seed=11;*=0.05) or \
             $(b,kernel_launch=0.5:transient) (overrides $(b,NIMBLE_FAULT_SPEC); \
             grammar in docs/ROBUSTNESS.md)")
  in
  let no_guards =
    Arg.(
      value & flag
      & info [ "no-guards" ]
          ~doc:
            "Compile without entry type guards (the runtime checks that validate \
             each call's tensor arguments against the function's declared types; \
             see docs/ROBUSTNESS.md)")
  in
  let no_symbolic_plan =
    Arg.(
      value & flag
      & info [ "no-symbolic-plan" ]
          ~doc:
            "Compile without symbolic memory planning: dynamic allocations stay \
             per-request storage allocs instead of slots in a per-request-bound \
             reusable arena (the legacy behaviour; see docs/MEMORY.md)")
  in
  let trace =
    Arg.(
      value
      & opt (some string) None
      & info [ "trace" ] ~docv:"FILE"
          ~doc:
            "Record a VM execution trace and write it to $(docv) as Chrome \
             $(i,trace_event) JSON (load in Perfetto or chrome://tracing)")
  in
  let report =
    Arg.(
      value
      & opt (some string) None
      & info [ "report" ] ~docv:"FILE"
          ~doc:
            "Write a $(i,nimble-report/v1) JSON (profiler + compile report) to \
             $(docv)")
  in
  let mk domains fault no_guards no_symbolic_plan trace_out report_out =
    Option.iter Nimble_parallel.Parallel.set_num_domains domains;
    Option.iter
      (fun spec ->
        try Fault.configure spec
        with Fault.Spec_error msg -> die "bad --fault spec: %s" msg)
      fault;
    {
      options =
        {
          Nimble.default_options with
          Nimble.runtime_guards = not no_guards;
          symbolic_plan = not no_symbolic_plan;
        };
      trace = Option.map (fun _ -> Nimble_vm.Trace.create ()) trace_out;
      trace_out;
      report_out;
    }
  in
  Term.(const mk $ domains $ fault $ no_guards $ no_symbolic_plan $ trace $ report)

(** Write the trace, tagged with [meta], when [--trace] asked for one. *)
let save_trace k ~meta =
  match (k.trace, k.trace_out) with
  | Some tr, Some path ->
      Nimble_vm.Trace.save_file ~meta tr path;
      Fmt.pr "trace: %s (%d spans, %d dropped)@." path
        (List.length (Nimble_vm.Trace.spans tr))
        (Nimble_vm.Trace.dropped tr)
  | _ -> ()

(** Write [doc ()] when [--report] names a file. *)
let save_report k doc = Option.iter (fun path -> save_json path (doc ())) k.report_out

(* ------------------------- autotuning ------------------------- *)

let autotune_flag_arg =
  Arg.(
    value
    & vflag None
        [
          ( Some true,
            info [ "autotune" ]
              ~doc:
                "Attach the online shape specializer while serving: hot \
                 dispatch extents are re-tuned in the background and the \
                 winners installed into the live dispatch tables (see \
                 docs/TUNING.md)" );
          ( Some false,
            info [ "no-autotune" ]
              ~doc:"Serve without online shape specialization (the default)" );
        ])

let autotune_threshold_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "autotune-threshold" ] ~docv:"N"
        ~doc:
          "Dispatch count at which an extent counts as hot (default from \
           the tuner policy)")

let autotune_interval_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "autotune-interval" ] ~docv:"N"
        ~doc:"Served batches between hotness scans (default from the tuner policy)")

(** Fold the three flags into the tuner policy, validating the knobs:
    [Some config] when [--autotune] is on, [None] otherwise. *)
let autotune_term =
  let mk flag threshold interval =
    Option.iter
      (fun n -> if n < 1 then die "--autotune-threshold must be >= 1 (got %d)" n)
      threshold;
    Option.iter
      (fun n -> if n < 1 then die "--autotune-interval must be >= 1 (got %d)" n)
      interval;
    let d = Nimble_codegen.Autotune.default_config in
    if Option.value flag ~default:false then
      Some
        {
          d with
          Nimble_codegen.Autotune.hot_threshold =
            Option.value threshold ~default:d.Nimble_codegen.Autotune.hot_threshold;
          scan_interval =
            Option.value interval ~default:d.Nimble_codegen.Autotune.scan_interval;
        }
    else None
  in
  Term.(const mk $ autotune_flag_arg $ autotune_threshold_arg $ autotune_interval_arg)

(** An {!Nimble_codegen.Autotune.t} for serving when [--autotune] asked for
    one. *)
let make_autotuner = Option.map (fun config -> Nimble_codegen.Autotune.create ~config ())

(** Finish the specializer after the engine drained: wait for in-flight
    tuning, stop the tuning domain, and print a one-line summary. *)
let finish_autotuner ?(quiet = false) au =
  Nimble_codegen.Autotune.drain au;
  Nimble_codegen.Autotune.shutdown au;
  let s = Nimble_codegen.Autotune.summary au in
  if not quiet then
    Fmt.pr "autotune: %d observations, %d scans, %d installs, %d evictions@."
      s.Nimble_codegen.Autotune.au_observations s.Nimble_codegen.Autotune.au_scans
      (List.length s.Nimble_codegen.Autotune.au_installs)
      s.Nimble_codegen.Autotune.au_evictions;
  s

(** The [nimble-report/v1] document: one CLI run's profiler report plus
    the compile report that produced the executable. *)
let run_report_json ~model ~seq ~(creport : Nimble.report) vm =
  Nimble_vm.Json.Obj
    [
      ("schema", Nimble_vm.Json.String "nimble-report/v1");
      ("model", Nimble_vm.Json.String model);
      ("seq", Nimble_vm.Json.Int seq);
      ("profile", Nimble_vm.Profiler.to_json (Interp.profiler vm));
      ("compile", Nimble.report_to_json creport);
    ]

(** Compile a zoo model with the knobs' options, and a VM over it that
    records into the knobs' trace. *)
let compile_traced model k =
  let m = lookup model in
  let exe, creport = Nimble.compile_with_report ~options:k.options (m.build ()) in
  let vm = Nimble.vm exe in
  Interp.set_trace vm k.trace;
  (m, creport, vm)

(** Save the trace and the [nimble-report/v1] document of a [run] or
    [profile]. *)
let save_run k ~model ~seq ~creport vm =
  save_trace k ~meta:[ ("model", model); ("seq", string_of_int seq) ];
  save_report k (fun () -> run_report_json ~model ~seq ~creport vm)

let run_cmd =
  let run model seq k =
    let m, creport, vm = compile_traced model k in
    let input = m.sample_input ~seq in
    let t0 = Unix.gettimeofday () in
    let out =
      match Interp.invoke_result vm [ input ] with
      | Ok out -> out
      | Error fl -> die "execution failed: %a" Interp.pp_failure fl
    in
    let ms = 1e3 *. (Unix.gettimeofday () -. t0) in
    (match out with
    | Nimble_vm.Obj.Tensor p ->
        Fmt.pr "output: %a (%.2f ms)@." Shape.pp (Tensor.shape p.Nimble_vm.Obj.data) ms
    | o -> Fmt.pr "output: %a (%.2f ms)@." Nimble_vm.Obj.pp o ms);
    Fmt.pr "@.profile:@.%a" Nimble_vm.Profiler.pp (Interp.profiler vm);
    save_run k ~model ~seq ~creport vm
  in
  Cmd.v (Cmd.info "run" ~doc:"Compile and run a zoo model with profiling")
    Term.(const run $ model_arg $ seq_arg $ knobs_term)

let profile_cmd =
  let runs =
    Arg.(value & opt int 1 & info [ "runs" ] ~doc:"Number of measured invocations")
  in
  let json =
    Arg.(
      value & flag
      & info [ "json" ]
          ~doc:"Print the $(i,nimble-report/v1) JSON to stdout instead of tables")
  in
  let run model seq runs json k =
    let m, creport, vm = compile_traced model k in
    let input = m.sample_input ~seq in
    let runs = max 1 runs in
    (* reuse one execution context across the measured runs, as the
       serving workers do: steady-state cost, not per-call allocation *)
    let ctx = Interp.context () in
    for _ = 1 to runs do
      ignore (Interp.invoke ~ctx vm [ input ])
    done;
    if json then
      print_string
        (Nimble_vm.Json.to_string_pretty (run_report_json ~model ~seq ~creport vm))
    else begin
      Fmt.pr "== compile (%s) ==@.%a@.@.%a@." model Nimble.pp_report creport
        Nimble.pp_passes creport;
      Fmt.pr "== runtime (seq=%d, %d run%s, %d warm frame reuse%s) ==@.%a" seq runs
        (if runs = 1 then "" else "s")
        (Interp.frame_reuses ctx)
        (if Interp.frame_reuses ctx = 1 then "" else "s")
        Nimble_vm.Profiler.pp (Interp.profiler vm)
    end;
    save_run k ~model ~seq ~creport vm
  in
  Cmd.v
    (Cmd.info "profile"
       ~doc:
         "Compile and run a zoo model, then print per-pass compile stats and \
          the runtime profile (or the JSON report with $(b,--json))")
    Term.(const run $ model_arg $ seq_arg $ runs $ json $ knobs_term)

(* ------------------------- serving ------------------------- *)

let engine_config_term =
  let workers =
    Arg.(value & opt int 2 & info [ "workers" ] ~docv:"N" ~doc:"VM worker domains")
  in
  let queue =
    Arg.(
      value & opt int 64
      & info [ "queue-capacity" ] ~docv:"N"
          ~doc:"Pending-queue bound; submissions beyond it are rejected")
  in
  let max_batch =
    Arg.(
      value & opt int 8
      & info [ "max-batch" ] ~docv:"N"
          ~doc:"Most queued same-bucket requests one worker takes at once")
  in
  let bucket =
    Arg.(
      value & opt int 8
      & info [ "bucket-multiple" ] ~docv:"M"
          ~doc:
            "Round bucket dims up to a multiple of $(docv) so nearby shapes batch \
             together (0 or 1 = exact-shape buckets). Inputs are never padded: \
             every request runs at its exact shape")
  in
  let timeout =
    Arg.(
      value
      & opt (some float) None
      & info [ "timeout-us" ] ~docv:"US"
          ~doc:"Default per-request deadline (microseconds from submission)")
  in
  let max_retries =
    Arg.(
      value & opt int 3
      & info [ "max-retries" ] ~docv:"N"
          ~doc:"Per-request retries of transient failures (0 disables retrying)")
  in
  let retry_backoff =
    Arg.(
      value & opt float 200.0
      & info [ "retry-backoff-us" ] ~docv:"US"
          ~doc:"Base backoff before the first retry (doubles per attempt)")
  in
  let pool_cap =
    Arg.(
      value
      & opt (some int) None
      & info [ "pool-cap-bytes" ] ~docv:"B"
          ~doc:
            "Per-worker cap on VM storage retained across requests; an \
             allocation that would exceed it fails the request as \
             $(i,alloc)")
  in
  let mk workers queue_capacity max_batch bucket timeout max_retries
      retry_backoff_us pool_cap_bytes =
    if workers < 1 then die "--workers must be >= 1 (got %d)" workers;
    if queue_capacity < 1 then
      die "--queue-capacity must be >= 1 (got %d)" queue_capacity;
    if max_batch < 1 then die "--max-batch must be >= 1 (got %d)" max_batch;
    if bucket < 0 then die "--bucket-multiple must be >= 0 (got %d)" bucket;
    Option.iter
      (fun t -> if t <= 0.0 then die "--timeout-us must be > 0 (got %g)" t)
      timeout;
    if max_retries < 0 then die "--max-retries must be >= 0 (got %d)" max_retries;
    if retry_backoff_us < 0.0 then
      die "--retry-backoff-us must be >= 0 (got %g)" retry_backoff_us;
    Option.iter
      (fun b -> if b <= 0 then die "--pool-cap-bytes must be > 0 (got %d)" b)
      pool_cap_bytes;
    {
      Serve.Engine.workers;
      queue_capacity;
      max_batch;
      policy =
        (if bucket <= 1 then Serve.Bucket.Exact
         else Serve.Bucket.Pad { multiple = bucket; max_over = 2.0 });
      default_timeout_us = timeout;
      max_retries;
      retry_backoff_us;
      pool_cap_bytes;
      warm_hints = [];
    }
  in
  Term.(
    const mk $ workers $ queue $ max_batch $ bucket $ timeout
    $ max_retries $ retry_backoff $ pool_cap)

(* ------------------------- fleet options ------------------------- *)

let models_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "models" ] ~docv:"NAME[:w=N],..."
        ~doc:
          "Serve several zoo models as a fleet with weighted worker shares, \
           e.g. $(b,mlp:w=3,rnn:w=1) (default weight 1)")

(** Parse a [--models] spec into (zoo model, weight) pairs; any
    malformed entry, unknown model, bad weight or duplicate exits 1 with
    a one-line diagnostic. *)
let parse_models spec : (Zoo.model * int) list =
  let entries =
    String.split_on_char ',' spec |> List.map String.trim
    |> List.filter (fun e -> e <> "")
  in
  if entries = [] then die "--models: no models in %S" spec;
  let parsed =
    List.map
      (fun entry ->
        match String.split_on_char ':' entry with
        | [ name ] -> (name, 1)
        | [ name; w ] -> (
            let weight =
              if String.length w > 2 && String.sub w 0 2 = "w=" then
                int_of_string_opt (String.sub w 2 (String.length w - 2))
              else None
            in
            match weight with
            | Some n when n >= 1 -> (name, n)
            | Some n -> die "--models: weight %d for %s must be >= 1" n name
            | None -> die "--models: bad entry %S (want NAME or NAME:w=N)" entry)
        | _ -> die "--models: bad entry %S (want NAME or NAME:w=N)" entry)
      entries
  in
  List.iteri
    (fun i (name, _) ->
      List.iteri
        (fun j (n2, _) ->
          if i < j && name = n2 then die "--models: duplicate model %s" name)
        parsed)
    parsed;
  List.map (fun (name, w) -> (lookup name, w)) parsed

(** Breaker / admission / snapshot knobs for the fleet tier, validated
    to one-line exit-1 diagnostics. Produces
    [(breaker config option, admission config option, snapshot dir)]. *)
let fleet_knobs_term =
  let breaker_window =
    Arg.(
      value & opt int 16
      & info [ "breaker-window" ] ~docv:"N"
          ~doc:"Circuit-breaker sliding outcome window (requests)")
  in
  let breaker_threshold =
    Arg.(
      value & opt float 0.5
      & info [ "breaker-threshold" ] ~docv:"F"
          ~doc:"Trip when the window's failure fraction reaches $(docv)")
  in
  let breaker_cooldown =
    Arg.(
      value & opt int 8
      & info [ "breaker-cooldown" ] ~docv:"N"
          ~doc:"Admissions shed while Open before a HalfOpen probe")
  in
  let breaker_probes =
    Arg.(
      value & opt int 2
      & info [ "breaker-probes" ] ~docv:"N"
          ~doc:"HalfOpen trial budget; all must succeed to re-close")
  in
  let no_breaker =
    Arg.(value & flag & info [ "no-breaker" ] ~doc:"Disable circuit breakers")
  in
  let admission_alpha =
    Arg.(
      value & opt float 0.2
      & info [ "admission-alpha" ] ~docv:"F"
          ~doc:"SLO admission EWMA smoothing factor in (0, 1]")
  in
  let admission_margin =
    Arg.(
      value & opt float 1.0
      & info [ "admission-margin" ] ~docv:"F"
          ~doc:"Safety multiplier on the admission wait estimate")
  in
  let no_admission =
    Arg.(
      value & flag
      & info [ "no-admission" ] ~doc:"Disable SLO-aware admission shedding")
  in
  let snapshot_dir =
    Arg.(
      value
      & opt (some string) None
      & info [ "snapshot-dir" ] ~docv:"DIR"
          ~doc:
            "Warm-restart from $(docv) when it holds a snapshot manifest, and \
             checkpoint the fleet there after serving")
  in
  let mk w th cd pr nb alpha margin na snap =
    if w < 1 then die "--breaker-window must be >= 1 (got %d)" w;
    if not (th > 0.0 && th <= 1.0) then
      die "--breaker-threshold must be in (0, 1] (got %g)" th;
    if cd < 1 then die "--breaker-cooldown must be >= 1 (got %d)" cd;
    if pr < 1 then die "--breaker-probes must be >= 1 (got %d)" pr;
    if not (alpha > 0.0 && alpha <= 1.0) then
      die "--admission-alpha must be in (0, 1] (got %g)" alpha;
    if margin <= 0.0 then die "--admission-margin must be > 0 (got %g)" margin;
    Option.iter
      (fun d ->
        if String.trim d = "" then die "--snapshot-dir must not be empty";
        if Sys.file_exists d && not (Sys.is_directory d) then
          die "--snapshot-dir %s exists and is not a directory" d)
      snap;
    let breaker =
      if nb then None
      else
        Some
          {
            Serve.Breaker.window = w;
            failure_threshold = th;
            cooldown = cd;
            probes = pr;
          }
    in
    let admission =
      if na then None else Some { Serve.Admission.alpha; margin }
    in
    (breaker, admission, snap)
  in
  Term.(
    const mk $ breaker_window $ breaker_threshold $ breaker_cooldown
    $ breaker_probes $ no_breaker $ admission_alpha $ admission_margin
    $ no_admission $ snapshot_dir)

(** Cold-load through the warm cache (serialize → deserialize → relink),
    then load again to show the warm path. *)
let cache_load ?(quiet = false) ~options (m : Zoo.model) =
  let cache = Serve.Cache.create () in
  let t0 = Unix.gettimeofday () in
  let exe = Serve.Cache.load ~options cache ~name:m.name ~build:m.build in
  let cold_ms = 1e3 *. (Unix.gettimeofday () -. t0) in
  ignore (Serve.Cache.load ~options cache ~name:m.name ~build:m.build);
  let bytes =
    match Serve.Cache.serialized_bytes cache ~name:m.name with Some b -> b | None -> 0
  in
  if not quiet then
    Fmt.pr "loaded %s: cold %.1f ms (%d bytes serialized), warm hits %d@." m.name cold_ms
      bytes (Serve.Cache.hits cache);
  exe

let serve_meta model = [ ("model", model); ("mode", "serve") ]

let serve_cmd =
  let model_pos =
    Arg.(
      value
      & pos 0 (some string) None
      & info [] ~docv:"MODEL" ~doc:"Model from the zoo (omit with --models)")
  in
  let requests =
    Arg.(value & opt int 64 & info [ "requests" ] ~docv:"N" ~doc:"Requests to serve")
  in
  let seq_min =
    Arg.(value & opt int 4 & info [ "seq-min" ] ~doc:"Smallest sequence length served")
  in
  let seq_max =
    Arg.(value & opt int 16 & info [ "seq-max" ] ~doc:"Largest sequence length served")
  in
  let serve_one (m : Zoo.model) cfg autotuner k requests seq_min seq_max =
    let exe = cache_load ~options:k.options m in
    let engine = Serve.Engine.create ~config:cfg ?trace:k.trace ?autotune:autotuner exe in
    let span = seq_max - seq_min + 1 in
    (* round-robin over the seq range: distinct shapes exercise bucketing *)
    let jobs =
      Array.init requests (fun i ->
          let seq = seq_min + (i mod span) in
          (seq, m.sample_input ~seq))
    in
    let t0 = Unix.gettimeofday () in
    let tickets =
      Array.map (fun (seq, input) -> Serve.Engine.submit engine ~shape:[| seq |] input) jobs
    in
    let ok = ref 0 and rejected = ref 0 and timed_out = ref 0 and failed = ref 0 in
    let first_ok = ref None in
    Array.iteri
      (fun i tk ->
        match tk with
        | Error _ -> incr rejected
        | Ok tk -> (
            match Serve.Engine.wait tk with
            | Ok out ->
                incr ok;
                if !first_ok = None then first_ok := Some (i, out)
            | Error (Serve.Engine.Rejected | Serve.Engine.Shed | Serve.Engine.Tripped) ->
                (* Shed/Tripped need a fleet-tier controller; grouped with
                   rejects so the single-engine tally stays total *)
                incr rejected
            | Error Serve.Engine.Timed_out -> incr timed_out
            | Error (Serve.Engine.Failed fl) ->
                incr failed;
                Fmt.epr "request failed: %a@." Interp.pp_failure fl))
      tickets;
    let wall_s = Unix.gettimeofday () -. t0 in
    (* re-run one served request on a sequential reference VM: batched
       execution must be bitwise-identical (and the reference profile
       anchors the --report document) *)
    let ref_vm = Nimble.vm exe in
    (* the reference must be fault-free even mid-chaos-run, so suspend
       injection (counters kept for the report) while it executes *)
    Fault.with_suspended (fun () ->
        match !first_ok with
        | Some (i, Nimble_vm.Obj.Tensor served) -> (
            let _, input = jobs.(i) in
            match Interp.invoke ref_vm [ input ] with
            | Nimble_vm.Obj.Tensor reference ->
                Fmt.pr "bitwise vs sequential reference: %b@."
                  (Tensor.equal served.Nimble_vm.Obj.data reference.Nimble_vm.Obj.data)
            | _ -> ())
        | Some (i, _) ->
            let _, input = jobs.(i) in
            ignore (Interp.invoke ref_vm [ input ])
        | None -> ());
    Serve.Engine.shutdown engine;
    let au_summary = Option.map (fun au -> finish_autotuner au) autotuner in
    Fmt.pr "served %d/%d in %.1f ms (%.0f req/s); rejected %d, timed out %d, failed %d@."
      !ok requests (1e3 *. wall_s)
      (float_of_int !ok /. Float.max 1e-9 wall_s)
      !rejected !timed_out !failed;
    Fmt.pr "@.%a@." Serve.Stats.pp_summary (Serve.Engine.stats engine);
    save_trace k ~meta:(serve_meta m.name);
    (* the serving report: [nimble-profile/v1] from the reference VM, with
       the engine's statistics as the [server] section (and, when
       specialization ran, the tuner's as [autotune]) *)
    save_report k (fun () ->
        let server = Serve.Engine.server_json engine in
        Nimble_vm.Profiler.to_json ~server ?autotune:au_summary (Interp.profiler ref_vm))
  in
  let serve_fleet spec (breaker, admission, snapshot_dir) cfg k requests seq_min
      seq_max =
    let specs = parse_models spec in
    let options = k.options in
    let fleet_cfg =
      {
        Serve.Fleet.total_workers = cfg.Serve.Engine.workers;
        engine = cfg;
        admission;
        breaker;
      }
    in
    let fleet =
      Serve.Fleet.create ~options ?trace:k.trace ~config:fleet_cfg
        (List.map
           (fun ((m : Zoo.model), weight) ->
             { Serve.Fleet.name = m.name; build = m.build; weight })
           specs)
    in
    (* a manifest in the snapshot dir means a previous run checkpointed:
       warm-restart every model from it (relink-only, tunes replayed,
       arenas pre-warmed) before taking traffic *)
    (match snapshot_dir with
    | Some dir when Sys.file_exists (Filename.concat dir "MANIFEST.json") ->
        List.iter
          (fun ((m : Zoo.model), _) ->
            try
              let r = Serve.Fleet.warm_restart fleet ~dir ~model:m.name in
              Fmt.pr "warm-restarted %s from %s: %d tunes, %d arena hints@."
                m.name dir r.Serve.Cache.r_tunes_applied
                (List.length r.Serve.Cache.r_arena_hints)
            with Failure msg -> die "snapshot restore failed: %s" msg)
          specs
    | _ -> ());
    let models = Array.of_list (List.map fst specs) in
    let span = seq_max - seq_min + 1 in
    (* round-robin over models and the seq range *)
    let jobs =
      Array.init requests (fun i ->
          let mi = i mod Array.length models in
          let seq = seq_min + (i mod span) in
          (mi, seq, models.(mi).sample_input ~seq))
    in
    let t0 = Unix.gettimeofday () in
    let tickets =
      Array.map
        (fun (mi, seq, input) ->
          (mi, Serve.Fleet.submit fleet ~model:models.(mi).name ~shape:[| seq |] input))
        jobs
    in
    let ok = ref 0 and rejected = ref 0 and shed = ref 0 and tripped = ref 0 in
    let timed_out = ref 0 and failed = ref 0 in
    let first_ok = ref None in
    Array.iteri
      (fun i (mi, tk) ->
        let outcome =
          match tk with Ok tk -> Serve.Fleet.wait tk | Error e -> Error e
        in
        match outcome with
        | Ok out ->
            incr ok;
            if !first_ok = None then first_ok := Some (i, mi, out)
        | Error Serve.Engine.Rejected -> incr rejected
        | Error Serve.Engine.Shed -> incr shed
        | Error Serve.Engine.Tripped -> incr tripped
        | Error Serve.Engine.Timed_out -> incr timed_out
        | Error (Serve.Engine.Failed fl) ->
            incr failed;
            Fmt.epr "request failed: %a@." Interp.pp_failure fl)
      tickets;
    let wall_s = Unix.gettimeofday () -. t0 in
    let reference_vm (m : Zoo.model) =
      Nimble.vm
        (Serve.Cache.load ~options (Serve.Fleet.cache fleet) ~name:m.name ~build:m.build)
    in
    (* bitwise check of one served request against a sequential reference
       VM of the same model (fault injection suspended) *)
    let ref_vm = ref None in
    Fault.with_suspended (fun () ->
        match !first_ok with
        | Some (i, mi, out) -> (
            let _, _, input = jobs.(i) in
            let vm = reference_vm models.(mi) in
            ref_vm := Some vm;
            match (out, Interp.invoke vm [ input ]) with
            | Nimble_vm.Obj.Tensor served, Nimble_vm.Obj.Tensor reference ->
                Fmt.pr "bitwise vs sequential reference (%s): %b@." models.(mi).name
                  (Tensor.equal served.Nimble_vm.Obj.data reference.Nimble_vm.Obj.data)
            | _ -> ())
        | None -> ());
    (match snapshot_dir with
    | Some dir ->
        let n = Serve.Fleet.snapshot fleet ~dir in
        Fmt.pr "snapshot: %d models -> %s@." n dir
    | None -> ());
    Fmt.pr
      "served %d/%d in %.1f ms (%.0f req/s); rejected %d, shed %d, tripped \
       %d, timed out %d, failed %d@."
      !ok requests (1e3 *. wall_s)
      (float_of_int !ok /. Float.max 1e-9 wall_s)
      !rejected !shed !tripped !timed_out !failed;
    List.iter
      (fun (name, summary) ->
        let c, lanes, open_lanes = Serve.Fleet.breaker_totals fleet ~model:name in
        let weight, workers = Serve.Fleet.share fleet ~model:name in
        Fmt.pr
          "@.[%s] weight %d, workers %d; breakers: %d lanes (%d open), %d \
           trips, %d shed@.%a@."
          name weight workers lanes open_lanes c.Serve.Breaker.c_trips
          c.Serve.Breaker.c_shed Serve.Stats.pp_summary summary)
      (Serve.Fleet.model_stats fleet);
    save_trace k ~meta:(serve_meta spec);
    save_report k (fun () ->
        let vm = match !ref_vm with Some vm -> vm | None -> reference_vm models.(0) in
        Nimble_vm.Profiler.to_json ~fleet:(Serve.Fleet.fleet_json fleet)
          (Interp.profiler vm));
    Serve.Fleet.shutdown fleet
  in
  let run model_opt models_spec fleet_knobs cfg autotune requests seq_min seq_max k =
    if requests < 1 then die "--requests must be >= 1 (got %d)" requests;
    if seq_min < 1 then die "--seq-min must be >= 1 (got %d)" seq_min;
    if seq_max < seq_min then
      die "--seq-max (%d) must be >= --seq-min (%d)" seq_max seq_min;
    match (model_opt, models_spec) with
    | Some _, Some _ -> die "pass either MODEL or --models, not both"
    | None, None -> die "name a MODEL or pass --models NAME[:w=N],..."
    | Some model, None ->
        let m = lookup model in
        serve_one m cfg (make_autotuner autotune) k requests seq_min seq_max
    | None, Some spec -> serve_fleet spec fleet_knobs cfg k requests seq_min seq_max
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Serve one zoo model through the batching engine — or a whole fleet \
          of weighted models with SLO admission, circuit breakers and \
          snapshot/warm-restart ($(b,--models)) — with a bitwise check \
          against a sequential reference run")
    Term.(
      const run $ model_pos $ models_arg $ fleet_knobs_term $ engine_config_term
      $ autotune_term $ requests $ seq_min $ seq_max $ knobs_term)

let loadgen_cmd =
  let rate =
    Arg.(value & opt float 200.0 & info [ "rate" ] ~docv:"RPS" ~doc:"Aggregate arrival rate")
  in
  let duration =
    Arg.(value & opt float 1.0 & info [ "duration" ] ~docv:"S" ~doc:"Generation window, seconds")
  in
  let clients =
    Arg.(value & opt int 2 & info [ "clients" ] ~docv:"N" ~doc:"Client domains")
  in
  let mix =
    Arg.(
      value & opt string "8:1"
      & info [ "mix" ] ~docv:"SEQ:W,..."
          ~doc:
            "Weighted sequence-length mix, e.g. $(b,4:0.5,16:0.5); weights need \
             not sum to 1")
  in
  let process =
    Arg.(
      value
      & opt (some string) None
      & info [ "process" ] ~docv:"P"
          ~doc:
            "Arrival process: $(b,poisson), $(b,steady), $(b,bursty=N) (bursts \
             of N back-to-back arrivals), or $(b,diurnal=CxD) (C sinusoidal \
             cycles of depth D over the window)")
  in
  let seed = Arg.(value & opt int 42 & info [ "seed" ] ~doc:"Arrival/mix RNG seed") in
  let json =
    Arg.(
      value & flag
      & info [ "json" ] ~doc:"Print the $(i,server) JSON section instead of the table")
  in
  let parse_mix s : Serve.Loadgen.mix =
    String.split_on_char ',' s
    |> List.filter (fun e -> String.trim e <> "")
    |> List.map (fun entry ->
           let bad () =
             Fmt.epr "bad mix entry %S (want SEQ or SEQ:WEIGHT, e.g. 4:0.5,16:0.5)@."
               entry;
             exit 1
           in
           match String.split_on_char ':' (String.trim entry) with
           | [ seq ] -> (
               match int_of_string_opt seq with
               | Some s -> ([| s |], 1.0)
               | None -> bad ())
           | [ seq; w ] -> (
               match (int_of_string_opt seq, float_of_string_opt w) with
               | Some s, Some w -> ([| s |], w)
               | _ -> bad ())
           | _ -> bad ())
  in
  (* malformed --process values exit 1 with a one-line diagnostic *)
  let parse_process s : Serve.Loadgen.process =
    let bad () =
      die "bad --process %S (want poisson, steady, bursty=N, or diurnal=CxD)" s
    in
    match String.split_on_char '=' (String.lowercase_ascii (String.trim s)) with
    | [ "poisson" ] -> Serve.Loadgen.Poisson
    | [ "steady" ] -> Serve.Loadgen.Steady
    | [ "bursty"; n ] -> (
        match int_of_string_opt n with
        | Some burst when burst >= 1 -> Serve.Loadgen.Bursty { burst }
        | Some burst -> die "--process bursty=%d: burst must be >= 1" burst
        | None -> bad ())
    | [ "diurnal"; cd ] -> (
        match String.split_on_char 'x' cd with
        | [ c; d ] -> (
            match (float_of_string_opt c, float_of_string_opt d) with
            | Some cycles, Some depth when cycles > 0.0 && depth >= 0.0 && depth < 1.0
              ->
                Serve.Loadgen.Diurnal { cycles; depth }
            | Some _, Some _ ->
                die "--process diurnal=%s: want cycles > 0 and depth in [0, 1)" cd
            | _ -> bad ())
        | _ -> bad ())
    | _ -> bad ()
  in
  let run model cfg autotune rate duration clients mix process seed json k =
    if rate <= 0.0 then die "--rate must be > 0 (got %g)" rate;
    if duration <= 0.0 then die "--duration must be > 0 (got %g)" duration;
    if clients < 1 then die "--clients must be >= 1 (got %d)" clients;
    let process = Option.fold ~none:Serve.Loadgen.Poisson ~some:parse_process process in
    let mix_parsed = parse_mix mix in
    if mix_parsed = [] then die "--mix must name at least one SEQ:WEIGHT entry";
    List.iter
      (fun (shape, w) ->
        if shape.(0) < 1 then die "--mix sequence lengths must be >= 1 (got %d)" shape.(0);
        if w <= 0.0 then die "--mix weights must be > 0 (got %g)" w)
      mix_parsed;
    let m = lookup model in
    let exe = cache_load ~quiet:json ~options:k.options m in
    let autotuner = make_autotuner autotune in
    let engine = Serve.Engine.create ~config:cfg ?trace:k.trace ?autotune:autotuner exe in
    let lcfg =
      {
        Serve.Loadgen.rate_rps = rate;
        duration_s = duration;
        clients;
        mix = mix_parsed;
        process;
        seed;
        timeout_us = cfg.Serve.Engine.default_timeout_us;
      }
    in
    let result =
      Serve.Loadgen.run ~config:lcfg engine ~make_input:(fun ~shape ->
          m.sample_input ~seq:shape.(0))
    in
    Serve.Engine.shutdown engine;
    ignore (Option.map (finish_autotuner ~quiet:json) autotuner);
    if json then
      print_string (Nimble_vm.Json.to_string_pretty (Serve.Engine.server_json engine))
    else begin
      Fmt.pr "offered %d in %.2f s -> achieved %.0f req/s@." result.Serve.Loadgen.offered
        result.Serve.Loadgen.wall_s result.Serve.Loadgen.achieved_rps;
      Fmt.pr "@.%a@." Serve.Stats.pp_summary result.Serve.Loadgen.summary
    end;
    save_trace k ~meta:(serve_meta model);
    save_report k (fun () -> Serve.Engine.server_json engine)
  in
  Cmd.v
    (Cmd.info "loadgen"
       ~doc:
         "Drive the serving engine with an open-loop synthetic load (seeded \
          Poisson or steady arrivals over a weighted shape mix) and report \
          throughput, latency percentiles and the batch-size histogram")
    Term.(
      const run $ model_arg $ engine_config_term $ autotune_term $ rate $ duration
      $ clients $ mix $ process $ seed $ json $ knobs_term)

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

(* ----------------------- lint and classify ----------------------- *)

(** The modules a [lint] or [classify] target names: every zoo model and
    example module for [all], or one zoo model; [None] for anything
    else. *)
let target_modules target =
  if target = "all" then Some (Zoo.all_modules ())
  else Option.map (fun (m : Zoo.model) -> [ (m.name, m.build ()) ]) (Zoo.find target)

let lint_cmd =
  let target =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"TARGET"
          ~doc:
            "A zoo model, $(b,all) (every zoo model plus the example \
             programs), or a path to a serialized $(i,.nimble) executable")
  in
  let run target =
    let failures = ref 0 in
    let print_diags name ds =
      incr failures;
      List.iter (fun d -> Fmt.pr "%-14s %a@." name Nimble_analysis.Diag.pp d) ds
    in
    (* compile and report every violation the pipeline checks found
       (dialect lints + bytecode verifier) *)
    let lint_module (name, m) =
      let _exe, report = Nimble.compile_with_report m in
      match report.Nimble.verify_diags with
      | [] ->
          Fmt.pr "%-14s ok (%s)@." name
            (String.concat ", "
               (List.map
                  (fun (v : Nimble.verify_stat) -> v.Nimble.verify_name)
                  report.Nimble.verify))
      | ds -> print_diags name ds
    in
    let lint_file path =
      match Nimble_analysis.Verifier.load_file path with
      | _exe -> Fmt.pr "%-14s ok (bytecode)@." path
      | exception Nimble_analysis.Verifier.Verify_error ds -> print_diags path ds
      | exception Nimble_vm.Serialize.Format_error msg ->
          incr failures;
          Fmt.pr "%-14s undecodable: %s@." path msg
    in
    (match target_modules target with
    | Some ms -> List.iter lint_module ms
    | None when Sys.file_exists target -> lint_file target
    | None ->
        die "unknown lint target %s (expected a zoo model, 'all', or a file)" target);
    if !failures > 0 then exit 1
  in
  Cmd.v
    (Cmd.info "lint"
       ~doc:
         "Run the compile-pipeline dialect lints and the bytecode verifier \
          and print every violation (exit 1 if any); on a $(i,.nimble) file, \
          verify the stored bytecode")
    Term.(const run $ target)

let classify_cmd =
  let target =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"TARGET"
          ~doc:
            "A zoo model or $(b,all) (every zoo model plus the example \
             programs)")
  in
  let run target =
    let classify_module (name, m) =
      let _exe, report = Nimble.compile_with_report m in
      Fmt.pr "== %s@.%a@." name Nimble.pp_classify report
    in
    match target_modules target with
    | Some ms -> List.iter classify_module ms
    | None -> die "unknown classify target %s (expected a zoo model or 'all')" target
  in
  Cmd.v
    (Cmd.info "classify"
       ~doc:
         "Print the operator-classification table per function: \
          data-dependent/upper-bound call sites, sites proven static by \
          shape-value dominance, and fused groups crossing a formerly \
          dynamic boundary")
    Term.(const run $ target)

let parse_cmd =
  let path =
    Arg.(required & pos 0 (some string) None & info [] ~docv:"FILE" ~doc:"Textual IR file")
  in
  let output =
    Arg.(value & opt (some string) None & info [ "o"; "output" ] ~doc:"Serialize executable here")
  in
  let run path output =
    let m =
      try Nimble_ir.Text_format.parse_module (read_file path)
      with Nimble_ir.Text_format.Parse_error msg -> die "%s: parse error: %s" path msg
    in
    let exe, report = Nimble.compile_with_report m in
    Fmt.pr "parsed and compiled %s@.%a@." path Nimble.pp_report report;
    (match Nimble_analysis.Verifier.verify exe with
    | [] -> Fmt.pr "bytecode verifies@."
    | ds ->
        List.iter (fun d -> Fmt.pr "VERIFY: %a@." Nimble_analysis.Diag.pp d) ds);
    match output with
    | Some out ->
        Nimble_vm.Serialize.save_file exe out;
        Fmt.pr "saved %s@." out
    | None -> Fmt.pr "%a@." (fun ppf m -> Nimble_ir.Text_format.print_module ppf m) m
  in
  Cmd.v
    (Cmd.info "parse" ~doc:"Parse a textual IR file, compile and validate it")
    Term.(const run $ path $ output)

let () =
  let doc = "Nimble: compile and execute dynamic neural networks" in
  exit
    (Cmd.eval
       (Cmd.group (Cmd.info "nimble_cli" ~doc)
          [
            models_cmd;
            compile_cmd;
            disasm_cmd;
            run_cmd;
            profile_cmd;
            serve_cmd;
            loadgen_cmd;
            lint_cmd;
            classify_cmd;
            parse_cmd;
          ]))
