(** The performance ledger: runs one workload of [BENCHMARK.json] and
    prints one JSON result line.

    {v
    ledger.exe --workload NAME --seed N [--seconds S] [--trace 0|1]
               [--trace-out FILE]
    v}

    With [--trace 0] the line carries every end-to-end metric of
    [BENCHMARK.json]; with [--trace 1], every per-layer metric. The
    metric names and units are read from [BENCHMARK.json] in the working
    directory, and the run fails if the workload measured a metric the
    file does not declare, or missed one it does. See
    [bench/ledger/README.md] for the workloads and the metric map. *)

module Json = Nimble_vm.Json

(* Layers a workload does not exercise report 0 for every metric whose
   name starts with one of these prefixes; any other metric it misses
   is an error. *)
let no_serving = [ "serve."; "loadgen." ]
let no_vm_profile = [ "vm."; "codegen."; "shape."; "device."; "parallel.par_runs" ]

type workload = {
  name : string;
  run : Run.t -> Run.result;
  absent : string list;  (** metric prefixes of layers it does not exercise *)
  scaled : bool;
      (** times scaled to the reference machine ({!Run.speed}). Only the
          VM workloads: their time is compute that drifts with the
          calibration loops. Serving latency is set by batching timers
          and scheduling, and compilation drifts far less than the
          loops, so both stay in wall time. *)
}

let workloads =
  [
    { name = "bert-mrpc"; run = (fun r -> Vm_loop.run r Vm_loop.bert); absent = no_serving; scaled = true };
    {
      name = "treelstm-sst";
      run = (fun r -> Vm_loop.run r Vm_loop.treelstm);
      absent = no_serving;
      scaled = true;
    };
    {
      name = "serve-light";
      run = (fun r -> Serve_loop.run r (Serve_loop.Open_loop 500.0));
      absent = no_vm_profile;
      scaled = false;
    };
    {
      name = "serve-heavy";
      run = (fun r -> Serve_loop.run r (Serve_loop.Open_loop 1500.0));
      absent = no_vm_profile;
      scaled = false;
    };
    {
      name = "serve-saturate";
      run = (fun r -> Serve_loop.run r (Serve_loop.Closed_loop 32));
      absent = no_vm_profile;
      scaled = false;
    };
    { name = "compile-zoo"; run = Zoo.run; absent = no_serving @ no_vm_profile @ [ "trace." ]; scaled = false };
  ]

let die fmt =
  Fmt.kstr
    (fun msg ->
      prerr_endline ("ledger: " ^ msg);
      exit 2)
    fmt

(** [(name, unit)] of every metric in one section of [BENCHMARK.json]. *)
let declared section =
  let doc =
    match In_channel.with_open_bin "BENCHMARK.json" In_channel.input_all with
    | text -> Json.of_string text
    | exception Sys_error msg -> die "cannot read BENCHMARK.json: %s" msg
  in
  List.map
    (fun m ->
      (Json.to_string_exn (Json.member_exn "name" m), Json.to_string_exn (Json.member_exn "unit" m)))
    (Json.to_list_exn (Json.member_exn section doc))

let starts_with prefix s =
  String.length s >= String.length prefix && String.sub s 0 (String.length prefix) = prefix

(** Scale a measured value to the reference machine by its unit. *)
let to_reference ~speed unit v =
  match unit with
  | "s" | "ms" | "us" | "ns" -> v *. speed
  | "1/s" -> v /. speed
  | _ -> v

let result_line (run : Run.t) (w : workload) ~declared ~measured =
  let speed = Run.speed run in
  List.iter
    (fun (name, _) ->
      if not (List.mem_assoc name declared) then die "measured %s, which BENCHMARK.json lacks" name)
    measured;
  let metric (name, unit) =
    let value =
      match List.filter (fun (n, _) -> n = name) measured with
      | [ (_, v) ] -> v
      | [] when List.exists (fun p -> starts_with p name) w.absent -> 0.0
      | [] -> die "BENCHMARK.json declares %s, which this workload did not measure" name
      | _ -> die "%s measured twice" name
    in
    let value = if w.scaled then to_reference ~speed unit value else value in
    if not (Float.is_finite value) then die "%s is not finite" name;
    (name, Json.Obj [ ("value", Json.Float value); ("unit", Json.String unit) ])
  in
  Json.to_string
    (Json.Obj
       [
         ("correct", Json.Bool (run.Run.failed = 0));
         ("attempted", Json.Int run.Run.attempted);
         ("failed", Json.Int run.Run.failed);
         ("metrics", Json.Obj (List.map metric declared));
       ])

let () =
  let rec parse acc = function
    | (("--workload" | "--seed" | "--seconds" | "--trace" | "--trace-out") as k) :: v :: rest ->
        parse ((k, v) :: acc) rest
    | [] -> acc
    | a :: _ -> die "unexpected argument %s" a
  in
  let args = parse [] (List.tl (Array.to_list Sys.argv)) in
  let arg k conv default =
    match (List.assoc_opt k args, default) with
    | Some v, _ -> ( try conv v with _ -> die "bad value %s for %s" v k)
    | None, Some d -> d
    | None, None -> die "missing %s" k
  in
  let name = arg "--workload" Fun.id None in
  let workload =
    match List.find_opt (fun w -> w.name = name) workloads with
    | Some w -> w
    | None ->
        die "unknown workload %s; one of: %s" name
          (String.concat ", " (List.map (fun w -> w.name) workloads))
  in
  let traced =
    arg "--trace" (function "0" -> false | "1" -> true | _ -> failwith "") (Some false)
  in
  let seconds = arg "--seconds" float_of_string (Some 10.0) in
  if seconds <= 0.0 then die "--seconds must be positive";
  if List.mem_assoc "--trace-out" args && not traced then die "--trace-out needs --trace 1";
  let declared = declared (if traced then "per_layer" else "end_to_end") in
  let run = Run.create ~seed:(arg "--seed" int_of_string None) ~seconds ~traced in
  let result = workload.run run in
  Option.iter (Spans.write_chrome run.Run.spans) (List.assoc_opt "--trace-out" args);
  Nimble_parallel.Parallel.shutdown ();
  let measured =
    if traced then
      ("parallel.domains", float_of_int (Nimble_parallel.Parallel.num_domains ()))
      :: ("machine.speed", Run.speed run)
      :: result.Run.per_layer
    else result.Run.end_to_end
  in
  Fmt.epr "ledger: machine speed %.3f of the reference machine (times %s)@." (Run.speed run)
    (if workload.scaled then "scaled to the reference machine" else "in wall time");
  print_endline (result_line run workload ~declared ~measured)
