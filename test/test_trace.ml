(* Observability tests: the JSON codec, the trace ring buffer, the Chrome
   export, the profiler/compile reports, and the invariant the CLI's
   --trace/--report pair relies on (kernel spans == kernel invocations). *)

open Nimble_models
module Nimble = Nimble_compiler.Nimble
module Interp = Nimble_vm.Interp
module Profiler = Nimble_vm.Profiler
module Trace = Nimble_vm.Trace
module Json = Nimble_vm.Json
module Obj = Nimble_vm.Obj
module Zoo = Nimble_workloads.Zoo

(* ------------------------------ JSON ------------------------------ *)

let test_json_roundtrip () =
  let doc =
    Json.Obj
      [
        ("s", Json.String "a \"quoted\"\nline\twith \\ and \x07 control");
        ("i", Json.Int (-42));
        ("f", Json.Float 1.5);
        ("big", Json.Float 1.23456789012345e+300);
        ("b", Json.Bool true);
        ("n", Json.Null);
        ("l", Json.List [ Json.Int 1; Json.Int 2; Json.Int 3 ]);
        ("o", Json.Obj [ ("nested", Json.List []) ]);
      ]
  in
  let compact = Json.of_string (Json.to_string doc) in
  Alcotest.(check bool) "compact roundtrip" true (compact = doc);
  let pretty = Json.of_string (Json.to_string_pretty doc) in
  Alcotest.(check bool) "pretty roundtrip" true (pretty = doc)

let test_json_parse () =
  (match Json.of_string {| {"a": [1, 2.5, "xAy", null, false]} |} with
  | Json.Obj [ ("a", Json.List [ Json.Int 1; Json.Float f; Json.String s; Json.Null; Json.Bool false ]) ]
    ->
      Alcotest.(check (float 1e-9)) "float" 2.5 f;
      Alcotest.(check string) "unicode escape" "xAy" s
  | _ -> Alcotest.fail "unexpected parse");
  List.iter
    (fun bad ->
      match Json.of_string bad with
      | exception Json.Parse_error _ -> ()
      | _ -> Alcotest.failf "accepted invalid JSON: %s" bad)
    [ "{"; "[1,]"; "tru"; "\"unterminated"; "1 2"; "{\"a\" 1}" ]

(* ------------------------------ ring ------------------------------ *)

let test_ring_wrap () =
  let tr = Trace.create ~capacity:4 () in
  for i = 1 to 10 do
    Trace.record tr ~name:(string_of_int i) ~cat:"t" ~ts_us:(float_of_int i)
      ~dur_us:0.0 []
  done;
  Alcotest.(check int) "total" 10 (Trace.total_recorded tr);
  Alcotest.(check int) "dropped" 6 (Trace.dropped tr);
  Alcotest.(check (list string)) "oldest first, newest retained"
    [ "7"; "8"; "9"; "10" ]
    (List.map (fun (s : Trace.span) -> s.Trace.name) (Trace.spans tr));
  Alcotest.(check int) "count_cat" 4 (Trace.count_cat tr "t");
  Trace.clear tr;
  Alcotest.(check int) "cleared" 0 (Trace.total_recorded tr)

let test_export_schema () =
  let tr = Trace.create ~capacity:8 () in
  Trace.record tr ~name:"k" ~cat:Trace.cat_kernel ~ts_us:1.0 ~dur_us:2.0
    [ ("residue", Trace.Int 3); ("dispatch", Trace.Str "hit") ];
  let doc = Json.of_string (Json.to_string (Trace.to_json ~meta:[ ("model", "m") ] tr)) in
  Alcotest.(check (list string))
    "top-level keys"
    [ "displayTimeUnit"; "otherData"; "traceEvents" ]
    (Json.keys doc);
  let other = Json.member_exn "otherData" doc in
  Alcotest.(check string) "schema" "nimble-trace/v1"
    (Json.to_string_exn (Json.member_exn "schema" other));
  Alcotest.(check string) "meta merged" "m"
    (Json.to_string_exn (Json.member_exn "model" other));
  match Json.to_list_exn (Json.member_exn "traceEvents" doc) with
  | [ ev ] ->
      List.iter
        (fun k ->
          match Json.member k ev with
          | Some _ -> ()
          | None -> Alcotest.failf "event missing key %s" k)
        [ "name"; "cat"; "ph"; "pid"; "tid"; "ts"; "dur"; "args" ];
      Alcotest.(check string) "ph is complete-event" "X"
        (Json.to_string_exn (Json.member_exn "ph" ev));
      Alcotest.(check int) "arg survived" 3
        (Json.to_int_exn (Json.member_exn "residue" (Json.member_exn "args" ev)))
  | _ -> Alcotest.fail "expected exactly one trace event"

(* --------------------------- LSTM run --------------------------- *)

let traced_lstm_run ~seq =
  let w = Lstm.init_weights Lstm.small_config in
  let exe, creport = Nimble.compile_with_report (Lstm.ir_module w) in
  let vm = Nimble.vm exe in
  let tr = Trace.create () in
  Interp.set_trace vm (Some tr);
  let xs = Lstm.random_sequence w.Lstm.config ~len:seq in
  ignore (Interp.invoke vm [ Zoo.tensor_list xs ]);
  (vm, tr, creport)

let test_kernel_spans_match_profiler () =
  let vm, tr, _ = traced_lstm_run ~seq:9 in
  let prof = Interp.profiler vm in
  Alcotest.(check bool) "kernels ran" true (prof.Profiler.kernel_invocations > 0);
  Alcotest.(check int) "kernel spans == kernel invocations"
    prof.Profiler.kernel_invocations
    (Trace.count_cat tr Trace.cat_kernel);
  Alcotest.(check int) "one root invoke span" 1 (Trace.count_cat tr Trace.cat_invoke);
  Alcotest.(check int) "instr spans == instructions executed"
    (Profiler.total_instrs prof)
    (Trace.count_cat tr Trace.cat_instr)

let test_tracing_preserves_results () =
  let w = Lstm.init_weights Lstm.small_config in
  let exe = Nimble.compile (Lstm.ir_module w) in
  let vm = Nimble.vm exe in
  let xs = Lstm.random_sequence w.Lstm.config ~len:5 in
  let plain = Obj.to_tensor (Interp.invoke vm [ Zoo.tensor_list xs ]) in
  Interp.set_trace vm (Some (Trace.create ()));
  let traced = Obj.to_tensor (Interp.invoke vm [ Zoo.tensor_list xs ]) in
  Alcotest.(check bool) "same output with tracing on" true
    (Nimble_tensor.Tensor.approx_equal ~atol:0.0 ~rtol:0.0 plain traced)

(* ----------------------------- reports ----------------------------- *)

let test_profiler_report_json () =
  let vm, _, _ = traced_lstm_run ~seq:6 in
  let doc = Json.of_string (Json.to_string (Profiler.to_json (Interp.profiler vm))) in
  Alcotest.(check string) "schema" "nimble-profile/v1"
    (Json.to_string_exn (Json.member_exn "schema" doc));
  List.iter
    (fun k ->
      match Json.member k doc with
      | Some _ -> ()
      | None -> Alcotest.failf "profile report missing key %s" k)
    [
      "total_seconds"; "kernel_seconds"; "other_seconds"; "alloc_seconds";
      "kernel_invocations"; "shape_func_invocations"; "total_instructions";
      "pool_hits"; "instructions"; "kernels"; "devices"; "dispatch";
    ];
  let prof = Interp.profiler vm in
  Alcotest.(check int) "kernel_invocations serialized"
    prof.Profiler.kernel_invocations
    (Json.to_int_exn (Json.member_exn "kernel_invocations" doc))

let test_compile_report () =
  let _, _, (creport : Nimble.report) = traced_lstm_run ~seq:3 in
  Alcotest.(check bool) "pipeline has passes" true (List.length creport.Nimble.passes >= 10);
  List.iter
    (fun (p : Nimble.pass_stat) ->
      if p.Nimble.pass_name = "dce" then
        Alcotest.(check bool)
          (Fmt.str "dce shrinks or keeps IR (%d -> %d)" p.Nimble.nodes_before
             p.Nimble.nodes_after)
          true
          (p.Nimble.nodes_after <= p.Nimble.nodes_before);
      Alcotest.(check bool) "pass time is non-negative" true (p.Nimble.pass_seconds >= 0.0);
      Alcotest.(check bool) "IR sizes positive" true
        (p.Nimble.nodes_before > 0 && p.Nimble.nodes_after > 0))
    creport.Nimble.passes;
  let doc = Json.of_string (Json.to_string (Nimble.report_to_json creport)) in
  Alcotest.(check string) "schema" "nimble-compile/v1"
    (Json.to_string_exn (Json.member_exn "schema" doc));
  List.iter
    (fun k ->
      match Json.member k doc with
      | Some _ -> ()
      | None -> Alcotest.failf "compile report missing key %s" k)
    [
      "residual_checks"; "primitives"; "storages_before_planning";
      "storages_after_planning"; "arena_bytes"; "unplanned_bytes";
      "kills_inserted"; "device_copies"; "instructions"; "passes";
    ];
  Alcotest.(check int) "passes serialized"
    (List.length creport.Nimble.passes)
    (List.length (Json.to_list_exn (Json.member_exn "passes" doc)))

let test_trace_file_roundtrip () =
  let _, tr, _ = traced_lstm_run ~seq:4 in
  let path = Filename.temp_file "nimble_trace" ".json" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Trace.save_file ~meta:[ ("model", "lstm") ] tr path;
      let ic = open_in_bin path in
      let contents =
        Fun.protect
          ~finally:(fun () -> close_in ic)
          (fun () -> really_input_string ic (in_channel_length ic))
      in
      let doc = Json.of_string contents in
      let events = Json.to_list_exn (Json.member_exn "traceEvents" doc) in
      Alcotest.(check int) "all retained spans exported"
        (List.length (Trace.spans tr))
        (List.length events))

let () =
  Alcotest.run "trace"
    [
      ( "json",
        [
          Alcotest.test_case "roundtrip" `Quick test_json_roundtrip;
          Alcotest.test_case "parser" `Quick test_json_parse;
        ] );
      ( "ring",
        [
          Alcotest.test_case "wrap + drop" `Quick test_ring_wrap;
          Alcotest.test_case "chrome export schema" `Quick test_export_schema;
        ] );
      ( "vm",
        [
          Alcotest.test_case "kernel spans == profiler" `Quick
            test_kernel_spans_match_profiler;
          Alcotest.test_case "tracing preserves results" `Quick
            test_tracing_preserves_results;
          Alcotest.test_case "trace file roundtrip" `Quick test_trace_file_roundtrip;
        ] );
      ( "reports",
        [
          Alcotest.test_case "profiler json schema" `Quick test_profiler_report_json;
          Alcotest.test_case "compile report" `Quick test_compile_report;
        ] );
    ]
