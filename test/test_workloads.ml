(* Workload generator tests: determinism, distribution sanity, tree shape. *)

open Nimble_tensor
open Nimble_workloads

let test_rng_determinism () =
  let a = Rng.create ~seed:5 and b = Rng.create ~seed:5 in
  for _ = 1 to 100 do
    Alcotest.(check int) "same stream" (Rng.int a 1000) (Rng.int b 1000)
  done;
  let c = Rng.create ~seed:6 in
  let differs = ref false in
  for _ = 1 to 20 do
    if Rng.int a 1000 <> Rng.int c 1000 then differs := true
  done;
  Alcotest.(check bool) "different seeds differ" true !differs

let test_rng_bounds () =
  let rng = Rng.create ~seed:1 in
  for _ = 1 to 1000 do
    let v = Rng.int rng 7 in
    Alcotest.(check bool) "in range" true (v >= 0 && v < 7)
  done;
  for _ = 1 to 1000 do
    let f = Rng.float rng in
    Alcotest.(check bool) "unit interval" true (f >= 0.0 && f < 1.0)
  done

let test_rng_normal_moments () =
  let rng = Rng.create ~seed:2 in
  let n = 20000 in
  let sum = ref 0.0 and sumsq = ref 0.0 in
  for _ = 1 to n do
    let x = Rng.normal rng in
    sum := !sum +. x;
    sumsq := !sumsq +. (x *. x)
  done;
  let mean = !sum /. float_of_int n in
  let var = (!sumsq /. float_of_int n) -. (mean *. mean) in
  Alcotest.(check bool) "mean ~ 0" true (Float.abs mean < 0.05);
  Alcotest.(check bool) "var ~ 1" true (Float.abs (var -. 1.0) < 0.1)

let test_categorical () =
  let rng = Rng.create ~seed:3 in
  let counts = Array.make 3 0 in
  for _ = 1 to 3000 do
    let i = Rng.categorical rng [| 1.0; 2.0; 1.0 |] in
    counts.(i) <- counts.(i) + 1
  done;
  (* middle bucket should be about twice as likely *)
  Alcotest.(check bool) "weighting" true
    (counts.(1) > counts.(0) && counts.(1) > counts.(2))

let test_mrpc_lengths () =
  let ls = Mrpc.lengths 200 in
  Alcotest.(check int) "count" 200 (List.length ls);
  List.iter
    (fun l -> Alcotest.(check bool) "plausible range" true (l >= 1 && l <= 70))
    ls;
  let mean = Mrpc.mean_length 200 in
  Alcotest.(check bool) "mean near 25-30" true (mean > 15.0 && mean < 40.0);
  (* deterministic *)
  Alcotest.(check (list int)) "deterministic" ls (Mrpc.lengths 200)

let test_mrpc_inputs_shapes () =
  let config = Nimble_models.Lstm.small_config in
  let inputs = Mrpc.lstm_inputs config 5 in
  List.iter
    (fun xs ->
      List.iter
        (fun x ->
          Alcotest.(check (array int)) "embedding shape"
            [| 1; config.Nimble_models.Lstm.input_size |]
            (Tensor.shape x))
        xs)
    inputs

let test_sst_trees () =
  let config = Nimble_models.Tree_lstm.small_config in
  let ts = Sst.trees config 50 in
  Alcotest.(check int) "count" 50 (List.length ts);
  List.iter
    (fun t ->
      let n = Nimble_models.Tree_lstm.num_tokens t in
      Alcotest.(check bool) "plausible size" true (n >= 1 && n <= 50))
    ts;
  Alcotest.(check bool) "tokens accumulate" true (Sst.total_tokens ts > 100)

let test_sst_tree_binary_structure () =
  let config = Nimble_models.Tree_lstm.small_config in
  (* every internal node has exactly two children by construction; check
     leaf count = requested tokens *)
  let rng = Rng.create ~seed:8 in
  List.iter
    (fun tokens ->
      let t = Sst.sample_tree rng config ~tokens in
      Alcotest.(check int) "leaf count" tokens (Nimble_models.Tree_lstm.num_tokens t))
    [ 1; 2; 3; 10; 33 ]

let prop_tree_tokens_exact =
  QCheck.Test.make ~name:"sampled tree has requested leaves" ~count:50
    (QCheck.int_range 1 40) (fun tokens ->
      let rng = Rng.create ~seed:tokens in
      let t = Sst.sample_tree rng Nimble_models.Tree_lstm.small_config ~tokens in
      Nimble_models.Tree_lstm.num_tokens t = tokens)

(* ------------------------------ model zoo ------------------------------ *)

module Interp = Nimble_vm.Interp

let tensor_bitwise = Alcotest.testable Tensor.pp Tensor.equal

(* A zoo model runs its sample input through its compiled executable, and
   a second input made for the same [seq] gives bitwise the same output on
   the warm VM. The vision models ignore [seq]: one is enough. *)
let test_sample_input (m : Zoo.model) () =
  let vm = Nimble_compiler.Nimble.(vm (compile (m.build ()))) in
  let run seq =
    match Interp.invoke_result vm [ m.sample_input ~seq ] with
    | Ok out -> Nimble_vm.Obj.to_tensor out
    | Error fl -> Alcotest.failf "seq=%d: %a" seq Interp.pp_failure fl
  in
  let vision = List.mem_assoc m.name Nimble_models.Vision.all in
  List.iter
    (fun seq ->
      Alcotest.check tensor_bitwise (Fmt.str "seq=%d: bitwise-equal reruns" seq) (run seq)
        (run seq))
    (if vision then [ 12 ] else [ 3; 12 ])

(* MD5 of every zoo model's sample output: shape, dtype and the exact
   bits of each element. A kernel change meant only to be faster must
   leave every one as it is, at every pool width. *)
let output_golden =
  [
    ( "lstm",
      [ (3, "a1bb469641c2e42db141f0dad48da42b");
        (12, "59625512c375644abe288681bf9ef8a6") ] );
    ( "posenc",
      [ (3, "d4fd5b49cfefe2f2f33787c51f2905e8");
        (12, "0dc1b13793051f0c5e1d9ec2f9ed8fcb") ] );
    ( "gru",
      [ (3, "455373901d1e91dce1587e12cbd57be2");
        (12, "2eaf5b73accc94d7fbb9e1dbf2dff109") ] );
    ( "treelstm",
      [ (3, "36e5be82c44a172c0653b23c63930ff3");
        (12, "f5f37b1c770c066ba824dcc6288a6d41") ] );
    ( "bert",
      [ (3, "9938edfc761d68dd3d291a9b4c9d85a4");
        (12, "32692f3f6d3837de2d3bae51ffdd335f") ] );
    ( "decoder",
      [ (3, "09215118cc13d0bba532791ab06b11bc");
        (12, "97f33814309d62f56a7acb3ca6e8e9b1") ] );
    ( "seq2seq",
      [ (3, "51abfc4559abd66e504043f546c97175");
        (12, "7797eace60b24289822f12b706b0b7a0") ] );
    ("resnet", [ (12, "9ab07490c6921dadeaa94724163f53b5") ]);
    ("mobilenet", [ (12, "6a995614eef40f048e3f86a9db77676a") ]);
    ("vgg", [ (12, "77cb615f441718312f61e943de891872") ]);
    ("squeezenet", [ (12, "26d959d8938f6a84fcbbe2d6a406204f") ]);
  ]

let output_digest t =
  let b = Buffer.create 1024 in
  Buffer.add_string b (Fmt.str "%a %a;" Shape.pp (Tensor.shape t) Dtype.pp (Tensor.dtype t));
  Array.iter (fun v -> Buffer.add_int64_le b (Int64.bits_of_float v)) (Tensor.to_float_array t);
  Digest.to_hex (Digest.string (Buffer.contents b))

let test_output_pinned name () =
  let m = Option.get (Zoo.find name) in
  let vm = Nimble_compiler.Nimble.(vm (compile (m.build ()))) in
  List.iter
    (fun (seq, md5) ->
      match Interp.invoke_result vm [ m.sample_input ~seq ] with
      | Ok out ->
          Alcotest.(check string) (Fmt.str "seq=%d: output MD5" seq) md5
            (output_digest (Nimble_vm.Obj.to_tensor out))
      | Error fl -> Alcotest.failf "seq=%d: %a" seq Interp.pp_failure fl)
    (List.assoc name output_golden)

let test_outputs_cover_zoo () =
  Alcotest.(check (list string)) "pinned models"
    (List.map (fun (m : Zoo.model) -> m.name) Zoo.models)
    (List.map fst output_golden)

(* MD5 of the operator events perfsim prices for one VM run of a zoo
   model's seq-7 sample input: each event's operator, input and output
   shapes, flops and bytes, in order. Kernels and composed shape
   functions emit them (posenc's proven group evaluates its scalar chain
   at shape-function time), so the trace-priced cells of Tables 1-3
   move only if one of these does. *)
let events_golden =
  [
    ("lstm", "6bc67f36ad028541d03570176b48e504");
    ("treelstm", "b1e576109210f4135e77432357c32fa0");
    ("bert", "7438079539a1bf4e9b2582224dc73a1a");
    ("posenc", "d92f88cd23dc9d6492ab2118509dc30d");
  ]

let events_digest events =
  let shapes = Fmt.(list ~sep:(any ",") Shape.pp) in
  let b = Buffer.create 4096 in
  List.iter
    (function
      | Nimble_codegen.Trace.Op_exec { op; in_shapes; out_shapes; flops; bytes } ->
          Buffer.add_string b
            (Fmt.str "%s(%a)->(%a) %d %d;" op shapes in_shapes shapes out_shapes flops bytes)
      | Nimble_codegen.Trace.Framework { kind; amount } ->
          Buffer.add_string b (Fmt.str "%s*%d;" kind amount))
    events;
  Digest.to_hex (Digest.string (Buffer.contents b))

let test_events_pinned name () =
  let m = Option.get (Zoo.find name) in
  let vm = Nimble_compiler.Nimble.(vm (compile (m.build ()))) in
  let input = m.sample_input ~seq:7 in
  let result, events =
    Nimble_perfsim.Estimator.record (fun () -> Interp.invoke_result vm [ input ])
  in
  (match result with
  | Ok _ -> ()
  | Error fl -> Alcotest.failf "%a" Interp.pp_failure fl);
  Alcotest.(check string) "event stream MD5" (List.assoc name events_golden)
    (events_digest events)

let () =
  Alcotest.run "workloads"
    [
      ( "rng",
        [
          Alcotest.test_case "determinism" `Quick test_rng_determinism;
          Alcotest.test_case "bounds" `Quick test_rng_bounds;
          Alcotest.test_case "normal moments" `Quick test_rng_normal_moments;
          Alcotest.test_case "categorical" `Quick test_categorical;
        ] );
      ( "mrpc",
        [
          Alcotest.test_case "lengths" `Quick test_mrpc_lengths;
          Alcotest.test_case "input shapes" `Quick test_mrpc_inputs_shapes;
        ] );
      ( "sst",
        [
          Alcotest.test_case "trees" `Quick test_sst_trees;
          Alcotest.test_case "binary structure" `Quick test_sst_tree_binary_structure;
          QCheck_alcotest.to_alcotest prop_tree_tokens_exact;
        ] );
      ( "zoo sample inputs",
        List.map
          (fun (m : Zoo.model) -> Alcotest.test_case m.name `Quick (test_sample_input m))
          Zoo.models );
      ( "zoo output digests",
        Alcotest.test_case "every model pinned" `Quick test_outputs_cover_zoo
        :: List.map
             (fun (name, _) -> Alcotest.test_case name `Quick (test_output_pinned name))
             output_golden );
      ( "zoo perfsim event digests",
        List.map
          (fun (name, _) -> Alcotest.test_case name `Quick (test_events_pinned name))
          events_golden );
    ]
