(* Shape-value dominance suite: the classification pass must prove the
   posenc model's data-dependent arange static (so fusion crosses the
   formerly dynamic boundary and the result stays bitwise-identical to
   the unclassified pipeline at several dynamic shapes), must NOT prove
   genuinely value-dependent sites (unique; an arange fed by a runtime
   scalar), and the dataflow engine the analyses are re-hosted on must
   agree with a naive round-robin fixpoint on seeded random CFGs. The
   cross-function ADT arity check rides the same engine and is covered
   on hand-built executables at the bottom. *)

open Nimble_tensor
open Nimble_ir
module Nimble = Nimble_compiler.Nimble
module Posenc = Nimble_models.Posenc
module Classify = Nimble_analysis.Classify
module Dataflow = Nimble_analysis.Dataflow
module Verifier = Nimble_analysis.Verifier
module Diag = Nimble_analysis.Diag
module Interp = Nimble_vm.Interp
module Exe = Nimble_vm.Exe
module Isa = Nimble_vm.Isa

let tensor_bitwise = Alcotest.testable Tensor.pp Tensor.equal
let tensor_approx =
  Alcotest.testable Tensor.pp (Tensor.approx_equal ~atol:1e-4 ~rtol:1e-4)

(* ------------------------------------------------------------------ *)
(* Posenc: the proven site fuses and stays bitwise at dynamic shapes   *)
(* ------------------------------------------------------------------ *)

let no_classify = { Nimble.default_options with Nimble.classify = false }

let test_posenc_proven_and_fused () =
  let w = Posenc.init_weights Posenc.default_config in
  let m () = Posenc.ir_module w in
  let _, report = Nimble.compile_with_report (m ()) in
  Alcotest.(check int) "one candidate site" 1 report.Nimble.sites_total;
  Alcotest.(check int) "the arange is proven" 1 report.Nimble.classified_static;
  Alcotest.(check bool) "a fused group crosses the boundary" true
    (report.Nimble.fused_across_dynamic >= 1);
  let row =
    List.find (fun r -> r.Nimble.cls_fn = "main") report.Nimble.classify_table
  in
  Alcotest.(check int) "table row sites" 1 row.Nimble.cls_sites;
  Alcotest.(check int) "table row proven" 1 row.Nimble.cls_proven;
  Alcotest.(check bool) "table row fused" true (row.Nimble.cls_fused >= 1);
  (* classification buys strictly coarser kernels than the §4.2 policy
     alone: the Opaque arange no longer splits its consumers *)
  let _, control = Nimble.compile_with_report ~options:no_classify (m ()) in
  Alcotest.(check int) "pass off: nothing counted or proven" 0
    (control.Nimble.sites_total + control.Nimble.classified_static);
  Alcotest.(check bool)
    (Fmt.str "fewer primitives (%d < %d)" report.Nimble.primitives
       control.Nimble.primitives)
    true
    (report.Nimble.primitives < control.Nimble.primitives)

let test_posenc_bitwise_at_dynamic_shapes () =
  let w = Posenc.init_weights Posenc.default_config in
  let vm = Nimble.vm (Nimble.compile (Posenc.ir_module w)) in
  let vm_control =
    Nimble.vm (Nimble.compile ~options:no_classify (Posenc.ir_module w))
  in
  List.iter
    (fun len ->
      let x = Posenc.random_input w ~len in
      let out = Interp.run_tensors vm [ x ] in
      let control = Interp.run_tensors vm_control [ x ] in
      Alcotest.check tensor_bitwise
        (Fmt.str "len=%d bitwise vs unclassified pipeline" len)
        control out;
      Alcotest.check tensor_approx
        (Fmt.str "len=%d vs reference" len)
        (Posenc.reference w x) out)
    [ 3; 7; 19 ]

(* ------------------------------------------------------------------ *)
(* Negative cases: genuinely value-dependent sites stay dynamic        *)
(* ------------------------------------------------------------------ *)

let test_unique_not_proven () =
  (* unique's output extent depends on the tensor's VALUES — no shape
     chain can dominate it, so it must be counted but never proven *)
  let x = Expr.fresh_var ~ty:(Ty.tensor [ Dim.Any ]) "x" in
  let m = Irmod.of_main (Expr.fn_def [ x ] (Expr.op_call "unique" [ Expr.Var x ])) in
  let _, report = Nimble.compile_with_report m in
  Alcotest.(check int) "site counted" 1 report.Nimble.sites_total;
  Alcotest.(check int) "not proven" 0 report.Nimble.classified_static;
  Alcotest.(check int) "nothing fused across it" 0 report.Nimble.fused_across_dynamic

let test_runtime_scalar_arange_not_proven () =
  (* the stop value is a runtime argument, not shape-derived: the chain
     bottoms out at an unknown scalar and the proof must not fire *)
  let s = Expr.fresh_var ~ty:(Ty.scalar ()) "stop" in
  let m =
    Irmod.of_main
      (Expr.fn_def [ s ]
         (Expr.op_call "arange"
            [ Expr.const_scalar 0.0; Expr.Var s; Expr.const_scalar 1.0 ]))
  in
  let summary = Classify.run m in
  Alcotest.(check int) "site counted" 1 summary.Classify.sites_total;
  Alcotest.(check int) "not proven" 0 summary.Classify.classified_static

(* ------------------------------------------------------------------ *)
(* Engine equivalence: Dataflow.solve vs a naive round-robin fixpoint  *)
(* ------------------------------------------------------------------ *)

(* Reference solver: iterate all nodes in order until nothing changes.
   Same lattice contract as the engine (join_into in place, pure
   transfer); any disagreement is an engine bug. *)
let naive_solve ~direction ~num_nodes ~successors ~transfer ~copy ~join_into
    ~seeds =
  let flow_succs =
    match direction with
    | Dataflow.Forward -> successors
    | Dataflow.Backward ->
        let preds = Array.make num_nodes [] in
        for n = 0 to num_nodes - 1 do
          List.iter
            (fun s ->
              if s >= 0 && s < num_nodes then preds.(s) <- n :: preds.(s))
            (successors n)
        done;
        fun n -> preds.(n)
  in
  let states = Array.make num_nodes None in
  List.iter
    (fun (n, st) ->
      states.(n) <-
        (match states.(n) with
        | None -> Some (copy st)
        | Some acc ->
            ignore (join_into ~into:acc st);
            Some acc))
    seeds;
  let changed = ref true in
  while !changed do
    changed := false;
    for n = 0 to num_nodes - 1 do
      match states.(n) with
      | None -> ()
      | Some st ->
          let out = transfer n (copy st) in
          List.iter
            (fun s ->
              if s >= 0 && s < num_nodes then
                match states.(s) with
                | None ->
                    states.(s) <- Some (copy out);
                    changed := true
                | Some acc -> if join_into ~into:acc out then changed := true)
            (flow_succs n)
    done
  done;
  states

(* gen/kill bit-vector analysis over a seeded random CFG; must-join
   (intersection), the verifier's lattice shape *)
let test_engine_matches_naive_on_seeded_cfgs () =
  List.iter
    (fun seed ->
      let rng = Rng.create ~seed in
      let num_nodes = 3 + Rng.int rng 14 in
      let bits = 8 in
      let succs =
        Array.init num_nodes (fun _ ->
            List.filter
              (fun _ -> Rng.int rng 3 = 0)
              (List.init num_nodes Fun.id))
      in
      let gen = Array.init num_nodes (fun _ -> Rng.int rng (1 lsl bits)) in
      let kill = Array.init num_nodes (fun _ -> Rng.int rng (1 lsl bits)) in
      let transfer n st = st land lnot kill.(n) lor gen.(n) in
      let copy st = st in
      (* intersection join on an int state needs a box to mutate *)
      let solve_with engine direction =
        let states =
          engine ~direction ~num_nodes
            ~successors:(fun n -> succs.(n))
            ~transfer:(fun n r -> ref (transfer n !r))
            ~copy:(fun r -> ref !r)
            ~join_into:(fun ~into s ->
              let j = !into land !s in
              if j <> !into then begin
                into := j;
                true
              end
              else false)
            ~seeds:[ (0, ref ((1 lsl bits) - 1)) ]
        in
        Array.map (Option.map ( ! )) states
      in
      ignore copy;
      List.iter
        (fun direction ->
          let got = solve_with Dataflow.solve direction in
          let want = solve_with naive_solve direction in
          Alcotest.(check (array (option int)))
            (Fmt.str "seed=%d dir=%s" seed
               (match direction with
               | Dataflow.Forward -> "fwd"
               | Dataflow.Backward -> "bwd"))
            want got)
        [ Dataflow.Forward; Dataflow.Backward ])
    [ 1; 2; 3; 5; 8; 13; 21; 34 ]

(* Gen-only union analysis on an explicit CFG: node [i] adds bit [i], so
   every state differs from its neighbours' and every join that can grow
   does. [transfers] counts the engine's calls to [transfer]. *)
let solve_gen engine ~direction ~succs ~seeds =
  let transfers = ref 0 in
  let states =
    engine ~direction ~num_nodes:(Array.length succs)
      ~successors:(fun n -> succs.(n))
      ~transfer:(fun n r ->
        incr transfers;
        ref (!r lor (1 lsl n)))
      ~copy:(fun r -> ref !r)
      ~join_into:(fun ~into s ->
        let j = !into lor !s in
        if j <> !into then begin
          into := j;
          true
        end
        else false)
      ~seeds:(List.map (fun n -> (n, ref 0)) seeds)
  in
  (Array.map (Option.map ( ! )) states, !transfers)

(* Work bound and loops: the engine visits pending nodes in flow order
   and queues each at most once, so on a straight line of n nodes it calls
   [transfer] exactly n times in both directions, whether only the flow
   entry is seeded (verifier, Classify) or every node is (Compact's
   liveness). With back edges (two nested loops; a loop tested at its
   head) it revisits nodes, and must still reach the naive fixpoint. *)
let test_engine_flow_order () =
  let line = Array.init 40 (fun i -> if i + 1 < 40 then [ i + 1 ] else []) in
  let cfgs =
    [
      ("straight line", line, true);
      (* 0 -> 1 -> 2 -> 3 -> 4 -> 5, inner 3 -> 2, outer 4 -> 1 *)
      ("nested loops", [| [ 1 ]; [ 2 ]; [ 3 ]; [ 4; 2 ]; [ 5; 1 ]; [] |], false);
      (* 0 -> 1 (head: exit to 4 or body 2) -> 2 -> 3 -> 1 *)
      ("head-tested loop", [| [ 1 ]; [ 2; 4 ]; [ 3 ]; [ 1 ]; [] |], false);
    ]
  in
  List.iter
    (fun (name, succs, straight) ->
      let n = Array.length succs in
      List.iter
        (fun direction ->
          (* information enters at the first node forward, the last backward *)
          let dir, entry =
            match direction with
            | Dataflow.Forward -> ("fwd", 0)
            | Dataflow.Backward -> ("bwd", n - 1)
          in
          List.iter
            (fun (seeding, seeds) ->
              let got, transfers = solve_gen Dataflow.solve ~direction ~succs ~seeds in
              let want, _ = solve_gen naive_solve ~direction ~succs ~seeds in
              let label = Fmt.str "%s %s, %s seeded" name dir seeding in
              if straight then
                Alcotest.(check int) (label ^ ": one transfer per node") n transfers;
              Alcotest.(check (array (option int))) (label ^ ": naive fixpoint") want got)
            [ ("entry", [ entry ]); ("every node", List.init n Fun.id) ])
        [ Dataflow.Forward; Dataflow.Backward ])
    cfgs

(* ------------------------------------------------------------------ *)
(* Cross-function ADT arity (Invoke / closure boundaries)              *)
(* ------------------------------------------------------------------ *)

let mk_funcs funcs = Exe.create ~funcs ~constants:[||] ~packed_names:[||]

let contains ~affix s =
  let n = String.length affix and m = String.length s in
  let rec go i = i + n <= m && (String.sub s i n = affix || go (i + 1)) in
  n = 0 || go 0

let cross_diags exe =
  List.filter
    (fun d -> contains ~affix:"caller" (Diag.to_string d))
    (Verifier.verify exe)

let callee_getfield ?(index = 5) name =
  {
    Exe.name;
    arity = 1;
    register_count = 4;
    code = [| Isa.GetField { obj = 0; index; dst = 1 }; Isa.Ret { result = 1 } |];
  }

let caller_invoke name ~callee_index =
  {
    Exe.name;
    arity = 1;
    register_count = 4;
    code =
      [|
        Isa.AllocADT { tag = 0; fields = [| 0; 0 |]; dst = 1 };
        Isa.Invoke { func_index = callee_index; args = [| 1 |]; dst = 2 };
        Isa.Ret { result = 2 };
      |];
  }

let test_cross_adt_reports_bad_field () =
  (* f builds a 2-field ADT and passes it to g, which reads field 5:
     invisible to the per-function pass, caught by the summary *)
  let exe = mk_funcs [| callee_getfield "g"; caller_invoke "f" ~callee_index:0 |] in
  match cross_diags exe with
  | [ d ] ->
      Alcotest.(check string) "located in g" "g" d.Diag.d_where;
      Alcotest.(check int) "at the GetField" 0 d.Diag.d_pc
  | ds -> Alcotest.failf "expected 1 cross-function diagnostic, got %d" (List.length ds)

let test_cross_adt_silent_without_call_sites () =
  (* no visible caller: g is an external entry point (the interpreter
     invokes any function by name), so nothing may be assumed *)
  let exe = mk_funcs [| callee_getfield "g" |] in
  Alcotest.(check int) "no diagnostics" 0 (List.length (cross_diags exe))

let test_cross_adt_joins_mixed_arities_to_unknown () =
  (* two callers pass 2- and 3-field constructors: the join degrades to
     unknown and the read is not speculated about *)
  let caller3 name ~callee_index =
    {
      Exe.name;
      arity = 1;
      register_count = 5;
      code =
        [|
          Isa.AllocADT { tag = 0; fields = [| 0; 0; 0 |]; dst = 1 };
          Isa.Invoke { func_index = callee_index; args = [| 1 |]; dst = 2 };
          Isa.Ret { result = 2 };
        |];
    }
  in
  let exe =
    mk_funcs
      [|
        callee_getfield "g";
        caller_invoke "f2" ~callee_index:0;
        caller3 "f3" ~callee_index:0;
      |]
  in
  Alcotest.(check int) "no diagnostics" 0 (List.length (cross_diags exe))

let test_cross_adt_closure_captured_prefix () =
  (* the ADT reaches g as a captured closure value; the free parameter
     past the prefix is filled at InvokeClosure sites the summary does
     not track and must stay unconstrained *)
  let g =
    {
      Exe.name = "g";
      arity = 2;
      register_count = 6;
      code =
        [|
          Isa.GetField { obj = 0; index = 5; dst = 2 };
          (* reading through the untracked free parameter is fine *)
          Isa.GetField { obj = 1; index = 9; dst = 3 };
          Isa.Ret { result = 2 };
        |];
    }
  in
  let f =
    {
      Exe.name = "f";
      arity = 1;
      register_count = 4;
      code =
        [|
          Isa.AllocADT { tag = 0; fields = [| 0; 0 |]; dst = 1 };
          Isa.AllocClosure { func_index = 0; captured = [| 1 |]; dst = 2 };
          Isa.Ret { result = 2 };
        |];
    }
  in
  let exe = mk_funcs [| g; f |] in
  match cross_diags exe with
  | [ d ] ->
      Alcotest.(check string) "located in g" "g" d.Diag.d_where;
      Alcotest.(check int) "at the captured-prefix GetField" 0 d.Diag.d_pc
  | ds -> Alcotest.failf "expected 1 cross-function diagnostic, got %d" (List.length ds)

let test_cross_adt_tag_dispatch_guard () =
  (* a GetTag between the summary and the read means the code is
     dispatching on the constructor: the field count is forgotten, as in
     the per-function pass *)
  let g =
    {
      Exe.name = "g";
      arity = 1;
      register_count = 4;
      code =
        [|
          Isa.GetTag { obj = 0; dst = 1 };
          Isa.GetField { obj = 0; index = 5; dst = 2 };
          Isa.Ret { result = 2 };
        |];
    }
  in
  let exe = mk_funcs [| g; caller_invoke "f" ~callee_index:0 |] in
  Alcotest.(check int) "no diagnostics" 0 (List.length (cross_diags exe))

let test_cross_adt_chain_two_calls_deep () =
  (* f builds the ADT, passes it to mid, mid forwards it to g: the
     summary needs a second collection round to see through mid *)
  let mid =
    {
      Exe.name = "mid";
      arity = 1;
      register_count = 4;
      code =
        [|
          Isa.Invoke { func_index = 0; args = [| 0 |]; dst = 1 };
          Isa.Ret { result = 1 };
        |];
    }
  in
  let exe =
    mk_funcs
      [| callee_getfield "g"; mid; caller_invoke "f" ~callee_index:1 |]
  in
  match cross_diags exe with
  | [ d ] -> Alcotest.(check string) "located in g" "g" d.Diag.d_where
  | ds -> Alcotest.failf "expected 1 cross-function diagnostic, got %d" (List.length ds)

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "classify"
    [
      ( "posenc",
        [
          Alcotest.test_case "proven site fuses across the boundary" `Quick
            test_posenc_proven_and_fused;
          Alcotest.test_case "bitwise at three dynamic shapes" `Quick
            test_posenc_bitwise_at_dynamic_shapes;
        ] );
      ( "negative",
        [
          Alcotest.test_case "unique stays dynamic" `Quick test_unique_not_proven;
          Alcotest.test_case "runtime-scalar arange stays dynamic" `Quick
            test_runtime_scalar_arange_not_proven;
        ] );
      ( "engine",
        [
          Alcotest.test_case "solve matches naive fixpoint on seeded CFGs"
            `Quick test_engine_matches_naive_on_seeded_cfgs;
          Alcotest.test_case "flow order: n transfers on a line, loops converge"
            `Quick test_engine_flow_order;
        ] );
      ( "cross_adt",
        [
          Alcotest.test_case "caller-built ADT bounds-checked" `Quick
            test_cross_adt_reports_bad_field;
          Alcotest.test_case "external entry points unconstrained" `Quick
            test_cross_adt_silent_without_call_sites;
          Alcotest.test_case "mixed arities join to unknown" `Quick
            test_cross_adt_joins_mixed_arities_to_unknown;
          Alcotest.test_case "closure captured prefix tracked" `Quick
            test_cross_adt_closure_captured_prefix;
          Alcotest.test_case "tag dispatch forgets the field count" `Quick
            test_cross_adt_tag_dispatch_guard;
          Alcotest.test_case "summary flows two calls deep" `Quick
            test_cross_adt_chain_two_calls_deep;
        ] );
    ]
