(* Symbolic memory planning (docs/MEMORY.md): the compiled plan evaluated
   at sampled shapes must reproduce the planner's concrete layout, served
   results must stay bitwise-equal to sequential runs with the persistent
   arena reused, and storage_alloc faults against the arena must surface
   through the typed channel without corrupting later requests. *)

open Nimble_tensor
open Nimble_ir
open Nimble_serve
module Fault = Nimble_fault.Fault
module Nimble = Nimble_compiler.Nimble
module Interp = Nimble_vm.Interp
module Exe = Nimble_vm.Exe
module Obj = Nimble_vm.Obj
module Profiler = Nimble_vm.Profiler
module Sx = Nimble_shape.Sym_expr
module Arena_plan = Nimble_shape.Arena_plan

let tensor_bitwise = Alcotest.testable Tensor.pp Tensor.equal
let rng = Rng.create ~seed:177

(* dense + relu over a dynamic leading dimension: one bindable symbolic
   dim, several dynamic allocation sites *)
let feature_dim = 6
let out_dim = 4
let shared_w = Tensor.randn rng [| out_dim; feature_dim |]

let make_module () =
  let x = Expr.fresh_var ~ty:(Ty.tensor [ Dim.Any; Dim.static feature_dim ]) "x" in
  let body =
    Expr.op_call "relu" [ Expr.op_call "dense" [ Expr.Var x; Expr.Const shared_w ] ]
  in
  Irmod.of_main (Expr.fn_def [ x ] body)

let symbolic_exe () = Nimble.compile (make_module ())

let legacy_exe () =
  Nimble.compile
    ~options:{ Nimble.default_options with Nimble.symbolic_plan = false }
    (make_module ())

(* the dim environment a [BindArena] would build for input shape [shape]:
   each binder reads one dimension of one argument *)
let env_of_plan (p : Arena_plan.t) (shape : int array) sym =
  match Array.find_opt (fun (b : Arena_plan.binder) -> b.b_sym = sym) p.binders with
  | Some { b_arg = 0; b_dim; _ } -> shape.(b_dim)
  | Some b -> Alcotest.failf "binder reads argument %d (model has one)" b.b_arg
  | None -> Alcotest.failf "no binder for symbolic dim %d" sym

let sampled_rows = [ 1; 2; 3; 5; 7; 8; 16; 31; 64 ]

(* Evaluating the symbolic plan at a concrete shape must equal planning
   that shape concretely: the planner tiles the distinct slots
   consecutively (aligned, first-fit over the concrete sizes) after the
   arena's static prefix, so replaying that layout rule over the
   evaluated sizes must land on exactly the evaluated offsets. *)
let test_plan_matches_concrete () =
  let exe = symbolic_exe () in
  Alcotest.(check bool) "a symbolic plan was emitted" true
    (Array.length exe.Exe.plans > 0);
  Array.iter
    (fun { Exe.p_arena = p; _ } ->
      let align n = (n + p.align - 1) / p.align * p.align in
      List.iter
        (fun rows ->
          let lookup = env_of_plan p [| rows; feature_dim |] in
          let total = Sx.eval lookup p.total in
          let offs = Array.map (fun (s : Arena_plan.slot) -> Sx.eval lookup s.s_offset) p.slots in
          let sizes = Array.map (fun (s : Arena_plan.slot) -> Sx.eval lookup s.s_size) p.slots in
          (* concrete replay: consecutive aligned tiling from the static
             prefix (the first slot's offset, a constant of the plan) *)
          let expect = ref offs.(0) in
          Array.iteri
            (fun i off ->
              Alcotest.(check int)
                (Fmt.str "rows=%d slot %d offset" rows i)
                !expect off;
              expect := align (off + sizes.(i)))
            offs;
          (* every slot stays inside the arena at this shape *)
          Array.iteri
            (fun i off ->
              Alcotest.(check bool)
                (Fmt.str "rows=%d slot %d fits total %d" rows i total)
                true
                (off >= 0 && off + sizes.(i) <= total))
            offs)
        sampled_rows)
    exe.Exe.plans

(* The disassembly carries the plan table (docs/MEMORY.md's worked
   example): the plan's header, its binder and its slot. *)
let test_disassembly_shows_plan () =
  let text = Fmt.str "%a" Exe.disassemble (symbolic_exe ()) in
  let lines = String.split_on_char '\n' text in
  List.iter
    (fun prefix ->
      Alcotest.(check bool) ("disassembly has " ^ prefix) true
        (List.exists (String.starts_with ~prefix) lines))
    [ "plan 0: func=0 device=0 align=64 total="; "  binder: arg0 dim0 -> s"; "  slot 0: offset=" ]

(* One pooled VM across many shapes (large, small, large again): every
   run must be bitwise-equal to a legacy (unplanned) compile of the same
   module, and rebinding — not allocating — must carry the repeats. *)
let test_eval_once_rebind_per_request () =
  let exe = symbolic_exe () in
  let legacy = legacy_exe () in
  let vm = Interp.create ~pooling:true exe in
  let order = sampled_rows @ List.rev sampled_rows @ sampled_rows in
  List.iter
    (fun rows ->
      let x = Tensor.randn rng [| rows; feature_dim |] in
      let got = Interp.run_tensors vm [ x ] in
      let want = Interp.run_tensors (Interp.create legacy) [ x ] in
      Alcotest.check tensor_bitwise (Fmt.str "rows=%d bitwise" rows) want got)
    order;
  Alcotest.(check bool) "persistent arena was rebound" true
    ((Interp.profiler vm).Profiler.arena_rebinds > 0)

(* Serving through the engine with arena reuse on: outputs bitwise-equal
   to a sequential reference, and the engine's stats show the arena
   being reused rather than reallocated. *)
let test_served_bitwise_with_arena_reuse () =
  let exe = symbolic_exe () in
  let shapes = [ 1; 2; 3; 5; 7; 8 ] in
  let requests = 48 in
  let jobs =
    Array.init requests (fun i ->
        let rows = List.nth shapes (i mod List.length shapes) in
        (rows, Tensor.randn rng [| rows; feature_dim |]))
  in
  let reference =
    let vm = Interp.create exe in
    Array.map (fun (_, x) -> Interp.run_tensors vm [ x ]) jobs
  in
  let engine =
    Engine.create
      ~config:
        {
          Engine.default_config with
          workers = 2;
          queue_capacity = 128;
          max_batch = 4;
        }
      exe
  in
  let tickets =
    Array.map (fun (rows, x) -> Engine.submit engine ~shape:[| rows |] (Obj.tensor x)) jobs
  in
  Array.iteri
    (fun i tk ->
      match tk with
      | Error _ -> Alcotest.failf "request %d rejected (queue sized to fit)" i
      | Ok tk -> (
          match Engine.wait tk with
          | Ok (Obj.Tensor p) ->
              Alcotest.check tensor_bitwise
                (Fmt.str "request %d bitwise vs sequential" i)
                reference.(i) p.Obj.data
          | Ok _ -> Alcotest.fail "non-tensor result"
          | Error _ -> Alcotest.failf "request %d failed" i))
    tickets;
  Engine.shutdown engine;
  let s = Engine.stats engine in
  Alcotest.(check int) "all completed" requests s.Stats.s_completed;
  Alcotest.(check bool) "arenas were reused across requests" true
    (s.Stats.s_arena_reuses > 0);
  Alcotest.(check bool)
    (Fmt.str "allocs/request %.3f stays below 1" s.Stats.s_allocs_per_request)
    true
    (s.Stats.s_allocs_per_request < 1.0)

(* every test leaves injection off, whatever happens *)
let with_fault spec f =
  Fun.protect ~finally:Fault.disable (fun () ->
      Fault.configure spec;
      f ())

(* Chaos against the persistent arena: transient storage_alloc faults
   fire on the arena create/grow path (exact bucketing + growing shapes
   force repeated grows); retries must absorb them, every request must
   complete bitwise-correct, and the arena must stay usable after a
   failed bind attempt. *)
let test_chaos_storage_alloc_on_arena () =
  let exe = symbolic_exe () in
  let jobs =
    Array.init 32 (fun i ->
        let rows = 1 + (i mod 8) in
        (rows, Tensor.randn rng [| rows; feature_dim |]))
  in
  let reference =
    let vm = Interp.create exe in
    Array.map (fun (_, x) -> Interp.run_tensors vm [ x ]) jobs
  in
  with_fault "seed=5;storage_alloc=0.5:transient" (fun () ->
      let engine =
        Engine.create
          ~config:
            {
              Engine.default_config with
              workers = 1;
              queue_capacity = 64;
              max_batch = 1;
              max_retries = 12;
              retry_backoff_us = 20.0;
              policy = Bucket.Exact;
            }
          exe
      in
      Array.iteri
        (fun i (rows, x) ->
          match Engine.run engine ~shape:[| rows |] (Obj.tensor x) with
          | Ok (Obj.Tensor p) ->
              Alcotest.check tensor_bitwise
                (Fmt.str "request %d bitwise under chaos" i)
                reference.(i) p.Obj.data
          | Ok _ -> Alcotest.fail "non-tensor result"
          | Error (Engine.Failed fl) ->
              Alcotest.failf "request %d exhausted retries: %a" i
                Interp.pp_failure fl
          | Error _ -> Alcotest.failf "request %d: unexpected error kind" i)
        jobs;
      Engine.shutdown engine;
      let alloc_attempts =
        List.assoc_opt "storage_alloc" (Fault.attempts ())
      in
      Alcotest.(check bool) "arena allocations were fault-checked" true
        (match alloc_attempts with Some n -> n > 0 | None -> false))

let () =
  Alcotest.run "memory_plan"
    [
      ( "symbolic",
        [
          Alcotest.test_case "plan matches concrete layout" `Quick
            test_plan_matches_concrete;
          Alcotest.test_case "eval once, rebind per request" `Quick
            test_eval_once_rebind_per_request;
          Alcotest.test_case "disassembly shows the plan" `Quick test_disassembly_shows_plan;
        ] );
      ( "serving",
        [
          Alcotest.test_case "served bitwise with arena reuse" `Quick
            test_served_bitwise_with_arena_reuse;
          Alcotest.test_case "chaos: storage_alloc vs persistent arena" `Quick
            test_chaos_storage_alloc_on_arena;
        ] );
    ]
