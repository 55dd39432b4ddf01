(** The VM interpreter (paper §5.2): a dispatch loop over the 21-instruction
    ISA with tagged objects, storage pooling, symbolic-plan arenas,
    profiling, and QoS hooks. *)

exception Vm_error of string

(** What went wrong, at the granularity the serving layer routes on:
    [Shape_guard] — a gradual-typing entry guard rejected an input
    (paper §4.1); [Alloc] — storage allocation failed or exceeded the
    pool byte cap; [Kernel_trap] — a kernel invocation trapped;
    [Shape_func] — a shape function failed; [Internal] — anything else
    (bad operands, recursion overflow, malformed bytecode). *)
type failure_kind = Shape_guard | Alloc | Kernel_trap | Shape_func | Internal

(** A typed execution failure: what happened, where (function, program
    counter, instruction), and whether a retry may succeed. Entry-level
    failures (guards, arity) carry [fail_pc = -1]. *)
type failure = {
  fail_kind : failure_kind;
  fail_func : string;  (** VM function that was executing *)
  fail_pc : int;  (** program counter, [-1] for entry (guards, arity) *)
  fail_instr : string;  (** faulting instruction summary, [""] at entry *)
  fail_msg : string;
  fail_transient : bool;
      (** the fault was injected in transient mode: a retry may succeed *)
}

(** Stable lower-case name of a {!failure_kind} (["shape_guard"],
    ["alloc"], ...), used in trace spans and stats JSON. *)
val kind_name : failure_kind -> string

(** One-line human rendering of a {!failure}. *)
val pp_failure : Format.formatter -> failure -> unit

(** A synthetic [Internal] failure at entry of [func] — for layers above
    the VM (the serving engine's worker supervisor) that must convert a
    non-VM exception into the typed channel. *)
val internal_failure : func:string -> string -> failure

type t

(** Raised out of {!set_instruction_hook} callbacks to abort the current
    inference (the paper's §5.3 QoS scenario). *)
exception Preempted

(** [create exe] builds an interpreter over a fully linked executable.

    @param max_depth recursion guard for [Invoke] (default 100k frames).
    @param pooling reuse already-allocated storage chunks across top-level
    invocations — the runtime half of memory planning (default true).
    Result tensors are copied out of the pool at the API boundary.
    @param max_pool_bytes cap on storage bytes retained in the pool across
    invocations; an allocation that would exceed it fails with an [Alloc]
    {!failure} instead of growing the pool (default: unlimited).
    @raise Vm_error if the executable has unlinked packed functions. *)
val create :
  ?max_depth:int -> ?pooling:bool -> ?max_pool_bytes:int -> Exe.t -> t

(** Install (or clear, with [None]) the QoS preemption hook (paper §5.3).

    Contract: the hook is called synchronously from the dispatch loop
    {e before} every instruction executes, with the instruction about to
    run. Returning normally lets execution continue; raising {!Preempted}
    (or any exception) aborts the inference — the exception propagates out
    of {!invoke} and no further instructions run. Because the VM blocks in
    the hook, a scheduler may also {e pause} the inference by simply not
    returning until the resource is free. The hook must not re-enter this
    interpreter instance. Hook time is attributed to the VM's "other"
    (non-kernel) time by the profiler.

    QoS example — abort a long batch job after 10 ms so a latency-critical
    request can take over, then restart it later:
    {[
      let deadline = Unix.gettimeofday () +. 0.010 in
      Interp.set_instruction_hook vm
        (Some (fun _instr ->
           if Unix.gettimeofday () > deadline then raise Interp.Preempted));
      match Interp.invoke vm args with
      | result -> result
      | exception Interp.Preempted -> (* re-enqueue at lower priority *) ...
    ]} *)
val set_instruction_hook : t -> (Isa.t -> unit) option -> unit

(** Install (or clear, with [None]) a structured event recorder: with a
    trace installed, the dispatch loop emits one span per instruction plus
    detailed spans for kernels (resolved shapes, residue-dispatch
    selection), shape functions (tagged by mode), allocations (bytes,
    pool hits) and device copies. Tracing is off by default and costs
    nothing when off; see {!Trace} and [docs/OBSERVABILITY.md]. *)
val set_trace : t -> Trace.t option -> unit

(** The currently installed event recorder, if any. *)
val trace : t -> Trace.t option

(** A reusable execution context: caches the top-level register frame per
    entry function so repeated invocations of the same function allocate
    nothing for the frame (the serving engine's steady-state path; the
    bench loops use one too). Behavior is identical to context-free
    invocation — the cached frame is refilled with unit values before
    every run — and only the depth-0 frame is reused; recursive frames
    stay fresh. A context indexes frames by function index, so use each
    context against a single interpreter (one per VM worker). Contexts
    are not thread-safe: one domain at a time. *)
type ctx

(** A fresh, empty execution context. *)
val context : unit -> ctx

(** Invocations that reused a cached frame instead of allocating one. *)
val frame_reuses : ctx -> int

(** Invoke a VM function (default ["main"]) with the given arguments,
    surfacing execution failures as typed [Error] values. Guard
    rejections, allocation failures, kernel traps, shape-function errors
    and internal faults all land in the {!failure}; {!Preempted} (the QoS
    abort) and API misuse (unknown function name: [Invalid_argument])
    still raise. Records a [vm.fail] trace span on the error path.
    @param ctx reuse this execution context's cached register frame
    (see {!ctx}). *)
val invoke_result :
  ?func:string -> ?ctx:ctx -> t -> Obj.t list -> (Obj.t, failure) result

(** Invoke a VM function (default ["main"]) with the given arguments.
    @param ctx reuse this execution context's cached register frame
    (see {!ctx}).
    @raise Vm_error on any runtime fault (bad operands, device mismatch,
    shape-check failure, recursion overflow) — the [fail_msg] of the
    underlying typed failure, verbatim. *)
val invoke : ?func:string -> ?ctx:ctx -> t -> Obj.t list -> Obj.t

(** Convenience wrapper: tensor inputs, tensor output. *)
val run_tensors :
  ?func:string -> ?ctx:ctx -> t -> Nimble_tensor.Tensor.t list -> Nimble_tensor.Tensor.t

(** Pre-bind the persistent arenas of [func]'s symbolic memory plans
    (default ["main"]) against the shapes [shape_of_arg] yields per
    argument position — typically a serve bucket's upper-bound shapes —
    so subsequent invocations whose bound dims fit the warmed arenas
    rebind them instead of allocating (counted by the profiler's
    [arena_rebinds]). Plans whose binders the shapes cannot satisfy are
    skipped; warming failures (pool byte cap, injected faults) are
    swallowed — the invocation's own [BindArena] will surface them through
    the typed failure channel. Returns the number of arenas bound; [0]
    without pooling. See [docs/MEMORY.md]. *)
val warm_arenas : ?func:string -> t -> (int -> int array option) -> int

(** The interpreter's profiler: instruction counts, kernel vs other time,
    allocation time, per-kernel statistics, memory-pool accounting. *)
val profiler : t -> Profiler.t
