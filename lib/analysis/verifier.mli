(** Bytecode verifier: a classic dataflow verification pass over the VM's
    20-instruction ISA, run on every compiler-emitted executable and on
    every deserialized one (via {!of_bytes} / {!load_file}, the loading
    path [Serve.Cache] and the CLI use).

    Per function it proves, over the control-flow graph formed by the
    [If]/[Goto] relative jumps:

    - every register read is {e defined on every path} reaching the read
      (must-analysis: the defined-register set at a join is the
      intersection of the incoming sets; the first [arity] registers are
      defined at entry);
    - every jump target is in bounds and no path falls off the end of the
      code — every path terminates in [Ret] or [Fatal];
    - every embedded index is valid: [func_index] (with [Invoke] arity
      agreement and [AllocClosure] capture counts), [packed_index],
      constant-pool indices, [device_id]s against the device registry, and
      [GetField] indices against the field count where the object's
      allocation site is statically known;
    - [InvokePacked] out-registers hold tensors defined by a prior
      [AllocTensor]/[AllocTensorReg] on every path (the §4.3 invariant
      that kernels write only into manifestly-allocated destinations), and
      [AllocTensor] storage operands come from a prior [AllocStorage].

    Beyond the per-function checks it runs {!Plan_check.check} on every
    symbolic memory plan, and checks the persisted tune table (NMBLEXE4):
    every decision must target a declared packed {e kernel} with a
    positive extent, a tile width in [1, 256], and no duplicate (kernel,
    extent) rows — a corrupt tune table is rejected at load instead of
    silently steering live dispatch.

    It is the executable's only well-formedness checker; see
    [docs/ANALYSIS.md]. *)

(** Raised by {!verify_exn} (and the loading wrappers) with the full list
    of located violations — the typed rejection the loader surfaces
    instead of letting a corrupt executable reach the interpreter. *)
exception Verify_error of Diag.t list

(** All violations in an executable, in (function, pc) order; [[]] means
    the executable verifies. Runs on the platform-independent part only,
    so it works on unlinked (freshly deserialized) executables. *)
val verify : Nimble_vm.Exe.t -> Diag.t list

(** The cross-function slice of {!verify} on its own: ADT arity checking
    across [Invoke] and closure boundaries. Each function parameter is
    summarized by the join over every visible call site of what the
    argument register holds ([Invoke] arguments; [AllocClosure] captured
    prefixes — parameters past the prefix are filled at [InvokeClosure]
    sites this summary does not track and degrade to unknown), and the
    register must-analysis reruns with the refined entry so a [GetField]
    whose object is a constructor built in a {e caller} is bounds-checked
    too. Parameters with no visible call site stay unconstrained: the
    interpreter can invoke any function by name, so external entry points
    must not be speculated about. Only violations invisible to the
    per-function pass are reported. *)
val verify_cross_adt : Nimble_vm.Exe.t -> Diag.t list

(** @raise Verify_error when {!verify} finds any violation. *)
val verify_exn : Nimble_vm.Exe.t -> unit

(** [Nimble_vm.Serialize.of_bytes] followed by {!verify_exn}: the verified
    load path. @raise Verify_error on a decodable-but-invalid executable;
    [Nimble_vm.Serialize.Format_error] propagates for undecodable bytes. *)
val of_bytes : string -> Nimble_vm.Exe.t

(** {!of_bytes} over a file's contents.
    @raise Verify_error as {!of_bytes}; I/O errors raise [Sys_error]. *)
val load_file : string -> Nimble_vm.Exe.t

(** Convert verifier violations into the typed VM failure channel
    (an [Internal] failure located at the first diagnostic), for layers
    that report load failures alongside execution failures. *)
val to_failure : Diag.t list -> Nimble_vm.Interp.failure

(** Number of opcodes the verifier's transfer function handles; pinned to
    [Nimble_vm.Isa.num_opcodes] by [test/test_analysis.ml] so adding an
    instruction without teaching the verifier about it fails the suite. *)
val handled_opcodes : int

(** {2 Instruction facts}

    The register/control facts the dataflow runs on, shared with
    {!Compact}'s liveness analysis so the two passes can never disagree
    about what an instruction touches. *)

(** Registers an instruction reads ([InvokePacked] outs count as reads:
    they carry pre-allocated destination tensors). *)
val reads : Nimble_vm.Isa.t -> int list

(** Registers an instruction writes. *)
val writes : Nimble_vm.Isa.t -> int list

(** Absolute successor pcs of the instruction at [pc]. *)
val successors : int -> Nimble_vm.Isa.t -> int list
