(** The soundness check for symbolic arena plans (paper §4.3, see
    [docs/MEMORY.md]). One function serves both places a plan is checked:
    {!Lint.memory} on the [memory.bind_arena] attributes right after the
    planning pass, and {!Verifier.verify} on the executable's plan table
    (after compilation and on every load).

    A plan is sound when:

    - its device is a registered device and its alignment is positive;
    - every binder reads a non-negative argument position and dimension,
      and every symbolic dim a slot or the total mentions has a binder;
    - every slot size and the total are {!Nimble_shape.Sym_expr.monotone}
      (the upper-bound-soundness precondition: warming an arena at a
      bucket's upper bound covers every smaller shape in the bucket);
    - its layout is a consecutive tiling ({!tiled}), which proves that
      under every admissible binding (all dims [>= 0]) each slot lies
      inside [\[0, total)] and no two slots overlap. This is the only
      layout the planner emits; any other layout is rejected rather than
      sampled, since no finite sample of bindings can rule out an overlap
      between the samples. *)

(** [true] when the plan is a consecutive tiling the layout obligation is
    proven for: the first offset and every size are monotone (hence
    non-negative for every binding), each slot's offset is structurally
    the previous slot's offset plus its size, and the total is the last
    slot's offset plus its size. Slot [k] then occupies
    [\[o_k, o_{k+1})] for every binding, so the slots are disjoint and
    inside [\[0, total)]. Structural equality is taken after
    {!Nimble_shape.Sym_expr.add}'s constant folding, which is how the
    planner builds the chain. *)
val tiled : Nimble_shape.Arena_plan.t -> bool

(** Every violated obligation, as one reason per finding; [[]] when the
    plan is sound. Never raises: no expression is evaluated. *)
val check : Nimble_shape.Arena_plan.t -> string list
