(** Reusable forward/backward worklist dataflow engine.

    The engine computes, for every node of a CFG given as [successors] over
    node indices [0 .. num_nodes-1], the least fixpoint of

    {[ state(n) = join over flow-predecessors p of transfer(p, state(p)) ]}

    starting from the [seeds]. [state(n)] is the {e in}-state of node [n] in
    the direction of information flow: for a [Forward] analysis that is the
    usual in-state (what holds before executing [n]); for a [Backward]
    analysis it is the out-state in program order (e.g. live-out for
    liveness), since flow there enters a node from its CFG successors.

    Client obligations for the fixpoint to exist and be unique:
    - [join_into ~into s] must compute the lattice join of [into] and [s]
      {e in place} in [into], returning [true] iff [into] changed — the
      engine re-enqueues a node only when its state grew;
    - [transfer] must be monotone and must {e not} mutate its input state
      (return a fresh value; [copy] is how the engine duplicates states it
      stores);
    - the lattice must have finite height (no infinite ascending chains).

    Pending nodes are visited in flow order: ascending node index for
    [Forward], descending for [Backward], the lowest pending rank first.
    A node is in the worklist at most once, so a join that grows the state
    of a node already pending does not queue it again. On straight-line
    code every node is therefore visited once, after all of its flow
    predecessors ([num_nodes] transfers, however many nodes are seeded);
    only back edges cause revisits.

    Nodes never reached from a seed keep state [None] — for a must-analysis
    that reads as "unreachable, nothing to check"; a client that wants every
    node processed (liveness does: dead code still renames registers) seeds
    all nodes with bottom. Successor indices outside the node range are
    ignored; structurally invalid edges are the verifier's business. *)

type direction = Forward | Backward

(** [solve ~direction ~num_nodes ~successors ~transfer ~copy ~join_into
    ~seeds] runs the worklist to fixpoint and returns the per-node states.
    [successors] always describes CFG (program-order) successors; in
    [Backward] mode the engine inverts the edge map once internally. *)
val solve :
  direction:direction ->
  num_nodes:int ->
  successors:(int -> int list) ->
  transfer:(int -> 'st -> 'st) ->
  copy:('st -> 'st) ->
  join_into:(into:'st -> 'st -> bool) ->
  seeds:(int * 'st) list ->
  'st option array
