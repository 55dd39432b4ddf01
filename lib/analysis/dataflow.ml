(** Generic worklist dataflow engine (see [dataflow.mli]): the fixpoint
    skeleton shared by the bytecode verifier's forward must-analysis, the
    register compactor's backward liveness, and the shape-value dominance
    classifier. Clients supply the lattice operations ([join_into], [copy]),
    the per-node [transfer], the CFG ([successors]) and the seed states;
    the engine owns the worklist and the convergence argument (any monotone
    transfer over a finite-height join semilattice reaches the unique least
    fixpoint regardless of iteration order). *)

type direction = Forward | Backward

let solve (type st) ~(direction : direction) ~(num_nodes : int)
    ~(successors : int -> int list) ~(transfer : int -> st -> st)
    ~(copy : st -> st) ~(join_into : into:st -> st -> bool)
    ~(seeds : (int * st) list) : st option array =
  let n = max num_nodes 1 in
  (* Flow edges: in [Forward] mode information moves along CFG edges; in
     [Backward] mode it moves against them, so invert the successor map
     once up front instead of asking clients for a predecessor function. *)
  let flow_succs =
    match direction with
    | Forward ->
        fun node ->
          List.filter (fun s -> s >= 0 && s < num_nodes) (successors node)
    | Backward ->
        let preds = Array.make n [] in
        for node = 0 to num_nodes - 1 do
          List.iter
            (fun s -> if s >= 0 && s < num_nodes then preds.(s) <- node :: preds.(s))
            (successors node)
        done;
        fun node -> preds.(node)
  in
  (* Flow order: ascending pc forward, descending pc backward. The worklist
     is the set of pending ranks, each node in it at most once, and the
     lowest pending rank is visited next: on straight-line code every node
     is visited once, after all of its flow predecessors. *)
  let rank =
    (* its own inverse: maps a node to its rank and a rank to its node *)
    match direction with Forward -> Fun.id | Backward -> fun i -> num_nodes - 1 - i
  in
  let states : st option array = Array.make n None in
  let pending = Array.make n false in
  (* no pending rank lies below [cursor] *)
  let cursor = ref num_nodes in
  let enqueue node =
    let r = rank node in
    if not pending.(r) then begin
      pending.(r) <- true;
      if r < !cursor then cursor := r
    end
  in
  List.iter
    (fun (node, st) ->
      if node >= 0 && node < num_nodes then begin
        (match states.(node) with
        | None -> states.(node) <- Some (copy st)
        | Some old -> ignore (join_into ~into:old st : bool));
        enqueue node
      end)
    seeds;
  while !cursor < num_nodes do
    let r = !cursor in
    if not pending.(r) then incr cursor
    else begin
      pending.(r) <- false;
      let node = rank r in
      match states.(node) with
      | None -> ()
      | Some st ->
          let out = transfer node st in
          List.iter
            (fun succ ->
              match states.(succ) with
              | None ->
                  states.(succ) <- Some (copy out);
                  enqueue succ
              | Some old -> if join_into ~into:old out then enqueue succ)
            (flow_succs node)
    end
  done;
  states
