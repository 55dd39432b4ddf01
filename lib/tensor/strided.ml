(** The one loop nest behind lib/tensor's layout, broadcast and reduction
    operators, as TVM compiles them to plain loop nests (PAPER.md §6).

    A loop is planned once ({!plan}: merge the dims, one stride per
    operand per merged dim) and run any number of times ({!run}); a
    staged kernel whose dims are static plans at link time. *)

module Parallel = Nimble_parallel.Parallel

(** A planned loop. O(rank): the merged dims and, per operand, its first
    element and one stride per merged dim. *)
type plan = {
  dims : int array;  (** merged dims, outermost first; at least one *)
  strides : int array;  (** operand [k]'s stride along merged dim [d] at [(k * m) + d] *)
  offsets : int array;  (** operand [k]'s element at index 0 *)
  steps : int array;  (** operand [k]'s stride along the innermost merged dim *)
  unit : int;  (** elements per work item: the innermost run for a reduction, else 1 *)
  items : int;
  grain : int;
}

(** [plan dims ops] plans a visit of every index of [dims]. Operand [k],
    the output first, is [ops.(k) = (offset, strides)]: its element at
    index 0 and one stride per dim, 0 on a dim an input broadcasts along
    or the output accumulates along (only the last dim may be such a
    reduction). Size-1 dims are dropped and adjacent dims contiguous in
    every operand merged. *)
let plan dims (ops : (int * int array) array) =
  let nops = Array.length ops and cap = Stdlib.max 1 (Array.length dims) in
  let md = Array.make cap 1 and ms = Array.make (nops * cap) 0 and m = ref 0 in
  for d = 0 to Array.length dims - 1 do
    let size = dims.(d) and p = !m - 1 and k = ref 0 in
    if size <> 1 then begin
      while p >= 0 && !k < nops && ms.((!k * cap) + p) = (snd ops.(!k)).(d) * size do
        incr k
      done;
      if p >= 0 && !k = nops then md.(p) <- md.(p) * size
      else begin
        md.(!m) <- size;
        incr m
      end;
      for k = 0 to nops - 1 do
        ms.((k * cap) + !m - 1) <- (snd ops.(k)).(d)
      done
    end
  done;
  let m = Stdlib.max 1 !m in
  let strides = Array.init (nops * m) (fun i -> ms.((i / m * cap) + (i mod m))) in
  let steps = Array.init nops (fun k -> strides.((k * m) + m - 1)) in
  let dims = Array.sub md 0 m in
  let unit = if steps.(0) = 0 then Stdlib.max 1 dims.(m - 1) else 1 in
  {
    dims;
    strides;
    offsets = Array.map fst ops;
    steps;
    unit;
    items = Array.fold_left ( * ) 1 dims / unit;
    grain = Parallel.grain_for ~work_per_item:unit ~min_work:Parallel.default_min_work;
  }

(** [run p chunk] runs plan [p]. The work is split over the {!Parallel}
    pool in chunks of {!Parallel.default_min_work} elements, except that
    a run along which the output has stride 0 (a reduction) is never
    split: each output element is written by one domain in the same
    order at every pool width, so results are bitwise identical. Each
    chunk calls [chunk elems] once, with the chunk's element count, and
    the function it returns once per innermost run of [n] elements as
    [body offs steps n], operand [k] from [offs.(k)] by [steps.(k)]
    ([body] must neither keep nor write [offs]). *)
let run p chunk =
  let m = Array.length p.dims and nops = Array.length p.offsets in
  let inner = p.dims.(m - 1) in
  Parallel.parallel_for ~grain:p.grain p.items (fun lo hi ->
      let body = chunk ((hi - lo) * p.unit) in
      if m = 1 && lo = 0 then body p.offsets p.steps (hi * p.unit)
      else begin
        let idx = Array.make m 0 and offs = Array.copy p.offsets in
        (* move [e] elements on from [idx], carrying into outer dims *)
        let rec advance d e =
          if d >= 0 && e > 0 then begin
            let v = idx.(d) + e and size = p.dims.(d) in
            let i = if v < size then v else v mod size in
            for k = 0 to nops - 1 do
              offs.(k) <- offs.(k) + ((i - idx.(d)) * p.strides.((k * m) + d))
            done;
            idx.(d) <- i;
            advance (d - 1) (if v < size then 0 else v / size)
          end
        in
        advance (m - 1) (lo * p.unit);
        let left = ref ((hi - lo) * p.unit) in
        while !left > 0 do
          let n = Stdlib.min (inner - idx.(m - 1)) !left in
          body offs p.steps n;
          left := !left - n;
          advance (m - 1) n
        done
      end)

(** [iter dims ops body] is [run (plan dims ops)] with one [body] for
    every chunk. *)
let iter dims ops body = run (plan dims ops) (fun _ -> body)

(** The operands of a fresh row-major output of shape [out] and of
    row-major inputs of shapes [srcs] broadcast to it: an input has stride
    0 on each leading dim it lacks and on each size-1 dim it repeats. *)
let broadcast out srcs =
  let strides src =
    let st = Shape.strides src and lead = Array.length out - Array.length src in
    Array.init (Array.length out) (fun i ->
        if i < lead || src.(i - lead) = 1 then 0 else st.(i - lead))
  in
  Array.of_list ((0, Shape.strides out) :: List.map (fun s -> (0, strides s)) srcs)
