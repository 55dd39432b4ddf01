(** The one loop nest behind lib/tensor's layout, broadcast and reduction
    operators, as TVM compiles them to plain loop nests (PAPER.md §6). *)

module Parallel = Nimble_parallel.Parallel

(** [iter dims ops body] visits every index of [dims] once. Operand [k],
    the output first, is [ops.(k) = (offset, strides)]: its element at
    index 0 and one stride per dim, 0 on a dim an input broadcasts along
    or the output accumulates along (only the last dim may be such a
    reduction). Size-1 dims are dropped and adjacent dims contiguous in
    every operand merged; then [body offs steps n] runs each innermost
    run of [n] elements, operand [k] from [offs.(k)] by [steps.(k)]
    ([body] must not keep [offs]). Runs are split over the {!Parallel}
    pool in chunks of {!Parallel.default_min_work} elements, except that
    a run along which the output has stride 0 (a reduction) is never
    split: each output element is written by one domain in the same
    order at every pool width, so results are bitwise identical. *)
let iter dims (ops : (int * int array) array) body =
  let nops = Array.length ops and cap = Stdlib.max 1 (Array.length dims) in
  (* the merged dims, outermost first; operand [k]'s stride along merged
     dim [d] is [ms.((k * cap) + d)] *)
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
  let inner = md.(m - 1) and steps = Array.init nops (fun k -> ms.((k * cap) + m - 1)) in
  let unit = if steps.(0) = 0 then Stdlib.max 1 inner else 1 in
  let grain = Parallel.grain_for ~work_per_item:unit ~min_work:Parallel.default_min_work in
  Parallel.parallel_for ~grain (Array.fold_left ( * ) 1 md / unit) (fun lo hi ->
      let idx = Array.make m 0 and offs = Array.map fst ops in
      (* move [e] elements on from [idx], carrying into outer dims *)
      let rec advance d e =
        if d >= 0 && e > 0 then begin
          let v = idx.(d) + e and size = md.(d) in
          let i = if v < size then v else v mod size in
          for k = 0 to nops - 1 do
            offs.(k) <- offs.(k) + ((i - idx.(d)) * ms.((k * cap) + d))
          done;
          idx.(d) <- i;
          advance (d - 1) (if v < size then 0 else v / size)
        end
      in
      advance (m - 1) (lo * unit);
      let left = ref ((hi - lo) * unit) in
      while !left > 0 do
        let n = Stdlib.min (inner - idx.(m - 1)) !left in
        body offs steps n;
        left := !left - n;
        advance (m - 1) n
      done)

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
