(** Symbolic arena plan soundness (see [plan_check.mli]). *)

module Arena_plan = Nimble_shape.Arena_plan
module Sym_expr = Nimble_shape.Sym_expr

let num_devices = List.length Nimble_device.Device.all

let tiled (p : Arena_plan.t) =
  let n = Array.length p.slots in
  let rec chain k =
    let s = p.slots.(k) in
    let next = if k = n - 1 then p.total else p.slots.(k + 1).s_offset in
    Sym_expr.equal (Sym_expr.add s.s_offset s.s_size) next
    && (k = n - 1 || chain (k + 1))
  in
  n > 0
  && Sym_expr.monotone p.slots.(0).s_offset
  && Array.for_all (fun (s : Arena_plan.slot) -> Sym_expr.monotone s.s_size) p.slots
  && chain 0

let check (p : Arena_plan.t) =
  let problems = ref [] in
  let bad fmt = Fmt.kstr (fun s -> problems := s :: !problems) fmt in
  if p.device < 0 || p.device >= num_devices then
    bad "device %d out of bounds (%d devices)" p.device num_devices;
  if p.align < 1 then bad "alignment %d is not positive" p.align;
  Array.iter
    (fun { Arena_plan.b_arg; b_dim; b_sym } ->
      if b_arg < 0 || b_dim < 0 then
        bad "binder for s%d reads argument %d dim %d" b_sym b_arg b_dim)
    p.binders;
  List.iter
    (fun s ->
      if not (Array.exists (fun (b : Arena_plan.binder) -> b.b_sym = s) p.binders) then
        bad "symbolic dim s%d has no binder" s)
    (Arena_plan.free_dims p);
  Array.iteri
    (fun i (s : Arena_plan.slot) ->
      if not (Sym_expr.monotone s.s_size) then
        bad "slot %d size %s is not monotone in its dims" i (Sym_expr.to_string s.s_size))
    p.slots;
  if not (Sym_expr.monotone p.total) then
    bad "total %s is not monotone in its dims" (Sym_expr.to_string p.total);
  if not (tiled p) then
    bad "layout is not a consecutive tiling, so no-overlap and no-escape are unproven";
  List.rev !problems
