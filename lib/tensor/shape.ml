(** Concrete (fully static) runtime shapes: arrays of non-negative dims.

    The compiler-side symbolic shapes (with [Any]) live in [Nimble_ir.Dim];
    this module is the runtime counterpart used by tensors, shape functions
    and the VM. *)

type t = int array

exception Shape_error of string

let err fmt = Fmt.kstr (fun s -> raise (Shape_error s)) fmt

let scalar : t = [||]
let of_list = Array.of_list
let to_list = Array.to_list
let rank (s : t) = Array.length s

let numel (s : t) = Array.fold_left ( * ) 1 s

let equal (a : t) (b : t) =
  Array.length a = Array.length b && Array.for_all2 ( = ) a b

let pp ppf (s : t) =
  Fmt.pf ppf "(%a)" Fmt.(array ~sep:(any ", ") int) s

let to_string s = Fmt.str "%a" pp s

let validate (s : t) =
  Array.iter (fun d -> if d < 0 then err "negative dimension in %a" pp s) s

(** Row-major strides, in elements. Size-0 dims get stride 0. *)
let strides (s : t) : int array =
  let n = Array.length s in
  let st = Array.make n 1 in
  for i = n - 2 downto 0 do
    st.(i) <- st.(i + 1) * s.(i + 1)
  done;
  st

(** Convert a multi-index to a linear row-major offset. *)
let linear_index (s : t) (idx : int array) =
  let st = strides s in
  let acc = ref 0 in
  for i = 0 to Array.length s - 1 do
    if idx.(i) < 0 || idx.(i) >= s.(i) then
      err "index %d out of bounds for dim %d of %a" idx.(i) i pp s;
    acc := !acc + (idx.(i) * st.(i))
  done;
  !acc

(** NumPy-style broadcast of two shapes; [None] if incompatible. *)
let broadcast (a : t) (b : t) : t option =
  let ra = rank a and rb = rank b in
  let r = max ra rb in
  let out = Array.make r 0 in
  let ok = ref true in
  for i = 0 to r - 1 do
    let da = if i < r - ra then 1 else a.(i - (r - ra)) in
    let db = if i < r - rb then 1 else b.(i - (r - rb)) in
    if da = db then out.(i) <- da
    else if da = 1 then out.(i) <- db
    else if db = 1 then out.(i) <- da
    else ok := false
  done;
  if !ok then Some out else None

let broadcast_exn a b =
  match broadcast a b with
  | Some s -> s
  | None -> err "cannot broadcast %a with %a" pp a pp b

(** Normalize a possibly-negative axis against a rank. *)
let normalize_axis ~rank:r axis =
  let a = if axis < 0 then axis + r else axis in
  if a < 0 || a >= r then err "axis %d out of range for rank %d" axis r;
  a

(** Drop the dimension at [axis]. *)
let remove_axis (s : t) axis =
  let axis = normalize_axis ~rank:(rank s) axis in
  Array.init (rank s - 1) (fun i -> if i < axis then s.(i) else s.(i + 1))

(** Insert a size-[1] dimension before position [axis]. *)
let insert_axis (s : t) axis =
  let r = rank s in
  let a = if axis < 0 then axis + r + 1 else axis in
  if a < 0 || a > r then err "axis %d out of range for rank %d" axis r;
  Array.init (r + 1) (fun i -> if i < a then s.(i) else if i = a then 1 else s.(i - 1))

(** Resolve a reshape target that may contain a single [-1] wildcard. *)
let resolve_reshape ~(from : t) (target : int array) : t =
  let total = numel from in
  let wilds = Array.fold_left (fun n d -> if d = -1 then n + 1 else n) 0 target in
  if wilds > 1 then err "reshape target has multiple -1 dims";
  if wilds = 0 then begin
    if numel target <> total then
      err "reshape from %a to %a changes element count" pp from pp target;
    Array.copy target
  end
  else begin
    let known = Array.fold_left (fun n d -> if d = -1 then n else n * d) 1 target in
    if known = 0 || total mod known <> 0 then
      err "cannot infer -1 in reshape of %a to %a" pp from pp target;
    Array.map (fun d -> if d = -1 then total / known else d) target
  end
