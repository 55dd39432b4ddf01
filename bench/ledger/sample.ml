(** Growable buffers of float samples and the order statistics the ledger
    reports. Percentiles are nearest-rank, so every reported value is one
    that was actually measured. *)

type t = { mutable data : float array; mutable len : int }

let create () = { data = Array.make 1024 0.0; len = 0 }

let add t x =
  if t.len = Array.length t.data then begin
    let bigger = Array.make (2 * t.len) 0.0 in
    Array.blit t.data 0 bigger 0 t.len;
    t.data <- bigger
  end;
  t.data.(t.len) <- x;
  t.len <- t.len + 1

let of_list xs =
  let t = create () in
  List.iter (add t) xs;
  t

let count t = t.len

let sum t =
  let s = ref 0.0 in
  for i = 0 to t.len - 1 do
    s := !s +. t.data.(i)
  done;
  !s

(** Nearest-rank percentile [p] (0 to 100); 0 for an empty sample. *)
let percentile t p =
  if t.len = 0 then 0.0
  else begin
    let a = Array.sub t.data 0 t.len in
    Array.sort Float.compare a;
    let rank = int_of_float (Float.ceil (p /. 100.0 *. float_of_int t.len)) in
    a.(Stdlib.max 0 (Stdlib.min (t.len - 1) (rank - 1)))
  end

let median t = percentile t 50.0

(** Median of a list of per-pass values. *)
let median_of xs = median (of_list xs)
