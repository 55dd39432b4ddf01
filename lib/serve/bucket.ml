(** Shape buckets: the key by which a worker groups queued requests into
    a batch.

    A bucket maps a request's (dynamic) shape to the scheduling class it
    shares with similar requests. Two requests in the same bucket ride in
    the same batch on the same VM worker, back to back, so they hit the
    same warm state: the worker's storage arenas (keyed by allocation
    site and byte size) and register frame are already the right size.

    Numerics are never affected by bucketing. The bucket shape is an
    {e upper bound} in the sense of the paper's §4.3 memory planning — it
    sizes and collocates resources — but every kernel still executes at
    the request's exact runtime shape (the VM resolves [Any] dimensions
    per request). Padding therefore changes scheduling and memory reuse,
    never a single output bit; the dedicated check lives in
    [test/test_serve.ml]. *)

type policy =
  | Exact  (** one bucket per distinct shape *)
  | Pad of {
      multiple : int;  (** round every dimension up to this multiple *)
      max_over : float;
          (** cap: if padding would grow the element count by more than
              this factor, fall back to the exact shape so a pathological
              request cannot drag a whole bucket's footprint up *)
    }

let default_multiple = 8

let default = Pad { multiple = default_multiple; max_over = 2.0 }

let round_up ~multiple d =
  if d <= 0 then d else (d + multiple - 1) / multiple * multiple

let numel dims = Array.fold_left ( * ) 1 dims

(** The bucket shape for [dims] under [policy]. [Exact] is the identity;
    [Pad] rounds each dimension up to the multiple unless the cap trips,
    in which case the exact dims are the bucket (still deterministic —
    the same shape always lands in the same bucket). *)
let key policy (dims : int array) : int array =
  match policy with
  | Exact -> Array.copy dims
  | Pad { multiple; max_over } ->
      let multiple = Stdlib.max 1 multiple in
      let padded = Array.map (round_up ~multiple) dims in
      let exact_n = Stdlib.max 1 (numel dims) in
      if float_of_int (numel padded) > max_over *. float_of_int exact_n then
        Array.copy dims
      else padded

(** {!key} rendered as a stable string ("8x64"), what a worker compares
    to group queued requests and the label shown in stats and trace
    spans. *)
let key_string policy dims =
  String.concat "x" (Array.to_list (Array.map string_of_int (key policy dims)))

let pp_policy ppf = function
  | Exact -> Fmt.string ppf "exact"
  | Pad { multiple; max_over } ->
      Fmt.pf ppf "pad(multiple=%d, max_over=%.2f)" multiple max_over
