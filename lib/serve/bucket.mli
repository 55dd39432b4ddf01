(** Shape buckets: the key by which a worker groups queued requests into
    a batch.

    Bucketing decides which requests share a batch (and therefore a
    worker's warm arenas and register frame); it never changes numerics,
    because every kernel still runs at the request's exact runtime shape.
    See [docs/SERVING.md] for the policy discussion. *)

type policy =
  | Exact  (** one bucket per distinct shape *)
  | Pad of {
      multiple : int;  (** round every dimension up to this multiple *)
      max_over : float;
          (** fall back to the exact shape when padding would grow the
              element count by more than this factor *)
    }

(** The [Pad] rounding multiple used by {!default} (8). *)
val default_multiple : int

(** [Pad { multiple = 8; max_over = 2.0 }]. *)
val default : policy

(** The bucket shape for the given dims (a fresh array). *)
val key : policy -> int array -> int array

(** {!key} rendered as a stable ["8x64"]-style string — what a worker
    compares to group queued requests, and the label in stats and trace
    spans. *)
val key_string : policy -> int array -> string

(** Human-readable policy description (CLI banners, docs). *)
val pp_policy : Format.formatter -> policy -> unit
