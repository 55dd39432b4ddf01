(** Bounded multi-producer/multi-consumer queue with non-blocking
    admission (backpressure by refusal, not by blocking), a consumer
    hold, and graceful close-and-drain. See [docs/SERVING.md]. *)

type 'a t

(** [create ~capacity] makes an empty queue refusing pushes beyond
    [capacity] elements. @raise Invalid_argument when [capacity <= 0]. *)
val create : capacity:int -> 'a t

(** Enqueue without blocking: [false] when full or closed. Evaluates the
    ["queue_push"] fault-injection point before touching the queue, so an
    injected fault ([Nimble_fault.Fault.Injected]) leaves the queue
    state unchanged. *)
val try_push : 'a t -> 'a -> bool

(** Enqueue, blocking while full; [false] only when closed. For a
    hand-off that must not drop elements, where backpressure should
    propagate to the producer. *)
val push : 'a t -> 'a -> bool

(** Dequeue, blocking until an element is available (queued and not
    held) or the queue is closed and drained ([None]). *)
val pop : 'a t -> 'a option

(** [pop_batch t ~max ~same] dequeues the oldest element [x] plus up to
    [max - 1] later elements [y] with [same x y], in queue order,
    blocking like {!pop}. Every other element stays queued in its
    order. *)
val pop_batch : 'a t -> max:int -> same:('a -> 'a -> bool) -> 'a list option

(** Stop consumers until {!release}; producers keep filling the queue up
    to its capacity. {!close} overrides a hold. *)
val hold : 'a t -> unit

(** Let consumers take elements again after {!hold}. *)
val release : 'a t -> unit

(** Refuse producers from now on; consumers drain (even under a {!hold})
    then see [None]. Idempotent. *)
val close : 'a t -> unit

(** Has {!close} been called? *)
val closed : 'a t -> bool

(** Current depth. *)
val length : 'a t -> int

(** Deepest the queue has ever been. *)
val high_water : 'a t -> int
