(** Bounded multi-producer/multi-consumer queue — the serving engine's
    backpressure primitive.

    Producers never block: {!try_push} refuses immediately when the
    queue is at capacity (the engine turns that into a [`Rejected]
    admission result instead of letting clients pile up behind a stalled
    server). Consumers block in {!pop} or {!pop_batch} until an element
    or {!close}; {!hold} stops them while producers keep filling the
    queue. Closing is graceful and overrides a hold: queued elements
    drain; only then do consumers see [None]. The high-water mark is
    kept for observability (the [queue_depth_hwm] field of the server
    stats). *)

type 'a t = {
  mux : Mutex.t;
  nonempty : Condition.t;
  nonfull : Condition.t;
  items : 'a Queue.t;
  capacity : int;
  mutable closed : bool;
  mutable held : bool;  (** set by {!hold}: consumers wait *)
  mutable high_water : int;  (** max depth ever observed *)
}

let create ~capacity =
  if capacity <= 0 then Fmt.invalid_arg "Squeue.create: capacity %d" capacity;
  {
    mux = Mutex.create ();
    nonempty = Condition.create ();
    nonfull = Condition.create ();
    items = Queue.create ();
    capacity;
    closed = false;
    held = false;
    high_water = 0;
  }

let with_lock t f =
  Mutex.lock t.mux;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.mux) f

(** Enqueue without blocking: [false] when the queue is full or closed
    (the caller decides whether that is a reject or a retry). Evaluates
    the ["queue_push"] fault-injection point {e before} taking the lock:
    an injected fault refuses the element without touching the queue, so
    chaos runs exercise the admission-reject path, never a corrupt one. *)
let try_push t x =
  Nimble_fault.Fault.check "queue_push";
  with_lock t (fun () ->
      if t.closed || Queue.length t.items >= t.capacity then false
      else begin
        Queue.push x t.items;
        t.high_water <- Stdlib.max t.high_water (Queue.length t.items);
        Condition.signal t.nonempty;
        true
      end)

(** Enqueue, blocking while the queue is full; [false] only when the
    queue is (or becomes) closed. For a hand-off that must not drop an
    element, where backpressure should propagate to the producer. *)
let push t x =
  with_lock t (fun () ->
      while Queue.length t.items >= t.capacity && not t.closed do
        Condition.wait t.nonfull t.mux
      done;
      if t.closed then false
      else begin
        Queue.push x t.items;
        t.high_water <- Stdlib.max t.high_water (Queue.length t.items);
        Condition.signal t.nonempty;
        true
      end)

(* Under the lock: wait until a consumer may take an element, or until
   the queue is closed and drained ([false]). *)
let await_item t =
  while (Queue.is_empty t.items || t.held) && not t.closed do
    Condition.wait t.nonempty t.mux
  done;
  not (Queue.is_empty t.items)

(** Dequeue, blocking until an element is available or the queue is
    closed and fully drained ([None]). *)
let pop t =
  with_lock t (fun () ->
      if not (await_item t) then None
      else begin
        let x = Queue.pop t.items in
        Condition.signal t.nonfull;
        Some x
      end)

(** Dequeue the oldest element plus up to [max - 1] later ones [same] as
    it, in queue order, blocking like {!pop}. Every other element stays
    queued in its order. *)
let pop_batch t ~max ~same =
  with_lock t (fun () ->
      if not (await_item t) then None
      else begin
        let head = Queue.pop t.items in
        let taken = ref [ head ] and n = ref 1 in
        let kept = Queue.create () in
        while !n < max && not (Queue.is_empty t.items) do
          let x = Queue.pop t.items in
          if same head x then begin
            taken := x :: !taken;
            incr n
          end
          else Queue.push x kept
        done;
        Queue.transfer t.items kept;
        Queue.transfer kept t.items;
        Condition.broadcast t.nonfull;
        Some (List.rev !taken)
      end)

(** Stop consumers until {!release}: producers keep filling the queue
    up to its capacity. {!close} overrides a hold. *)
let hold t = with_lock t (fun () -> t.held <- true)

(** Let consumers take elements again after {!hold}. *)
let release t =
  with_lock t (fun () ->
      t.held <- false;
      Condition.broadcast t.nonempty)

(** Mark the queue closed: producers are refused from now on, consumers
    drain what is queued (even under a {!hold}) and then see [None].
    Idempotent. *)
let close t =
  with_lock t (fun () ->
      t.closed <- true;
      Condition.broadcast t.nonempty;
      Condition.broadcast t.nonfull)

let closed t = with_lock t (fun () -> t.closed)

let length t = with_lock t (fun () -> Queue.length t.items)

(** Deepest the queue has ever been (not reset by pops). *)
let high_water t = with_lock t (fun () -> t.high_water)
