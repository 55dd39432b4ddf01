(** Trace-driven latency estimation.

    Runs an executor thunk with a {!Nimble_codegen.Trace} listener
    installed, prices every kernel execution with the platform roofline and
    every framework event with the framework cost table, and returns a
    latency breakdown. The numerics of the thunk are real (its outputs are
    whatever the executor computed); only the clock is modelled. *)

module Trace = Nimble_codegen.Trace

type breakdown = {
  kernel_s : float;  (** roofline kernel time *)
  launch_s : float;  (** kernel-launch overhead *)
  host_s : float;  (** framework/host bookkeeping (before overlap) *)
  transfer_s : float;  (** host<->device transfers *)
  kernels : int;
  events : (string * int) list;  (** framework event histogram *)
}

let total (p : Platform.t) (fw : Framework.t) b =
  (* on GPUs, host-side work — including asynchronous kernel launches —
     overlaps with device execution *)
  let overlap = if p.Platform.is_gpu then Framework.gpu_overlap fw else 0.0 in
  b.kernel_s +. b.transfer_s +. ((1.0 -. overlap) *. (b.host_s +. b.launch_s))

type state = {
  platform : Platform.t;
  framework : Framework.t;
  launch_per_op : bool;
      (** frameworks launch one kernel per op; Nimble's launches arrive as
          explicit [vm_kernel_launch] events from the VM profiler *)
  mutable kernel_s : float;
  mutable launch_s : float;
  mutable host_s : float;
  mutable transfer_s : float;
  mutable kernels : int;
  events : (string, int) Hashtbl.t;
}

let listener st (ev : Trace.event) =
  match ev with
  | Trace.Op_exec { flops; bytes; _ } ->
      let q = Framework.lib_quality st.framework st.platform ~flops in
      st.kernel_s <-
        st.kernel_s +. (q *. Platform.kernel_seconds st.platform ~flops ~bytes);
      st.kernels <- st.kernels + 1;
      if st.launch_per_op then
        st.launch_s <- st.launch_s +. st.platform.Platform.launch_overhead_s
  | Trace.Framework { kind; amount } -> (
      Hashtbl.replace st.events kind
        (amount + Option.value ~default:0 (Hashtbl.find_opt st.events kind));
      match kind with
      | "vm_kernel_launch" ->
          st.launch_s <-
            st.launch_s +. (float_of_int amount *. st.platform.Platform.launch_overhead_s)
      | "vm_transfer_bytes" ->
          st.transfer_s <-
            st.transfer_s +. Platform.transfer_seconds st.platform ~bytes:amount
      | kind ->
          st.host_s <-
            st.host_s
            +. float_of_int amount *. Framework.event_cost kind
               *. st.platform.Platform.host_speed)

(** [record f] runs [f ()] capturing its trace events for later pricing
    under any platform (so one real execution serves all three platforms). *)
let record (f : unit -> 'a) : 'a * Trace.event list =
  let events = ref [] in
  let result = Trace.with_listener (fun ev -> events := ev :: !events) f in
  (result, List.rev !events)

(** Price a recorded trace under a platform/framework pair. *)
let price ~platform ~framework ?(launch_per_op = true) (events : Trace.event list) :
    breakdown =
  let st =
    {
      platform;
      framework;
      launch_per_op;
      kernel_s = 0.0;
      launch_s = 0.0;
      host_s = 0.0;
      transfer_s = 0.0;
      kernels = 0;
      events = Hashtbl.create 16;
    }
  in
  List.iter (listener st) events;
  {
    kernel_s = st.kernel_s;
    launch_s = st.launch_s;
    host_s = st.host_s;
    transfer_s = st.transfer_s;
    kernels = st.kernels;
    events = Hashtbl.fold (fun k v acc -> (k, v) :: acc) st.events [];
  }

(** [estimate ~platform ~framework ?launch_per_op f] runs [f ()] under the
    cost model and returns its result and the latency breakdown. *)
let estimate ~platform ~framework ?launch_per_op (f : unit -> 'a) : 'a * breakdown =
  let result, events = record f in
  (result, price ~platform ~framework ?launch_per_op events)

(** Estimated latency in seconds. *)
let latency ~platform ~framework ?launch_per_op f =
  let result, b = estimate ~platform ~framework ?launch_per_op f in
  (result, total platform framework b)

let pp_breakdown ppf (b : breakdown) =
  Fmt.pf ppf "kernel=%.1fus launch=%.1fus host=%.1fus transfer=%.1fus (%d kernels)"
    (b.kernel_s *. 1e6) (b.launch_s *. 1e6) (b.host_s *. 1e6) (b.transfer_s *. 1e6)
    b.kernels
