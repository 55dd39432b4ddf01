(** What every workload shares: the command-line settings, the tally of
    attempted and failed operations, the span log, machine-speed
    calibration, and the helpers that time set-up and read process
    memory. *)

type t = {
  seed : int;
  seconds : float;  (** measured time of the whole run *)
  traced : bool;  (** report per-layer metrics instead of end-to-end ones *)
  spans : Spans.t;
  mutable attempted : int;
  mutable failed : int;
  mutable calibrations : float list list;
      (** per calibration, seconds of each of {!loops} *)
  mutable calibrated_at : float;
}

let create ~seed ~seconds ~traced =
  {
    seed;
    seconds;
    traced;
    spans = Spans.create ~traced;
    attempted = 0;
    failed = 0;
    calibrations = [];
    calibrated_at = neg_infinity;
  }

(** A workload's metrics: end-to-end ones always, per-layer ones only
    when the run is traced. *)
type result = { end_to_end : (string * float) list; per_layer : (string * float) list }

let now () = Unix.gettimeofday ()

let ratio a b = if b = 0.0 then 0.0 else a /. b

(** Count one failed operation; the first few are described on stderr. *)
let fail t fmt =
  Fmt.kstr
    (fun msg ->
      t.failed <- t.failed + 1;
      if t.failed <= 5 then prerr_endline ("ledger: " ^ msg))
    fmt

(** Check output [out] of input [i]: the first against [reference], an
    independent executor's result, within atol = rtol = 1e-3; every
    repeat bitwise against the first, kept in [outputs]. *)
let check_output outputs i ~reference out =
  let module Tensor = Nimble_tensor.Tensor in
  match outputs.(i) with
  | Some first ->
      if Tensor.equal out first then Ok () else Error "repeat differs from the first output"
  | None ->
      if Tensor.approx_equal ~atol:1e-3 ~rtol:1e-3 out reference then begin
        outputs.(i) <- Some out;
        Ok ()
      end
      else Error "output differs from the reference"

(** Seconds of the untraced phase. A traced run splits its time evenly
    between an untraced phase (the baseline for [trace.overhead_frac]
    and the source of the profiler counters) and a traced one. *)
let phase_seconds t = if t.traced then t.seconds /. 2.0 else t.seconds

(** Time [f ()] in seconds. *)
let timed f =
  let t0 = now () in
  let v = f () in
  (v, now () -. t0)

(** Set-ups per run: enough for a steady median of a set-up that takes
    a few milliseconds, and a fixed count, so the memory they leave
    behind does not depend on machine speed. *)
let setup_reps = 15

(** Run [setup] from scratch {!setup_reps} times. Returns the median wall
    time with the last set-up's value; [dispose] releases the others. *)
let time_setup ?(dispose = ignore) setup =
  let rec go times =
    let v, dt = timed setup in
    let times = dt :: times in
    if List.length times = setup_reps then (Sample.median_of times, v)
    else begin
      dispose v;
      go times
    end
  in
  go []

(** The process's peak resident set (VmHWM) in MiB. *)
let peak_rss_mb () =
  let ic = open_in "/proc/self/status" in
  let rec find () =
    match input_line ic with
    | line when String.length line > 6 && String.sub line 0 6 = "VmHWM:" ->
        Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d kB" (fun kb ->
            float_of_int kb /. 1024.0)
    | _ -> find ()
  in
  Fun.protect ~finally:(fun () -> close_in ic) find

(* ------------------------- machine speed ------------------------- *)

(* On a shared host, single-threaded compute speed drifts by a third
   within minutes (frequency and neighbours), far more than the bounds
   allow. Two fixed loops, written here and never touched by the
   program, run between the measured operations: a float matrix product
   small enough for L1, and a list build and sort that allocates and
   chases pointers. Together they track the VM workloads' drift to a
   few percent, so those report their times scaled to the machine on
   which the loops take their reference times. Each sample allocates
   fresh arrays: one fixed placement can make the product up to twice
   as slow for a whole process. *)

(** A naive 32x32x32 float matrix product, repeated 50 times. *)
let product_loop () =
  let n = 32 in
  let a = Array.init (n * n) (fun i -> float_of_int (i mod 7)) in
  let b = Array.init (n * n) (fun i -> float_of_int (i mod 5)) in
  let c = Array.make (n * n) 0.0 in
  for _ = 1 to 50 do
    for i = 0 to n - 1 do
      for j = 0 to n - 1 do
        let s = ref 0.0 in
        for k = 0 to n - 1 do
          s := !s +. (a.((i * n) + k) *. b.((j * n) + k))
        done;
        c.((i * n) + j) <- !s
      done
    done
  done

(** Build, sort and sum eight 4000-element lists. *)
let list_loop () =
  for r = 1 to 8 do
    let l = List.sort compare (List.init 4000 (fun i -> ((i * 7919) + r) land 4095)) in
    ignore (Sys.opaque_identity (List.fold_left ( + ) 0 l))
  done

(** The calibration loops with their times on the reference machine, a
    quiet two-core 2.0 GHz x86-64 guest (the one the spread tables in
    [bench/ledger/README.md] come from). *)
let loops = [ (product_loop, 0.0034); (list_loop, 0.0029) ]

(** Time the calibration loops if [every] seconds have passed since the
    last time (always when [every] is 0). Call it between operations:
    many short samples keep the medians clear of transient stalls. *)
let calibrate ?(every = 0.25) t =
  if now () -. t.calibrated_at >= every then begin
    t.calibrations <- List.map (fun (loop, _) -> snd (timed loop)) loops :: t.calibrations;
    t.calibrated_at <- now ()
  end

(** This run's machine speed relative to the reference machine (above 1
    is faster): the inverse of the mean slowdown of the loops' medians. *)
let speed t =
  if t.calibrations = [] then 1.0
  else
    let slowdown i (_, ref_s) = Sample.median_of (List.map (fun c -> List.nth c i) t.calibrations) /. ref_s in
    let slowdowns = List.mapi slowdown loops in
    float_of_int (List.length slowdowns) /. List.fold_left ( +. ) 0.0 slowdowns
