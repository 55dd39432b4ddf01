(** The bench's own spans around the public calls it makes, and the one
    program trace a traced run hands to [Interp.set_trace] or
    [Engine.create ~trace].

    Both share one clock, {!now_us} on the program trace, so a Chrome
    export ([--trace-out]) lines the bench's spans (pid 2) up with the
    program's (pid 1). Untraced runs record nothing. *)

module Trace = Nimble_vm.Trace
module Json = Nimble_vm.Json

type t = { program : Trace.t option; mutable bench : Trace.span list }

(* Holds a served traced phase (a few spans per request) or the spans
   of one VM inference; overflow shows up as [trace.dropped]. *)
let capacity = 1 lsl 18

let create ~traced =
  { program = (if traced then Some (Trace.create ~capacity ()) else None); bench = [] }

let now_us t =
  match t.program with
  | Some tr -> Trace.now_us tr
  | None -> Unix.gettimeofday () *. 1e6

let record t ~name ~ts_us ~dur_us args =
  if t.program <> None then
    t.bench <- { Trace.name; cat = "bench"; ts_us; dur_us; args } :: t.bench

(** [span t name f] runs [f ()] and records it as a bench span. *)
let span t name f =
  let ts_us = now_us t in
  let v = f () in
  record t ~name ~ts_us ~dur_us:(now_us t -. ts_us) [];
  v

let event ~pid (s : Trace.span) =
  let arg = function
    | Trace.Str s -> Json.String s
    | Trace.Int i -> Json.Int i
    | Trace.Float f -> Json.Float f
    | Trace.Bool b -> Json.Bool b
  in
  Json.Obj
    [
      ("name", Json.String s.Trace.name);
      ("cat", Json.String s.Trace.cat);
      ("ph", Json.String "X");
      ("pid", Json.Int pid);
      ("tid", Json.Int 1);
      ("ts", Json.Float s.Trace.ts_us);
      ("dur", Json.Float s.Trace.dur_us);
      ("args", Json.Obj (List.map (fun (k, v) -> (k, arg v)) s.Trace.args));
    ]

(** Write the retained program spans and every bench span as one Chrome
    [trace_event] file. *)
let write_chrome t path =
  let program = match t.program with Some tr -> Trace.spans tr | None -> [] in
  Json.save_file
    (Json.Obj
       [
         ("displayTimeUnit", Json.String "ms");
         ( "traceEvents",
           Json.List
             (List.map (event ~pid:1) program
             @ List.rev_map (event ~pid:2) t.bench) );
       ])
    path
