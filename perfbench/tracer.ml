(* The traced run's span collection.

   The benchmark wraps its calls into each layer in [Bbc_obs] spans named
   "L.<layer>.<op>"; spans the library already opens ("eval.social_cost",
   "dynamics.run", ...) are attributed to their layer by name prefix.
   Events stay in memory (one list, filled when [finish] drains the
   per-domain buffers) and are reduced at the end to self time per layer.

   Self time is wall time.  Spans nest only within one domain ([Bbc_obs]
   keeps its parent stack per domain, so a span a pool worker opens has
   no parent), so the reduction sweeps the run in time order and keeps
   one stack per domain.  At each instant the wall time is shared
   equally among the domains that have a layer span open, and each
   domain's share goes to the layer of its innermost such span: a domain
   waiting in the pool keeps only its share, and the spans its workers
   open take the rest.  Time no domain covers is untracked, so the layer
   self times and the untracked time add up to the traced wall time. *)

let layers =
  [
    "csr"; "gen"; "approx"; "eval"; "best_response"; "incr"; "stability";
    "exhaustive"; "trial"; "dynamics"; "runner"; "checkpoint";
    "aggregate"; "protocol"; "handlers"; "net";
  ]

let library_prefixes =
  [
    ("eval.", "eval"); ("stability.", "stability"); ("dynamics.", "dynamics");
    ("approx.", "approx"); ("campaign.", "runner"); ("exhaustive.", "exhaustive");
    ("apsp.", "csr");
  ]

let layer_of_span name =
  if String.starts_with ~prefix:"L." name then
    match String.index_from_opt name 2 '.' with
    | Some i -> Some (String.sub name 2 (i - 2))
    | None -> Some (String.sub name 2 (String.length name - 2))
  else
    List.find_map
      (fun (prefix, layer) ->
        if String.starts_with ~prefix name then Some layer else None)
      library_prefixes

let span layer op f = Bbc_obs.with_span ("L." ^ layer ^ "." ^ op) f

(* ---------------------------------------------------------------- *)

let events : Bbc_obs.ev list ref = ref []
let started_ns = ref 0

let start () =
  events := [];
  Bbc_obs.clear_sinks ();
  Bbc_obs.reset ();
  Bbc_obs.add_sink (fun ev -> events := ev :: !events);
  Bbc_obs.enable ();
  started_ns := Util.now_ns ()

type summary = {
  self_ns : (string * float) list;  (** per layer, in [layers] order *)
  untracked_ns : float;
  wall_ns : int;  (** from [start] to [finish] *)
}

(* Counters must be read before [finish]: it disables observability. *)
let finish () =
  let stop_ns = Util.now_ns () in
  Bbc_obs.flush_events ();
  Bbc_obs.disable ();
  Bbc_obs.clear_sinks ();
  let spans =
    List.filter
      (fun (ev : Bbc_obs.ev) ->
        ev.kind = Bbc_obs.Span_open || ev.kind = Bbc_obs.Span_close)
      !events
    |> List.sort (fun (a : Bbc_obs.ev) b -> compare (a.ts_ns, a.seq) (b.ts_ns, b.seq))
  in
  events := [];
  let self = Hashtbl.create 32 and untracked = ref 0. in
  (* Open spans per domain, innermost first, as (span id, layer). *)
  let stacks : (int, (int * string option) list) Hashtbl.t = Hashtbl.create 8 in
  let innermost_layer stack = List.find_map snd stack in
  let last = ref !started_ns in
  let advance now =
    let dt = float_of_int (max 0 (now - !last)) in
    last := max !last now;
    let covered =
      Hashtbl.fold
        (fun _ stack acc ->
          match innermost_layer stack with Some l -> l :: acc | None -> acc)
        stacks []
    in
    match covered with
    | [] -> untracked := !untracked +. dt
    | ls ->
        let share = dt /. float_of_int (List.length ls) in
        List.iter
          (fun l ->
            Hashtbl.replace self l
              (share +. Option.value ~default:0. (Hashtbl.find_opt self l)))
          ls
  in
  List.iter
    (fun (ev : Bbc_obs.ev) ->
      advance ev.ts_ns;
      let stack = Option.value ~default:[] (Hashtbl.find_opt stacks ev.domain) in
      Hashtbl.replace stacks ev.domain
        (if ev.kind = Bbc_obs.Span_open then (ev.id, layer_of_span ev.name) :: stack
         else List.filter (fun (id, _) -> id <> ev.id) stack))
    spans;
  advance stop_ns;
  {
    self_ns =
      List.map (fun l -> (l, Option.value ~default:0. (Hashtbl.find_opt self l))) layers;
    untracked_ns = !untracked;
    wall_ns = stop_ns - !started_ns;
  }

let counter name = Bbc_obs.counter_value (Bbc_obs.counter name)
let histogram_sum name = Bbc_obs.histogram_sum (Bbc_obs.histogram name)
