(* Layer replays for the traced run.

   Where the program calls a layer internally, the traced run calls that
   layer's public functions itself, on the workload's own inputs, inside
   "L.<layer>.<op>" spans, and times each call.  Each workload runs only
   the replays of the layers it calls (see its [replay]); the per-layer
   metrics of the other layers read 0 on that workload. *)

open Bbc
module Csr = Bbc_graph.Csr
module Workspace = Bbc_graph.Workspace

let us_of_ns ns = float_of_int ns /. 1e3

(* Time [reps] calls of [f].  Repetition counts depend only on the
   inputs, so the counters a replay moves repeat exactly. *)
let timed_loop ~reps f =
  let s = Report.samples () in
  for i = 0 to reps - 1 do
    let (), ns = Util.time_ns (fun () -> f i) in
    Report.add s (float_of_int ns)
  done;
  s

let nodes_of n cap = if n <= cap then List.init n Fun.id else List.init cap (fun i -> i * n / cap)

(* ---------------------------------------------------------------- *)

let csr m snapshots =
  let ws = Workspace.get () in
  let sources = ref 0 and edges = ref 0. and bytes = ref 0. and ns = ref 0 in
  List.iter
    (fun g ->
      let n = Csr.n g and e = Csr.edge_count g in
      let k = min n (4 * Csr.batch_width) in
      let srcs = Array.init k (fun i -> i * n / k) in
      let s =
        timed_loop ~reps:(max 1 (min 50 (20_000_000 / max 1 (n * k)))) (fun _ ->
            Tracer.span "csr" "sssp_batch" (fun () ->
                let rows = Workspace.acquire_many ws n k in
                Csr.sssp_batch g (Workspace.scratch ws) ~srcs ~rows;
                Csr.reset_rows (Workspace.scratch ws) ~rows;
                Workspace.release_clean_many ws rows))
      in
      let calls = s.Report.count in
      sources := !sources + (calls * k);
      edges := !edges +. (float_of_int calls *. float_of_int k *. float_of_int e);
      ns := !ns + int_of_float (Array.fold_left ( +. ) 0. (Report.to_array s));
      (* Computed traffic per source: a bit-parallel window reads the
         offsets and targets once and keeps three n-word bitmaps; each
         source writes its own n-word row.  Weighted snapshots run one
         Dijkstra per source over targets and lengths. *)
      let w = 8. in
      let per_source =
        if Csr.unit_lengths g then
          let width = float_of_int (min k Csr.batch_width) in
          ((w *. float_of_int (n + 1)) +. (w *. float_of_int e) +. (3. *. w *. float_of_int n))
          /. width
          +. (w *. float_of_int n)
        else (w *. float_of_int (n + 1)) +. (2. *. w *. float_of_int e) +. (w *. float_of_int n)
      in
      bytes := !bytes +. (per_source *. float_of_int (calls * k)))
    snapshots;
  let secs = float_of_int !ns /. 1e9 in
  Report.set m "csr.sources_per_s" "1/s" (float_of_int !sources /. secs);
  Report.set m "csr.edges_per_s" "1/s" (!edges /. secs);
  Report.set m "csr.bytes_per_source" "bytes" (!bytes /. float_of_int !sources)


(* Streaming builds of the given families, with the GC words they
   allocate. *)
let gen m builds =
  let ns = ref 0 and words = ref 0. and nodes = ref 0 in
  List.iter
    (fun (family, n, k, seed) ->
      let words_now () = Gc.minor_words () +. (Gc.quick_stat ()).Gc.major_words in
      let w0 = words_now () in
      let _, t =
        Util.time_ns (fun () ->
            Tracer.span "gen" "streaming" (fun () -> Gen_instance.streaming family ~n ~k ~seed))
      in
      words := !words +. (words_now () -. w0);
      ns := !ns + t;
      nodes := !nodes + n)
    builds;
  Report.set m "gen.build_ns_per_node" "ns" (float_of_int !ns /. float_of_int !nodes);
  Report.set m "gen.words_per_node" "words" (!words /. float_of_int !nodes)

(* [estimates]: (landmarks, one call to Approx.social_cost). *)
let approx m estimates =
  let ns = ref 0 and landmarks = ref 0 in
  List.iter
    (fun (l, f) ->
      let _, t = Util.time_ns f in
      ns := !ns + t;
      landmarks := !landmarks + l)
    estimates;
  Report.set m "approx.ms_per_landmark" "ms" (Util.ms_of_ns !ns /. float_of_int !landmarks)

let eval m graphs =
  let s = Report.samples () in
  List.iter
    (fun (inst, cfg) ->
      let t =
        timed_loop ~reps:3 (fun _ ->
            ignore (Tracer.span "eval" "social_cost" (fun () -> Eval.social_cost inst cfg)))
      in
      List.iter (Report.add s) t.Report.xs)
    graphs;
  Report.set m "eval.social_cost_ms" "ms" (Report.q s 0.5 /. 1e6)

let best_response m graphs =
  let s = Report.samples () in
  List.iter
    (fun (inst, cfg) ->
      List.iter
        (fun u ->
          let (_ : Best_response.result), ns =
            Util.time_ns (fun () ->
                Tracer.span "best_response" "exact" (fun () ->
                    Best_response.exact inst cfg u))
          in
          Report.add s (float_of_int ns))
        (nodes_of (Instance.n inst) 24))
    graphs;
  Report.set m "best_response.exact_us.p50" "us" (Report.q s 0.5 /. 1e3);
  Report.set m "best_response.exact_us.p99" "us" (Report.q s 0.99 /. 1e3)

(* Rewire sampled nodes to their best responses through one context. *)
let incr m graphs =
  let s = Report.samples () in
  List.iter
    (fun (inst, cfg) ->
      let ctx = Tracer.span "incr" "create" (fun () -> Incr.create inst cfg) in
      List.iter
        (fun u ->
          let r =
            Tracer.span "best_response" "exact" (fun () ->
                Best_response.exact ~ctx inst (Incr.config ctx) u)
          in
          let (), ns =
            Util.time_ns (fun () ->
                Tracer.span "incr" "apply_move" (fun () -> Incr.apply_move ctx u r.strategy))
          in
          Report.add s (float_of_int ns);
          ignore (Tracer.span "incr" "all_costs" (fun () -> Incr.all_costs ctx)))
        (nodes_of (Instance.n inst) 12))
    graphs;
  Report.set m "incr.apply_move_us" "us" (Report.q s 0.5 /. 1e3)

(* [scans]: (objective, instance, profile), each scanned in node order
   up to its first deviation. *)
let stability m scans =
  let s = Report.samples () and checked = ref 0 in
  List.iter
    (fun (objective, inst, cfg) ->
      let d, ns =
        Util.time_ns (fun () ->
            Tracer.span "stability" "find_deviation" (fun () ->
                Stability.find_deviation ~objective inst cfg))
      in
      Report.add s (float_of_int ns);
      checked :=
        !checked
        + match d with Some d -> d.Stability.node + 1 | None -> Instance.n inst)
    scans;
  Report.set m "stability.scan_ms.p50" "ms" (Report.q s 0.5 /. 1e6);
  Report.set m "stability.scan_ms.max" "ms" (Report.q s 1.0 /. 1e6);
  Report.set m "stability.nodes_checked" "count" (float_of_int !checked)

let exhaustive m inst =
  let r, ns =
    Util.time_ns (fun () ->
        Tracer.span "exhaustive" "search" (fun () -> Exhaustive.search ~jobs:1 ~limit:1 inst))
  in
  Report.set m "exhaustive.profiles_per_s" "1/s"
    (float_of_int r.Exhaustive.examined /. (float_of_int ns /. 1e9))

let dynamics m trials =
  let build = Report.samples () and walk = Report.samples () in
  List.iter
    (fun t ->
      match
        Util.time_ns (fun () -> Tracer.span "trial" "build" (fun () -> Trial.build t))
      with
      | Error e, _ -> failwith ("replay trial: " ^ e)
      | Ok (inst, cfg), ns ->
          Report.add build (float_of_int ns);
          let _, ns =
            Util.time_ns (fun () ->
                Tracer.span "dynamics" "run" (fun () ->
                    Dynamics.run ~objective:t.Trial.objective ~policy:(Trial.policy_of t)
                      ~scheduler:(Trial.scheduler_of t) ~max_rounds:t.max_rounds inst cfg))
          in
          Report.add walk (float_of_int ns))
    trials;
  Report.set m "trial.build_us" "us" (Report.q build 0.5 /. 1e3);
  Report.set m "dynamics.run_ms.p50" "ms" (Report.q walk 0.5 /. 1e6);
  Report.set m "dynamics.run_ms.p99" "ms" (Report.q walk 0.99 /. 1e6)

(* t(jobs=1) / (jobs * t(jobs)) of the workload's own parallel
   operation [f ~jobs], from the fastest of interleaved repetitions: on a
   shared machine outside load only ever adds time, and medians of a few
   noisy repetitions can show a speed-up above [jobs].  t(1) runs while
   the pool's worker domains sit idle (OCaml 5 stops every domain for
   each minor collection); ten E1 searches took about 10% longer so than
   in a process without worker domains on a two-vCPU virtual machine, so
   on a busy host the figure can read above 1.  1 by definition for one
   job. *)
let pool m ~jobs f =
  let efficiency =
    if jobs = 1 then 1.
    else begin
      let one = Report.samples () and many = Report.samples () in
      for _ = 1 to 9 do
        List.iter
          (fun (j, s) ->
            let (), ns = Util.time_ns (fun () -> f ~jobs:j) in
            Report.add s (float_of_int ns))
          [ (1, one); (jobs, many) ]
      done;
      Report.q one 0. /. (float_of_int jobs *. Report.q many 0.)
    end
  in
  Report.set m "pool.efficiency" "ratio" efficiency

(* [entries]: (cell label, checkpoint entry) of finished units. *)
let checkpoint_aggregate m ~dir entries =
  Util.mkdir_p dir;
  let append = Report.samples () and bytes = ref 0 and units = ref 0 in
  for index = 0 to 7 do
    let path, ns =
      Util.time_ns (fun () ->
          Tracer.span "checkpoint" "append_chunk" (fun () ->
              Bbc_campaign.Checkpoint.append_chunk ~dir ~index (List.map snd entries)))
    in
    Report.add append (float_of_int ns);
    bytes := !bytes + (Unix.stat path).Unix.st_size;
    units := !units + List.length entries
  done;
  let agg = Bbc_campaign.Aggregate.create () in
  let adds = 200 * List.length entries in
  let (), ns =
    Util.time_ns (fun () ->
        Tracer.span "aggregate" "add" (fun () ->
            for _ = 1 to 200 do
              List.iter
                (fun (label, e) ->
                  match e.Bbc_campaign.Checkpoint.payload with
                  | Bbc_campaign.Checkpoint.Done s -> Bbc_campaign.Aggregate.add agg ~label s
                  | Failed _ -> ())
                entries
            done))
  in
  Report.set m "checkpoint.append_ms" "ms" (Report.q append 0.5 /. 1e6);
  Report.set m "checkpoint.bytes_per_unit" "bytes" (float_of_int !bytes /. float_of_int !units);
  Report.set m "aggregate.add_us" "us" (us_of_ns ns /. float_of_int adds)

(* Parse the workload's request lines and render its replies. *)
let protocol m ~requests ~replies =
  let parsed = Report.samples () and rendered = Report.samples () in
  for _ = 1 to 50 do
    List.iter2
      (fun line reply ->
        let r, ns =
          Util.time_ns (fun () ->
              Tracer.span "protocol" "parse" (fun () -> Bbc_server.Protocol.parse_request line))
        in
        Report.add parsed (float_of_int ns);
        let id = match r with Ok r -> r.id | Error (id, _, _) -> id in
        let _, ns =
          Util.time_ns (fun () ->
              Tracer.span "protocol" "render" (fun () -> Bbc_server.Protocol.ok ~id reply))
        in
        Report.add rendered (float_of_int ns))
      requests replies
  done;
  Report.set m "protocol.parse_us" "us" (Report.q parsed 0.5 /. 1e3);
  Report.set m "protocol.render_us" "us" (Report.q rendered 0.5 /. 1e3)

(* In-process handler calls: [cost], [best_response] and [stable] on
   sessions holding [graphs], then [step_dynamics] on them, and
   [run_unit] on [trials].  Returns the [run_unit] times (ns). *)
let handlers m graphs trials =
  let store = Bbc_server.Session.create_store () in
  let env =
    {
      Bbc_server.Handlers.sessions = store;
      now = Util.now_ns;
      stats = (fun () -> Json.Null);
      request_shutdown = ignore;
      assign_ids = false;
    }
  in
  let ids =
    List.map
      (fun (inst, cfg) ->
        match Bbc_server.Session.add store ~now_ns:(Util.now_ns ()) inst cfg with
        | Ok s -> (s.Bbc_server.Session.id, Instance.n inst)
        | Error e -> failwith ("replay session: " ^ e))
      graphs
  in
  let call meth params =
    let r = { Bbc_server.Protocol.id = Json.Int 0; meth; params = Json.Obj params; deadline_ms = None } in
    let res, ns =
      Util.time_ns (fun () -> Tracer.span "handlers" meth (fun () -> Bbc_server.Handlers.handle env r))
    in
    (match res with Ok _ -> () | Error (_, msg) -> failwith ("replay " ^ meth ^ ": " ^ msg));
    float_of_int ns
  in
  let record meth f =
    let s = Report.samples () in
    f (fun x -> Report.add s x);
    Report.set m (Printf.sprintf "handlers.%s_us.p50" meth) "us" (Report.q s 0.5 /. 1e3);
    Report.set m (Printf.sprintf "handlers.%s_us.p99" meth) "us" (Report.q s 0.99 /. 1e3);
    s
  in
  let per_node meth add =
    List.iter
      (fun (sid, n) ->
        List.iter
          (fun u -> add (call meth [ ("session", Json.Str sid); ("node", Json.Int u) ]))
          (nodes_of n 16))
      ids
  in
  ignore (record "cost" (per_node "cost"));
  ignore (record "best_response" (per_node "best_response"));
  ignore
    (record "stable" (fun add ->
         List.iter (fun (sid, _) -> add (call "stable" [ ("session", Json.Str sid) ])) ids));
  ignore
    (record "step_dynamics" (fun add ->
         List.iter
           (fun (sid, _) ->
             for _ = 1 to 8 do
               add (call "step_dynamics" [ ("session", Json.Str sid); ("steps", Json.Int 1) ])
             done)
           ids));
  record "run_unit" (fun add ->
      for _ = 1 to 3 do
        List.iter (fun t -> add (call "run_unit" [ ("trial", Trial.to_json t) ])) trials
      done)
