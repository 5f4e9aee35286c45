(* The run shape every workload shares.

   Untraced (--trace 0): set up several times (median = setup_s), then
   repeat the workload's cycle for --seconds with observability off.

   Traced (--trace 1): after the same set-up, half the time untraced,
   then with spans and counters on: one fixed unit of work and the
   replays of the layers the workload calls, on its own inputs (their
   counts are read, and repeat exactly for a seed), and the rest of the
   time in traced cycles.  The two halves give obs.trace_overhead_pct. *)

type tally = {
  mutable attempted : int;
  mutable failed : int;  (** wrong or failed outputs *)
  rates : Report.samples;  (** correct items per second, per cycle *)
}

let tally () = { attempted = 0; failed = 0; rates = Report.samples () }
let correct t = t.attempted - t.failed

(* One timed cycle; its throughput joins [rates]. *)
let timed_cycle cycle st t =
  let ok0 = correct t in
  let (), ns = Util.time_ns (fun () -> cycle st t) in
  Report.add t.rates (float_of_int (correct t - ok0) /. (float_of_int ns /. 1e9))

let record t ~ok =
  t.attempted <- t.attempted + 1;
  if not ok then t.failed <- t.failed + 1

let setup_rounds = 5

let ok_frac ~attempted ~failed = float_of_int (attempted - failed) /. float_of_int attempted

(* Counters the library already keeps, read after the counted cycle and
   the replays (they repeat exactly for a seed). *)
let counters m =
  let c = Tracer.counter in
  let ratio a b = if b = 0 then 0. else float_of_int a /. float_of_int b in
  Report.set m "workspace.acquires" "count" (float_of_int (c "workspace.acquires"));
  Report.set m "workspace.row_allocs" "count" (float_of_int (c "workspace.row_allocs"));
  Report.set m "eval.sssp" "count" (float_of_int (c "eval.sssp"));
  Report.set m "best_response.subsets" "count" (float_of_int (c "best_response.subsets"));
  Report.set m "best_response.improving_ratio" "ratio"
    (ratio (c "dynamics.deviations") (c "dynamics.activations"));
  let hits = c "incr.cost_cache_hits" in
  Report.set m "incr.cost_cache_hit_ratio" "ratio" (ratio hits (hits + c "incr.cost_cache_misses"));
  Report.set m "incremental.repairs" "count" (float_of_int (c "incremental.repairs"));
  Report.set m "incremental.full_sssp" "count" (float_of_int (c "incremental.full_sssp"));
  Report.set m "exhaustive.profiles" "count" (float_of_int (c "exhaustive.profiles"));
  Report.set m "exhaustive.pruned_prefixes" "count" (float_of_int (c "exhaustive.pruned_prefixes"));
  Report.set m "dynamics.activations" "count" (float_of_int (c "dynamics.activations"));
  Report.set m "dynamics.deviations" "count" (float_of_int (c "dynamics.deviations"));
  Report.set m "pool.tasks" "count" (float_of_int (c "pool.tasks"));
  Report.set m "pool.wait_ns" "ns" (float_of_int (Tracer.histogram_sum "pool.wait_ns"))

let layer_metrics m (s : Tracer.summary) =
  List.iter
    (fun (layer, ns) -> Report.set m ("layer." ^ layer ^ ".self_ms") "ms" (ns /. 1e6))
    s.self_ns;
  Report.set m "untracked_ms" "ms" (s.untracked_ns /. 1e6);
  Report.set m "trace.wall_ms" "ms" (Util.ms_of_ns s.wall_ns)

let overhead m ~untraced_rate ~traced_rate =
  Report.set m "obs.trace_overhead_pct" "%" ((untraced_rate /. traced_rate -. 1.) *. 100.)

(* [counted] is one fixed unit of the workload's work whose counter
   deltas are reported; it defaults to a cycle.  [replay] runs the
   workload's layer replays (Replay) and records any outputs it checks
   in the tally it is given.  [parallel ~jobs] is the workload's own use
   of the domain pool, timed for pool.efficiency. *)
let run ?counted (ctx : Util.ctx) ~setup ~cycle ~replay ~parallel =
  let st, setup_s = Util.repeated_setup ~times:setup_rounds setup in
  let m = Report.create () in
  let t = tally () in
  if not ctx.trace then begin
    Util.repeat_for ~seconds:ctx.seconds (fun () -> timed_cycle cycle st t);
    Report.set m "setup_s" "s" setup_s;
    Report.set m "ok_frac" "ratio" (ok_frac ~attempted:t.attempted ~failed:t.failed);
    Report.set m "peak_rss_mb" "MB" (Util.peak_rss_mb ());
    (* The median cycle resists bursts of load from outside the run. *)
    Report.set m "ops_per_s" "1/s" (Report.q t.rates 0.5);
    Printf.printf "{\"cycles\":%d,\"ops_per_s\":{\"min\":%g,\"q1\":%g,\"median\":%g,\"q3\":%g,\"max\":%g}}\n"
      t.rates.count (Report.q t.rates 0.) (Report.q t.rates 0.25) (Report.q t.rates 0.5)
      (Report.q t.rates 0.75) (Report.q t.rates 1.);
    (t.attempted, t.failed, m)
  end
  else begin
    let half = ctx.seconds /. 2. in
    Util.repeat_for ~seconds:half (fun () -> timed_cycle cycle st t);
    let untraced_rate = Report.q t.rates 0.5 in
    (* Before tracing starts: the events a traced run holds make
       each garbage collection, which OCaml shares among the running
       domains, longer, and would overstate the speed-up. *)
    Replay.pool m ~jobs:ctx.jobs (parallel st);
    Tracer.start ();
    (match counted with Some f -> f st t | None -> cycle st t);
    replay st m t;
    counters m;
    let traced = tally () in
    Util.repeat_for ~seconds:half (fun () -> timed_cycle cycle st traced);
    let traced_rate = Report.q traced.rates 0.5 in
    layer_metrics m (Tracer.finish ());
    overhead m ~untraced_rate ~traced_rate;
    (* Layers the workload does not call read 0. *)
    Report.fill_missing m;
    (t.attempted + traced.attempted, t.failed + traced.failed, m)
  end
