(* The served replay of the campaign workload.

   The campaign's own units go to `bbc_cli serve --tcp` (its own process,
   default settings, one worker) as stateless [run_unit] requests, the
   traffic `bbc campaign run --via-server` sends.  Arrivals are seeded
   Poisson in an open loop over ctx.jobs pipelined connections, at two
   fixed rates set from the run_unit handler time measured in-process
   on the same units just before: half and four fifths of what one
   worker can serve.  Every answer must equal a local Trial.run of the
   same unit.  A generator that runs late makes the run invalid, so a
   stalled generator cannot pass for a fast server. *)

module Json = Bbc.Json

(* Offered load as a share of one worker's capacity. *)
let nominal_load = 0.5
let peak_load = 0.8

(* The generator may run this far behind its schedule (p99) before the
   served replay is declared invalid. *)
let late_limit_ms = 20.

(* Requests for [trials], picked uniformly by [rng]; each answer must
   equal the local summary. *)
let requests ~rng trials =
  let units =
    Array.of_list
      (List.map
         (fun t ->
           match Bbc.Trial.run t with
           | Ok s -> (Bbc.Trial.to_json t, Json.to_string (Bbc.Trial.summary_to_json s))
           | Error e -> failwith ("trial: " ^ e))
         trials)
  in
  fun (_ : int) ->
    let trial, expected = Bbc_prng.Splitmix.choose rng units in
    {
      Client.meth = "run_unit";
      params = [ ("trial", trial) ];
      check = (fun r -> Json.to_string r = expected);
    }

(* [handler_ns]: in-process run_unit times on the same units.
   [corrupt] (tests only) garbles one reply. *)
let run ?(corrupt = false) m (ctx : Util.ctx) ~trials ~(handler_ns : Report.samples)
    (t : Harness.tally) =
  let dir = Util.fresh_dir ctx "served" in
  let server = Client.spawn ~exe:ctx.server_exe ~dir in
  Fun.protect
    ~finally:(fun () ->
      Client.stop server;
      Util.rm_rf dir)
    (fun () ->
      let c = Client.connect server in
      let rtt_us = Client.rtt_us c ~count:50 in
      let before = Client.stats c in
      let rng = Bbc_prng.Splitmix.create ctx.seed in
      let next = requests ~rng trials in
      let service_s =
        Array.fold_left ( +. ) 0. (Report.to_array handler_ns)
        /. float_of_int handler_ns.count /. 1e9
      in
      let step load =
        Client.open_loop ~corrupt ~server ~conns:ctx.jobs ~rng ~rate:(load /. service_s)
          ~seconds:1.0 next
      in
      let nominal = step nominal_load in
      let peak = step peak_load in
      let after = Client.stats c in
      Client.close c;
      let late = Util.quantile 0.99 (Array.append nominal.late_ms peak.late_ms) in
      if late > late_limit_ms then
        failwith
          (Printf.sprintf "served replay invalid: the load generator ran %.1f ms late (p99)" late);
      let served0, batches0, over0, tmo0 = before and served1, batches1, over1, tmo1 = after in
      Report.set m "engine.batch_size" "count"
        (float_of_int (served1 - served0) /. float_of_int (max 1 (batches1 - batches0)));
      (* Time queued in the server: client latency minus handler time
         minus the network round trip, medians at the nominal rate. *)
      Report.set m "engine.queue_wait_ms" "ms"
        (Util.median nominal.latency_ms -. (Report.q handler_ns 0.5 /. 1e6) -. (rtt_us /. 1e3));
      Report.set m "net.rtt_us" "us" rtt_us;
      Report.set m "server.overloaded" "count" (float_of_int (over1 - over0));
      Report.set m "server.timeouts" "count" (float_of_int (tmo1 - tmo0));
      Report.set m "loadgen.late_ms" "ms" late;
      Report.set m "served.p50_ms" "ms" (Util.median nominal.latency_ms);
      Report.set m "served.p99_ms" "ms" (Util.quantile 0.99 nominal.latency_ms);
      Report.set m "served.p99_peak_ms" "ms" (Util.quantile 0.99 peak.latency_ms);
      t.attempted <- t.attempted + nominal.sent + peak.sent;
      t.failed <- t.failed + nominal.failed + peak.failed)
