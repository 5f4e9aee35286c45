(* campaign: the nightly Section-4.3 spec (nightly-campaign.yml) at fewer
   seeds per point, run in-process through Runner.run at the benchmark's
   job count, checkpointing into a fresh directory each time.  Cycle [i]
   runs the campaign seeded [seed * 1000 + i], so a run averages over
   many distinct units; the spec's grid keeps every cell equally
   represented.  Each report.json must equal Runner.report over the same
   directory. *)

module Runner = Bbc_campaign.Runner
module Spec = Bbc_campaign.Spec

let spec_json ~seed ~seeds_per_point =
  Printf.sprintf
    {|{"type":"bbc-campaign","name":"nightly-convergence","seed":%d,
       "seeds_per_point":%d,"max_rounds":200,
       "points":[
         {"generator":{"kind":"sparse","zero_pct":50,"max_weight":4},"n":12,"k":2},
         {"generator":{"kind":"sparse","zero_pct":75,"max_weight":4},"n":12,"k":2},
         {"generator":{"kind":"catalog","name":"ring"},"n":12,"k":1},
         {"generator":{"kind":"perturbed","flips":3},"n":12,"k":2}],
       "inits":["empty","random"],
       "schedulers":["round-robin","max-cost"]}|}
    seed seeds_per_point

let spec ~seed ~seeds_per_point =
  match Spec.of_string (spec_json ~seed ~seeds_per_point) with
  | Ok s -> s
  | Error e -> failwith ("campaign spec: " ^ e)

let checkpoint_every = 40

(* Share of campaign.run time outside its chunks' execution: spec
   expansion, checkpoint writes, aggregation, report rendering.  Both
   spans are on the main domain. *)
let campaign_untracked m =
  let stats = Bbc_obs.span_stats () in
  let total name =
    List.fold_left (fun a (n, _, ns) -> if n = name then a + ns else a) 0 stats
  in
  let run = total "campaign.run" in
  Report.set m "campaign.untracked_share" "ratio"
    (if run = 0 then 0. else float_of_int (run - total "campaign.chunk") /. float_of_int run)

type state = { seed : int; seeds_per_point : int; opts : Runner.opts; mutable cycles : int }

(* One campaign in a fresh directory: [Ok ()], or an error when the run
   failed or its report disagrees with Runner.report. *)
let run_once ?(plant = false) ctx st spec =
  let dir = Util.fresh_dir ctx "campaign" in
  Fun.protect
    ~finally:(fun () -> Util.rm_rf dir)
    (fun () ->
      match
        Tracer.span "runner" "run" (fun () -> Runner.run st.opts ~dir spec)
      with
      | Error e -> Error e
      | Ok o -> (
          let written = Util.read_file o.report_path in
          (* A planted fault (tests only) corrupts the report's bytes. *)
          let written = if plant then written ^ " " else written in
          match Runner.report ~dir with
          | Error e -> Error e
          | Ok r ->
              let recomputed = Bbc.Json.to_string r ^ "\n" in
              if written <> recomputed then Error "report.json differs from Runner.report"
              else if o.quarantined > 0 then Error "quarantined units"
              else Ok ()))

let run ~tiny ~plant ~corrupt (ctx : Util.ctx) =
  let seeds_per_point = if tiny then 1 else 10 in
  let setup () =
    let st =
      {
        seed = ctx.seed;
        seeds_per_point;
        opts = { Runner.default_opts with jobs = Some ctx.jobs; checkpoint_every };
        cycles = 0;
      }
    in
    (* Warm-up: spin up the domain pool and run every cell of the grid
       a few times, enough compute that the checkpoint fsyncs do not
       decide setup_s. *)
    let warm = spec ~seed:ctx.seed ~seeds_per_point:(if tiny then 1 else 4) in
    (match run_once ctx st warm with
    | Ok _ -> ()
    | Error e -> failwith ("campaign warm-up: " ^ e));
    st
  in
  let cycle_at st (t : Harness.tally) index =
    let spec = spec ~seed:((st.seed * 1000) + index) ~seeds_per_point:st.seeds_per_point in
    let ok =
      match run_once ~plant ctx st spec with
      | Ok _ -> true
      | Error e ->
          prerr_endline ("campaign: " ^ e);
          false
    in
    (* Each unit counts as one attempt. *)
    for _ = 1 to Spec.unit_count spec do
      Harness.record t ~ok
    done
  in
  let cycle st t =
    cycle_at st t st.cycles;
    st.cycles <- st.cycles + 1
  in
  (* The layers a campaign calls, on its own units: eight units spread
     over the grid of the cycle-0 campaign. *)
  let replay st m t =
    let first = spec ~seed:(st.seed * 1000) ~seeds_per_point:st.seeds_per_point in
    let trials = List.init 8 (fun i -> Spec.unit first (i * Spec.unit_count first / 8)) in
    let starts =
      List.map
        (fun t ->
          match Bbc.Trial.build t with
          | Ok g -> g
          | Error e -> failwith ("campaign unit: " ^ e))
        trials
    in
    (* Where the walks end: what best responses and cost evaluations see
       late in a unit. *)
    let finals =
      List.map2
        (fun (t : Bbc.Trial.t) (inst, cfg) ->
          ( inst,
            Bbc.Dynamics.final_config
              (Bbc.Dynamics.run ~objective:t.objective ~policy:(Bbc.Trial.policy_of t)
                 ~scheduler:(Bbc.Trial.scheduler_of t) ~max_rounds:t.max_rounds inst cfg) ))
        trials starts
    in
    Replay.dynamics m trials;
    Replay.csr m (List.map (fun (i, c) -> Bbc.Config.to_csr i c) finals);
    Replay.eval m finals;
    Replay.best_response m finals;
    Replay.incr m starts;
    let summaries =
      List.mapi
        (fun i t ->
          match Bbc.Trial.run t with
          | Ok s -> (t, s, { Bbc_campaign.Checkpoint.unit_id = i; payload = Done s })
          | Error e -> failwith ("campaign unit: " ^ e))
        trials
    in
    Replay.checkpoint_aggregate m
      ~dir:(Util.fresh_dir ctx "checkpoints")
      (List.map (fun (t, _, e) -> (Bbc.Trial.label t, e)) summaries);
    Replay.protocol m
      ~requests:
        (List.mapi
           (fun id t -> Client.request_line ~id "run_unit" [ ("trial", Bbc.Trial.to_json t) ])
           trials)
      ~replies:(List.map (fun (_, s, _) -> Bbc.Trial.summary_to_json s) summaries);
    let handler_ns = Replay.handlers m starts trials in
    Served.run ~corrupt m ctx ~trials ~handler_ns t;
    campaign_untracked m
  in
  (* Runner's chunk parallelism, on the same grid at two seeds per
     cell. *)
  let parallel st ~jobs =
    let small = spec ~seed:st.seed ~seeds_per_point:(if tiny then 1 else 2) in
    match run_once ctx { st with opts = { st.opts with jobs = Some jobs } } small with
    | Ok () -> ()
    | Error e -> failwith ("campaign pool timing: " ^ e)
  in
  Harness.run ctx
    ~counted:(fun st t -> cycle_at st t 0)
    ~setup ~cycle ~replay ~parallel
