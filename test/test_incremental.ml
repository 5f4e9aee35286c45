(* Differential tests for the incremental evaluation engine: every
   result must be bit-identical to the from-scratch reference pipeline
   (same costs, same strategies, same dynamics traces), across random
   instances, random move sequences, both objectives, and any job
   count. *)

module Splitmix = Bbc_prng.Splitmix
module Digraph = Bbc_graph.Digraph
module Ref = Bbc_fuzz.Reference
module Incremental = Bbc_graph.Incremental
module Generators = Bbc_graph.Generators
module I = Bbc.Instance
module C = Bbc.Config
module BR = Bbc.Best_response
module D = Bbc.Dynamics

let objectives = [ Bbc.Objective.Sum; Bbc.Objective.Max ]

(* ---------------------------------------------------------------- *)
(* Layer 1: the dynamic SSSP structure against Reference.shortest.    *)

(* A plain mutable out-edge table we can replay into a Digraph for the
   oracle after every mutation. *)
let to_digraph n out =
  let g = Digraph.create n in
  Array.iteri (fun u es -> List.iter (fun (v, len) -> Digraph.add_edge g u v len) es) out;
  g

let random_out_edges rng n ~max_deg ~max_len u =
  let deg = Splitmix.int rng (max_deg + 1) in
  let targets = Splitmix.sample_without_replacement rng deg n in
  List.filter_map
    (fun v ->
      if v = u then None else Some (v, 1 + Splitmix.int rng max_len))
    targets

let check_sssp_matches ~msg n out ssps =
  let g = to_digraph n out in
  List.iter
    (fun s ->
      let fresh = Ref.shortest g (Incremental.source s) in
      Alcotest.(check (array int))
        (Printf.sprintf "%s (src %d)" msg (Incremental.source s))
        fresh
        (Array.copy (Incremental.distances s));
      Alcotest.(check bool) "well formed" true (Incremental.well_formed s))
    ssps

let test_repair_matches_fresh () =
  let rng = Splitmix.create 42 in
  List.iter
    (fun (n, max_deg, max_len) ->
      let out = Array.init n (fun u -> random_out_edges rng n ~max_deg ~max_len u) in
      let mirror = Incremental.of_digraph (to_digraph n out) in
      let sources = [ 0; n / 2; n - 1 ] in
      let ssps = List.map (Incremental.create mirror) sources in
      check_sssp_matches ~msg:"initial" n out ssps;
      for _step = 1 to 30 do
        let u = Splitmix.int rng n in
        let es = random_out_edges rng n ~max_deg ~max_len u in
        let old = Incremental.replace_out mirror u es in
        let removed = List.filter (fun e -> not (List.mem e es)) old in
        let added = List.filter (fun e -> not (List.mem e old)) es in
        List.iter
          (fun s -> ignore (Incremental.repair s ~u ~removed ~added))
          ssps;
        out.(u) <- es;
        check_sssp_matches ~msg:"after repair" n out ssps
      done)
    [ (12, 2, 1); (20, 3, 4); (30, 1, 1) ]

(* ---------------------------------------------------------------- *)
(* Random feasible configurations for arbitrary instances.            *)

let random_config rng instance =
  let n = I.n instance in
  C.of_lists n
    (Array.init n (fun u ->
         let candidates = Array.of_list (BR.candidate_targets instance u) in
         Splitmix.shuffle rng candidates;
         let budget = ref (I.budget instance u) in
         let chosen = ref [] in
         Array.iter
           (fun v ->
             let c = I.cost instance u v in
             if c <= !budget && Splitmix.bool rng then begin
               budget := !budget - c;
               chosen := v :: !chosen
             end)
           candidates;
         !chosen))

(* Instance zoo: uniform k=1 (analytic path), uniform k=2 (context-free
   rows), and one of each non-uniform generator (context-free or
   threshold rows depending on the realized out-degrees). *)
let instances rng =
  [
    ("uniform k1", I.uniform ~n:14 ~k:1);
    ("uniform k2", I.uniform ~n:10 ~k:2);
    ("random costs", Bbc.Gen_instance.random_costs rng ~n:9 ~k:3 ());
    ("sparse weights", Bbc.Gen_instance.sparse_weights rng ~n:9 ~k:2 ());
    ("metric lengths", Bbc.Gen_instance.metric_lengths rng ~n:8 ~k:2 ());
    ("random budgets", Bbc.Gen_instance.random_budgets rng ~n:9 ~max_budget:3);
  ]

(* ---------------------------------------------------------------- *)
(* Layer 2: context costs and best responses against the oracle.      *)

let test_node_costs_match () =
  let rng = Splitmix.create 11 in
  List.iter
    (fun (name, instance) ->
      let n = I.n instance in
      let config = ref (random_config rng instance) in
      let ctx = Bbc.Incr.create instance !config in
      List.iter
        (fun objective ->
          for _round = 0 to 2 do
            for u = 0 to n - 1 do
              Alcotest.(check int)
                (Printf.sprintf "%s: node %d cost" name u)
                (Ref.node_cost ~objective instance !config u)
                (Bbc.Incr.node_cost ~objective ctx u)
            done;
            (* Mutate one random player and re-check through the same
               context (exercises repair + cache invalidation). *)
            let u = Splitmix.int rng n in
            let next = C.with_strategy !config u (C.targets (random_config rng instance) u) in
            config := next;
            Bbc.Incr.ensure ctx next
          done)
        objectives)
    (instances rng)

let test_best_responses_match () =
  let rng = Splitmix.create 23 in
  List.iter
    (fun (name, instance) ->
      let n = I.n instance in
      List.iter
        (fun objective ->
          for _rep = 0 to 2 do
            let config = random_config rng instance in
            let ctx = Bbc.Incr.create instance config in
            for u = 0 to n - 1 do
              let ex_s = BR.exact ~objective instance config u in
              let ex_i = BR.exact ~objective ~ctx instance config u in
              Alcotest.(check (pair (list int) int))
                (Printf.sprintf "%s: exact %d" name u)
                (ex_s.strategy, ex_s.cost)
                (ex_i.strategy, ex_i.cost);
              let imp_s = BR.improving ~objective instance config u in
              let imp_i = BR.improving ~objective ~ctx instance config u in
              Alcotest.(check (option (pair (list int) int)))
                (Printf.sprintf "%s: improving %d" name u)
                (Option.map (fun (r : BR.result) -> (r.strategy, r.cost)) imp_s)
                (Option.map (fun (r : BR.result) -> (r.strategy, r.cost)) imp_i);
              let gr_s = BR.greedy ~objective instance config u in
              let gr_i = BR.greedy ~objective ~ctx instance config u in
              Alcotest.(check (pair (list int) int))
                (Printf.sprintf "%s: greedy %d" name u)
                (gr_s.strategy, gr_s.cost)
                (gr_i.strategy, gr_i.cost)
            done
          done)
        objectives)
    (instances rng)

let test_all_best_match () =
  let rng = Splitmix.create 31 in
  List.iter
    (fun (name, instance) ->
      let config = random_config rng instance in
      let ctx = Bbc.Incr.create instance config in
      for u = 0 to I.n instance - 1 do
        let project = List.map (fun (r : BR.result) -> (r.strategy, r.cost)) in
        Alcotest.(check (list (pair (list int) int)))
          (Printf.sprintf "%s: all_best %d" name u)
          (project (BR.all_best instance config u))
          (project (BR.all_best ~ctx instance config u))
      done)
    (instances rng)

(* Best responses must leave the context exactly as they found it:
   same distances, same cached costs. *)
let test_context_preserved () =
  let rng = Splitmix.create 5 in
  let instance = I.uniform ~n:9 ~k:2 in
  let config = random_config rng instance in
  let ctx = Bbc.Incr.create instance config in
  let n = I.n instance in
  let before = Array.init n (fun v -> Array.copy (Bbc.Incr.distances_from ctx v)) in
  for u = 0 to n - 1 do
    ignore (BR.exact ~ctx instance config u)
  done;
  for v = 0 to n - 1 do
    Alcotest.(check (array int))
      (Printf.sprintf "distances from %d unchanged" v)
      before.(v)
      (Array.copy (Bbc.Incr.distances_from ctx v));
    Alcotest.(check int)
      (Printf.sprintf "cost of %d unchanged" v)
      (Ref.node_cost instance config v)
      (Bbc.Incr.node_cost ctx v)
  done

(* ---------------------------------------------------------------- *)
(* Layer 3: stability and dynamics differentials.                     *)

(* The context engine against the context-free from-scratch scan, on
   the calling domain and on the pool. *)
let test_stability_matches () =
  let rng = Splitmix.create 47 in
  List.iter
    (fun (name, instance) ->
      List.iter
        (fun objective ->
          let config = random_config rng instance in
          let ctx () = Bbc.Incr.create instance config in
          let project (d : Bbc.Stability.deviation option) =
            Option.map
              (fun (d : Bbc.Stability.deviation) ->
                (d.node, d.current_cost, d.better.strategy, d.better.cost))
              d
          in
          List.iter
            (fun jobs ->
              let label what = Printf.sprintf "%s: %s (jobs=%d)" name what jobs in
              Alcotest.(check bool)
                (label "is_stable")
                (Bbc.Stability.is_stable ~objective ~ctx:(ctx ()) instance config)
                (Bbc.Stability.is_stable ~objective ~jobs instance config);
              Alcotest.(check bool)
                (label "find_deviation")
                true
                (project (Bbc.Stability.find_deviation ~objective ~ctx:(ctx ()) instance config)
                = project (Bbc.Stability.find_deviation ~objective ~jobs instance config));
              Alcotest.(check (list int))
                (label "unstable_nodes")
                (Bbc.Stability.unstable_nodes ~objective ~ctx:(ctx ()) instance config)
                (Bbc.Stability.unstable_nodes ~objective ~jobs instance config);
              Alcotest.(check int)
                (label "stability_gap")
                (Bbc.Stability.stability_gap ~objective ~ctx:(ctx ()) instance config)
                (Bbc.Stability.stability_gap ~objective ~jobs instance config))
            [ 1; 2 ])
        objectives)
    (instances rng)

let record_trace ?policy ?objective ~incremental ~scheduler ~max_rounds instance config =
  let steps = ref [] in
  let outcome =
    D.run ?policy ?objective ~incremental
      ~on_step:(fun (s : D.step) ->
        steps := (s.index, s.round, s.node, s.moved, s.strategy, s.cost_after) :: !steps)
      ~scheduler ~max_rounds instance config
  in
  (List.rev !steps, outcome)

let check_same_run ~msg (steps_s, outcome_s) (steps_i, outcome_i) =
  Alcotest.(check bool) (msg ^ ": identical step streams") true (steps_s = steps_i);
  Alcotest.(check bool)
    (msg ^ ": identical final configs")
    true
    (C.equal (D.final_config outcome_s) (D.final_config outcome_i));
  let st (o : D.outcome) =
    let s = D.stats o in
    let kind =
      match o with
      | D.Converged _ -> "converged"
      | D.Cycled { period; _ } -> "cycled-" ^ string_of_int period
      | D.Exhausted _ -> "exhausted"
    in
    (kind, s.rounds, s.steps, s.deviations)
  in
  Alcotest.(check bool) (msg ^ ": identical outcomes") true (st outcome_s = st outcome_i)

let test_dynamics_traces_match () =
  let cases =
    [
      ("ring-path", Bbc.Constructions.ring_with_path ~ring:12 ~path:5);
      ("loop7", Bbc.Constructions.best_response_loop ());
      ( "random k2",
        (let inst = I.uniform ~n:8 ~k:2 in
         ( inst,
           C.of_graph (Generators.random_k_out (Splitmix.create 3) ~n:8 ~k:2) )) );
      ( "random costs",
        (let rng = Splitmix.create 13 in
         let inst = Bbc.Gen_instance.random_costs rng ~n:8 ~k:3 () in
         (inst, random_config rng inst)) );
    ]
  in
  List.iter
    (fun (name, (instance, config)) ->
      List.iter
        (fun (sched_name, scheduler) ->
          List.iter
            (fun policy ->
              let msg = Printf.sprintf "%s/%s" name sched_name in
              let scratch =
                record_trace ~policy ~incremental:false ~scheduler ~max_rounds:40
                  instance config
              in
              let incr =
                record_trace ~policy ~incremental:true ~scheduler ~max_rounds:40
                  instance config
              in
              check_same_run ~msg scratch incr)
            [ D.Exact_best_response; D.First_improvement ])
        [
          ("round-robin", D.Round_robin);
          ("random-order", D.Random_order 9);
          ("max-cost", D.Max_cost_first);
        ])
    cases

let test_dynamics_jobs_invariant () =
  (* The incremental engine is sequential by construction; the scratch
     engine fans over the pool.  Every combination must agree. *)
  let instance, config = Bbc.Constructions.ring_with_path ~ring:10 ~path:4 in
  let runs =
    List.concat_map
      (fun incremental ->
        List.map
          (fun jobs ->
            Bbc_parallel.set_default_jobs jobs;
            record_trace ~incremental ~scheduler:D.Max_cost_first ~max_rounds:400
              instance config)
          [ 1; 4 ])
      [ false; true ]
  in
  Bbc_parallel.set_default_jobs 1;
  match runs with
  | first :: rest ->
      List.iteri
        (fun i other ->
          check_same_run ~msg:(Printf.sprintf "combination %d" (i + 1)) first other)
        rest
  | [] -> assert false

let suite =
  [
    Alcotest.test_case "repair matches fresh SSSP" `Quick test_repair_matches_fresh;
    Alcotest.test_case "node costs match oracle" `Quick test_node_costs_match;
    Alcotest.test_case "best responses match oracle" `Quick test_best_responses_match;
    Alcotest.test_case "all_best matches oracle" `Quick test_all_best_match;
    Alcotest.test_case "mask roundtrip preserves context" `Quick test_context_preserved;
    Alcotest.test_case "stability matches oracle" `Quick test_stability_matches;
    Alcotest.test_case "dynamics traces bit-identical" `Quick test_dynamics_traces_match;
    Alcotest.test_case "dynamics jobs-invariant" `Quick test_dynamics_jobs_invariant;
  ]
