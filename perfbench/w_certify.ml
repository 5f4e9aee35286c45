(* certify: a fixed, seeded list of the paper's certificates, at the
   default job count and engine.

   Full scans: stable Forests of Willows (k = 2, h = 3 and 4; Lemma 6),
   the Theorem-8 max-anarchy equilibrium under Max, and a converged
   profile of a Gen_instance.metric_lengths instance (weighted lengths,
   so the Dijkstra path runs).  Early exits: Theorem-5 Cayley circulants
   and random k-out profiles, whose first deviation is re-evaluated to
   confirm it improves.  Exhaustive search: the E1 five-node core has no
   pure equilibrium (Theorem 1).  One metric-length social cost is
   checked against Floyd-Warshall. *)

open Bbc

type check =
  | Stable of Objective.t  (** is_stable must hold *)
  | Unstable  (** find_deviation must return a genuine improvement *)
  | No_equilibrium  (** has_equilibrium = Some false, count = Some 0 *)
  | Social_cost of int  (** Eval.social_cost must equal this *)

type cert = { name : string; inst : Instance.t; cfg : Config.t; check : check }

let improving inst cfg (d : Stability.deviation) =
  d.current_cost = Eval.node_cost inst cfg d.node
  && d.better.cost < d.current_cost
  && Eval.node_cost inst (Config.with_strategy cfg d.node d.better.strategy) d.node
     = d.better.cost

(* Reference social cost from all-pairs Floyd-Warshall distances. *)
let floyd_social_cost inst cfg =
  let apsp = Bbc_graph.Apsp.floyd_warshall (Config.to_graph inst cfg) in
  let n = Instance.n inst in
  let total = ref 0 in
  for u = 0 to n - 1 do
    for v = 0 to n - 1 do
      if u <> v then begin
        let d = Bbc_graph.Apsp.distance apsp u v in
        let d = if d = Bbc_graph.Paths.unreachable then Instance.penalty inst else d in
        total := !total + (Instance.weight inst u v * d)
      end
    done
  done;
  !total

(* A metric-length instance and a profile best-response dynamics
   converged to: sub-seeds are tried in order until a walk converges. *)
let metric_equilibrium ~seed ~n =
  let rec attempt i =
    let rng = Bbc_prng.Splitmix.create ((seed * 7919) + i) in
    let inst = Gen_instance.metric_lengths rng ~n ~k:2 () in
    let start = Config.of_graph (Bbc_graph.Generators.random_k_out rng ~n ~k:2) in
    match Dynamics.run ~scheduler:Dynamics.Round_robin ~max_rounds:50 inst start with
    | Dynamics.Converged (cfg, _) -> (inst, start, cfg)
    | _ -> attempt (i + 1)
  in
  attempt 0

let certificates ~tiny ~seed =
  let willows k h l = Willows.build { Willows.k; h; l } in
  let rng = Bbc_prng.Splitmix.create seed in
  let w3 = if tiny then willows 2 3 0 else willows 2 3 4 in
  let w4 = if tiny then willows 2 4 0 else willows 2 4 2 in
  let anarchy =
    match Constructions.max_anarchy_equilibrium ~k:3 ~l:(if tiny then 3 else 8) with
    | Some g -> g
    | None -> failwith "max-anarchy equilibrium not verified"
  in
  let metric_inst, metric_start, metric_eq = metric_equilibrium ~seed ~n:(if tiny then 16 else 32) in
  let circulants =
    List.init 4 (fun i ->
        let n = if i mod 2 = 0 then 128 else 256 in
        let inst, cfg = Cayley_game.to_game (Bbc_group.Cayley.random_circulant rng ~n ~k:3) in
        { name = Printf.sprintf "circulant-%d" i; inst; cfg; check = Unstable })
  in
  let random_profiles =
    List.init 4 (fun i ->
        let n = if i mod 2 = 0 then 64 else 128 and k = 2 + (i mod 2) in
        let g = Bbc_graph.Generators.random_k_out rng ~n ~k in
        { name = Printf.sprintf "random-%d" i; inst = Instance.uniform ~n ~k; cfg = Config.of_graph g; check = Unstable })
  in
  let core = Gadget.core () in
  [
    { name = "willows-h3"; inst = fst w3; cfg = snd w3; check = Stable Objective.Sum };
    { name = "willows-h4"; inst = fst w4; cfg = snd w4; check = Stable Objective.Sum };
    { name = "max-anarchy"; inst = fst anarchy; cfg = snd anarchy; check = Stable Objective.Max };
    { name = "metric-equilibrium"; inst = metric_inst; cfg = metric_eq; check = Stable Objective.Sum };
    { name = "metric-start"; inst = metric_inst; cfg = metric_start; check = Unstable };
    {
      name = "metric-social-cost";
      inst = metric_inst;
      cfg = metric_start;
      check = Social_cost (floyd_social_cost metric_inst metric_start);
    };
    { name = "e1-core"; inst = core; cfg = Config.empty (Instance.n core); check = No_equilibrium };
  ]
  @ circulants @ random_profiles

let core certs = List.find (fun c -> c.check = No_equilibrium) certs

(* Run one certificate through the library; true when the verdict
   matches the paper's claim.  [flip] (tests only) inverts it. *)
let certify ~flip c =
  let verdict =
    match c.check with
    | Stable objective ->
        Tracer.span "stability" "is_stable" (fun () -> Stability.is_stable ~objective c.inst c.cfg)
    | Unstable -> (
        match Tracer.span "stability" "find_deviation" (fun () -> Stability.find_deviation c.inst c.cfg) with
        | Some d -> improving c.inst c.cfg d
        | None -> false)
    | No_equilibrium ->
        Tracer.span "exhaustive" "has_equilibrium" (fun () -> Exhaustive.has_equilibrium c.inst)
        = Some false
        && Tracer.span "exhaustive" "count_equilibria" (fun () -> Exhaustive.count_equilibria c.inst)
           = Some 0
    | Social_cost expected ->
        Tracer.span "eval" "social_cost" (fun () -> Eval.social_cost c.inst c.cfg) = expected
  in
  verdict <> flip

let run ~tiny ~plant (ctx : Util.ctx) =
  let setup () =
    let certs = Array.of_list (certificates ~tiny ~seed:ctx.seed) in
    (* Warm-up: every certificate once except the two Willows scans,
       which take most of a cycle and set nothing up. *)
    Array.iter
      (fun c -> if not (String.starts_with ~prefix:"willows" c.name) then ignore (certify ~flip:false c))
      certs;
    certs
  in
  let cycle certs t =
    Array.iteri
      (fun i c ->
        let ok = certify ~flip:(plant && i = 0) c in
        if not ok then prerr_endline ("certify: wrong verdict on " ^ c.name);
        Harness.record t ~ok)
      certs
  in
  (* The layers certification calls, on the certificates themselves. *)
  let replay certs m _ =
    let certs = Array.to_list certs in
    let profiles =
      List.filter_map
        (fun c -> if c.check = No_equilibrium then None else Some (c.inst, c.cfg))
        certs
    in
    Replay.csr m (List.map (fun (i, c) -> Config.to_csr i c) profiles);
    Replay.eval m profiles;
    (* Best responses at the nodes of the stable certificates: the calls
       a full stability scan makes. *)
    Replay.best_response m
      (List.filter_map
         (fun c -> match c.check with Stable _ -> Some (c.inst, c.cfg) | _ -> None)
         certs);
    Replay.stability m
      (List.filter_map
         (fun c ->
           match c.check with
           | Stable objective -> Some (objective, c.inst, c.cfg)
           | Unstable -> Some (Objective.Sum, c.inst, c.cfg)
           | _ -> None)
         certs);
    Replay.exhaustive m (core certs).inst
  in
  (* The exhaustive search is what certification runs on the pool; ten
     searches per timing, as one takes only milliseconds. *)
  let parallel certs ~jobs =
    for _ = 1 to 10 do
      ignore (Exhaustive.count_equilibria ~jobs (core (Array.to_list certs)).inst)
    done
  in
  Harness.run ctx ~setup ~cycle ~replay ~parallel
