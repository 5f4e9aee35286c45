(* P2P / overlay scenario (the paper's third motivation): every peer
   keeps a small neighbor table (out-degree k) and wants low worst-case
   latency to the rest of the swarm — the BBC-max objective of
   Section 5.

   Two designs are compared:
   1. a "regular" overlay where every peer uses the same offsets (a
      circulant / Abelian Cayley graph) — simple to deploy, but
      Theorem 5 says selfish peers will deviate from it;
   2. the equilibrium the swarm actually drifts to when peers keep
      selfishly rewiring.

   Run with:  dune exec examples/p2p_overlay.exe *)

let () =
  let n = 24 and k = 2 in
  Format.printf "overlay with %d peers, neighbor tables of size %d@.@." n k;

  (* Design 1: the classic regular overlay with offsets {1, 5}. *)
  let regular = Bbc_group.Cayley.circulant ~n ~offsets:[ 1; 5 ] in
  let instance, config = Bbc.Cayley_game.to_game regular in
  let diameter g =
    Option.value ~default:(-1) (Bbc_graph.Apsp.diameter (Bbc_graph.Apsp.compute g))
  in
  Format.printf "regular overlay (circulant {1,5}):@.";
  Format.printf "  diameter %d, max-latency social cost %d@."
    (diameter (Bbc.Config.to_graph instance config))
    (Bbc.Eval.social_cost ~objective:Max instance config);
  Format.printf "  stable under selfish rewiring: %b@."
    (Bbc.Cayley_game.is_stable regular);
  (match Bbc.Cayley_game.best_theorem5_deviation regular with
  | Some d ->
      Format.printf
        "  Theorem-5 deviation: swap offset %d for %d, cost %d -> %d@."
        d.generator
        (Bbc_group.Abelian.add regular.group d.generator d.generator)
        d.old_cost d.new_cost
  | None -> Format.printf "  (no offset-doubling deviation improves)@.");

  (* Design 2: let the peers play it out. *)
  Format.printf "@.letting peers selfishly rewire (max-latency objective)...@.";
  match
    Bbc.Dynamics.run ~objective:Max ~scheduler:Bbc.Dynamics.Round_robin
      ~max_rounds:400 instance config
  with
  | Bbc.Dynamics.Converged (eq, stats) ->
      let g = Bbc.Config.to_graph instance eq in
      Format.printf "  reached an equilibrium in %d rounds (%d rewirings)@."
        stats.rounds stats.deviations;
      Format.printf "  diameter %d, max-latency social cost %d@." (diameter g)
        (Bbc.Eval.social_cost ~objective:Max instance eq);
      Format.printf "  verified stable: %b@."
        (Bbc.Stability.is_stable ~objective:Max instance eq);
      Format.printf "  still a regular graph: %b@."
        (let offsets u =
           List.map (fun v -> (v - u + n) mod n) (Bbc.Config.targets eq u)
           |> List.sort compare
         in
         List.for_all (fun u -> offsets u = offsets 0) (List.init n Fun.id));
      Format.printf
        "@.the designer's dilemma (Section 4.2): regularity and stability \
         are incompatible —@.a stable overlay exists, but it is not the \
         symmetric design you deployed.@."
  | outcome ->
      Format.printf "  no equilibrium: %a@." Bbc.Dynamics.pp_outcome outcome;
      Format.printf
        "  (BBC-max walks may cycle; Theorem 7 shows max games can even \
         lack equilibria)@."
