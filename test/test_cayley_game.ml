module CG = Bbc.Cayley_game
module Cayley = Bbc_group.Cayley
module I = Bbc.Instance
module C = Bbc.Config

let test_to_game_shape () =
  let c = Cayley.circulant ~n:9 ~offsets:[ 1; 4 ] in
  let inst, config = CG.to_game c in
  Alcotest.(check int) "n" 9 (I.n inst);
  Alcotest.(check (option int)) "k" (Some 2) (I.uniform_k inst);
  Alcotest.(check bool) "feasible" true (C.feasible inst config);
  Alcotest.(check (list int)) "node 3's offsets" [ 4; 7 ] (C.targets config 3)

let test_directed_cycle_stable () =
  (* k=1: the directed cycle is stable (explicitly noted in the paper). *)
  let c = Cayley.circulant ~n:10 ~offsets:[ 1 ] in
  Alcotest.(check bool) "stable" true (CG.is_stable c);
  Alcotest.(check bool) "no theorem-5 deviation" false (CG.unstable_by_theorem5 c)

let test_circulant_unstable () =
  (* A k=2 circulant on a large enough ring falls to Theorem 5. *)
  let c = Cayley.circulant ~n:24 ~offsets:[ 1; 5 ] in
  Alcotest.(check bool) "theorem-5 deviation improves" true (CG.unstable_by_theorem5 c);
  Alcotest.(check bool) "not stable" false (CG.is_stable c)

let test_theorem5_deviation_is_real () =
  (* The reported deviation costs must match a direct evaluation. *)
  let c = Cayley.circulant ~n:24 ~offsets:[ 1; 5 ] in
  let inst, config = CG.to_game c in
  List.iter
    (fun (d : CG.deviation) ->
      Alcotest.(check int) "old cost" (Bbc_fuzz.Reference.node_cost inst config 0) d.old_cost;
      let a = d.generator in
      let aa = Bbc_group.Abelian.add c.group a a in
      let targets =
        List.sort_uniq compare
          (List.map (fun b -> if b = a then aa else b) c.generators)
      in
      let config' = C.with_strategy config 0 targets in
      Alcotest.(check int) "new cost" (Bbc_fuzz.Reference.node_cost inst config' 0) d.new_cost)
    (CG.theorem5_deviations c)

let test_hypercube_thm5_vacuous () =
  (* In Z_2^d every generator is an involution (a + a = 0), so the
     explicit Theorem-5 swap does not apply... *)
  let c = Cayley.hypercube 5 in
  Alcotest.(check (list unit)) "no applicable swaps" []
    (List.map ignore (CG.theorem5_deviations c))

let test_hypercube_unstable_corollary1 () =
  (* ...but Corollary 1 still holds: Q5 is not stable (full check). *)
  let c = Cayley.hypercube 5 in
  Alcotest.(check bool) "Q5 unstable" false (CG.is_stable c)

let test_torus_unstable () =
  let c = Cayley.torus 6 6 in
  Alcotest.(check bool) "6x6 torus unstable" false (CG.is_stable c)

let test_lemma8_near_complete_stable () =
  (* Lemma 8: degree k > (n-2)/2 makes any Abelian Cayley graph stable. *)
  let c = Cayley.circulant ~n:8 ~offsets:[ 1; 2; 3; 4; 5; 6; 7 ] in
  Alcotest.(check bool) "complete circulant stable" true (CG.is_stable c);
  let c2 = Cayley.circulant ~n:9 ~offsets:[ 1; 2; 3; 4 ] in
  (* k = 4 > (9-2)/2 = 3.5 *)
  Alcotest.(check bool) "k=4 on Z9 stable" true (CG.is_stable c2)

let test_small_ring_stable_below_threshold () =
  (* Theorem 5 only bites for n >= c 2^k; small circulants can be stable. *)
  let c = Cayley.circulant ~n:5 ~offsets:[ 1; 2 ] in
  Alcotest.(check bool) "small circulant stable" true (CG.is_stable c)

let test_best_deviation_ordering () =
  let c = Cayley.circulant ~n:30 ~offsets:[ 1; 3; 10 ] in
  match CG.best_theorem5_deviation c with
  | Some best ->
      List.iter
        (fun (d : CG.deviation) ->
          Alcotest.(check bool) "best dominates" true
            (best.old_cost - best.new_cost >= d.old_cost - d.new_cost))
        (CG.theorem5_deviations c)
  | None ->
      (* If no swap improves, the full check may still find instability;
         just assert the function agrees with its spec. *)
      List.iter
        (fun (d : CG.deviation) ->
          Alcotest.(check bool) "none improve" true (d.new_cost >= d.old_cost))
        (CG.theorem5_deviations c)

let suite =
  [
    Alcotest.test_case "to_game shape" `Quick test_to_game_shape;
    Alcotest.test_case "directed cycle stable (k=1)" `Quick test_directed_cycle_stable;
    Alcotest.test_case "circulant unstable (thm 5)" `Quick test_circulant_unstable;
    Alcotest.test_case "deviation costs are exact" `Quick test_theorem5_deviation_is_real;
    Alcotest.test_case "hypercube: thm-5 swap vacuous" `Quick test_hypercube_thm5_vacuous;
    Alcotest.test_case "hypercube unstable (cor 1)" `Quick test_hypercube_unstable_corollary1;
    Alcotest.test_case "torus unstable" `Quick test_torus_unstable;
    Alcotest.test_case "lemma 8: near-complete stable" `Quick test_lemma8_near_complete_stable;
    Alcotest.test_case "small circulant stable" `Quick test_small_ring_stable_below_threshold;
    Alcotest.test_case "best deviation ordering" `Quick test_best_deviation_ordering;
  ]
