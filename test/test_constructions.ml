module Cons = Bbc.Constructions
module I = Bbc.Instance
module C = Bbc.Config
module E = Bbc.Eval

let test_ring_with_path_shape () =
  let inst, config = Cons.ring_with_path ~ring:6 ~path:3 in
  Alcotest.(check int) "n" 9 (I.n inst);
  Alcotest.(check (option int)) "k = 1" (Some 1) (I.uniform_k inst);
  Alcotest.(check (list int)) "ring edge" [ 1 ] (C.targets config 0);
  Alcotest.(check (list int)) "ring wrap" [ 0 ] (C.targets config 5);
  Alcotest.(check (list int)) "path start" [ 7 ] (C.targets config 6);
  Alcotest.(check (list int)) "path joins ring" [ 0 ] (C.targets config 8);
  Alcotest.(check int) "tail id" 6 (Cons.ring_with_path_tail ~ring:6)

let test_ring_with_path_tail_reaches_all () =
  let inst, config = Cons.ring_with_path ~ring:6 ~path:3 in
  let g = C.to_graph inst config in
  Alcotest.(check int) "tail reaches everyone" 9
    (Bbc_fuzz.Reference.reach g (Cons.ring_with_path_tail ~ring:6));
  Alcotest.(check bool) "but not strongly connected" false
    (Bbc_graph.Scc.is_strongly_connected g)

let test_loop_config_is_well_formed () =
  let inst, config = Cons.best_response_loop () in
  Alcotest.(check int) "n = 7" 7 (I.n inst);
  Alcotest.(check (option int)) "k = 2" (Some 2) (I.uniform_k inst);
  Alcotest.(check bool) "feasible" true (C.feasible inst config);
  (* Node costs sit in the 10..12 band shown in Figure 4. *)
  Array.iter
    (fun c -> Alcotest.(check bool) "cost in band" true (c >= 10 && c <= 12))
    (E.all_costs inst config)

let test_loop_is_strongly_connected () =
  let inst, config = Cons.best_response_loop () in
  Alcotest.(check bool) "strongly connected" true
    (Bbc_graph.Scc.is_strongly_connected (C.to_graph inst config))

let test_max_anarchy_shape () =
  let inst, config = Cons.max_anarchy ~k:3 ~l:4 in
  Alcotest.(check int) "n = 1 + (2k-1) l" 21 (I.n inst);
  Alcotest.(check bool) "feasible" true (C.feasible inst config);
  Alcotest.(check int) "root degree k" 3 (C.strategy_size config 0);
  let heads = Cons.max_anarchy_heads ~k:3 ~l:4 in
  Alcotest.(check int) "k heads" 3 (List.length heads);
  Alcotest.(check bool) "root is a head" true (List.mem 0 heads)

let test_max_anarchy_stable_under_max () =
  List.iter
    (fun (k, l) ->
      let inst, config = Cons.max_anarchy ~k ~l in
      Alcotest.(check bool)
        (Printf.sprintf "k=%d l=%d stable under Max" k l)
        true
        (Bbc.Stability.is_stable ~objective:Max inst config))
    [ (3, 4); (3, 6); (4, 5) ]

let test_max_anarchy_cost_is_high () =
  let k = 3 and l = 6 in
  let inst, config = Cons.max_anarchy ~k ~l in
  let n = I.n inst in
  let social = E.social_cost ~objective:Max inst config in
  (* Theorem 8: Omega(n^2 / k) total max-cost; the optimum is O(n log n). *)
  Alcotest.(check bool) "social max-cost is Omega(n l)" true (social >= n * l / 2)

let test_max_anarchy_k2_seed () =
  let inst, seed = Cons.max_anarchy_seed_k2 ~l:4 in
  Alcotest.(check int) "n" 13 (I.n inst);
  Alcotest.(check bool) "feasible" true (C.feasible inst seed)

let test_max_anarchy_equilibrium_k2 () =
  match Cons.max_anarchy_equilibrium ~k:2 ~l:4 with
  | Some (inst, config) ->
      Alcotest.(check bool) "verified NE" true
        (Bbc.Stability.is_stable ~objective:Max inst config)
  | None -> Alcotest.fail "k=2 relaxation should converge"

let test_max_anarchy_equilibrium_k3 () =
  match Cons.max_anarchy_equilibrium ~k:3 ~l:4 with
  | Some (inst, config) ->
      Alcotest.(check bool) "construction itself" true
        (Bbc.Stability.is_stable ~objective:Max inst config)
  | None -> Alcotest.fail "k=3 construction should verify"

let test_validation () =
  let expect_invalid f =
    Alcotest.(check bool) "rejected" true
      (try
         ignore (f ());
         false
       with Invalid_argument _ -> true)
  in
  expect_invalid (fun () -> Cons.ring_with_path ~ring:1 ~path:2);
  expect_invalid (fun () -> Cons.ring_with_path ~ring:3 ~path:0);
  expect_invalid (fun () -> Cons.max_anarchy ~k:2 ~l:5);
  expect_invalid (fun () -> Cons.max_anarchy ~k:3 ~l:2)

let suite =
  [
    Alcotest.test_case "ring+path shape" `Quick test_ring_with_path_shape;
    Alcotest.test_case "ring+path reach" `Quick test_ring_with_path_tail_reaches_all;
    Alcotest.test_case "loop config well-formed" `Quick test_loop_config_is_well_formed;
    Alcotest.test_case "loop strongly connected" `Quick test_loop_is_strongly_connected;
    Alcotest.test_case "max-anarchy shape" `Quick test_max_anarchy_shape;
    Alcotest.test_case "max-anarchy stable (Max)" `Quick test_max_anarchy_stable_under_max;
    Alcotest.test_case "max-anarchy cost high" `Quick test_max_anarchy_cost_is_high;
    Alcotest.test_case "k=2 seed" `Quick test_max_anarchy_k2_seed;
    Alcotest.test_case "k=2 equilibrium via relaxation" `Quick test_max_anarchy_equilibrium_k2;
    Alcotest.test_case "k=3 equilibrium direct" `Quick test_max_anarchy_equilibrium_k3;
    Alcotest.test_case "validation" `Quick test_validation;
  ]
