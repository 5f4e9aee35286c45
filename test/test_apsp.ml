module A = Bbc_graph.Apsp
module D = Bbc_graph.Digraph
module R = Bbc_fuzz.Reference
module G = Bbc_graph.Generators
module SM = Bbc_prng.Splitmix

let unreachable = Bbc_graph.Paths.unreachable

let test_matches_dijkstra_random () =
  let rng = SM.create 31 in
  for _ = 1 to 15 do
    let g = G.gnp rng ~n:20 ~p:0.15 in
    (* Randomize lengths to exercise the weighted path. *)
    D.iter_edges g (fun u v _ -> D.add_edge g u v (1 + SM.int rng 5));
    let apsp = A.compute g in
    for u = 0 to 19 do
      let d = R.dijkstra g u in
      for v = 0 to 19 do
        Alcotest.(check int) "apsp = dijkstra" d.(v) (A.distance apsp u v)
      done
    done
  done

let test_diagonal_zero () =
  let g = G.directed_ring 5 in
  let apsp = A.compute g in
  for v = 0 to 4 do
    Alcotest.(check int) "diagonal" 0 (A.distance apsp v v)
  done

let test_unreachable () =
  let g = G.directed_path 4 in
  let apsp = A.compute g in
  Alcotest.(check int) "backwards" unreachable (A.distance apsp 3 0)

(* Eccentricity, diameter and radius derived from reference rows: the
   oracle for the matrix folds. *)
let ref_eccentricity g u =
  let row = R.shortest g u in
  if Array.mem unreachable row then None else Some (Array.fold_left max 0 row)

let ref_diameter g =
  let eccs = List.init (D.n g) (ref_eccentricity g) in
  if D.n g <= 1 then Some 0
  else if List.mem None eccs then None
  else Some (List.fold_left max 0 (List.filter_map Fun.id eccs))

let ref_radius g =
  if D.n g <= 1 then Some 0
  else
    match List.filter_map (ref_eccentricity g) (List.init (D.n g) Fun.id) with
    | [] -> None
    | e :: rest -> Some (List.fold_left min e rest)

let test_diameter_agrees () =
  let rng = SM.create 37 in
  for _ = 1 to 10 do
    let g = G.random_k_out rng ~n:15 ~k:2 in
    Alcotest.(check (option int)) "diameter agreement" (ref_diameter g)
      (A.diameter (A.compute g))
  done

(* Random graphs of every size from 0 up, sparse enough that many are
   disconnected (radius defined, diameter not) and some have no vertex
   reaching all others; every third one gets non-unit lengths. *)
let test_folds_match_reference () =
  let rng = SM.create 41 in
  for i = 0 to 59 do
    let n = i mod 12 in
    let g = G.gnp rng ~n ~p:(if i mod 2 = 0 then 0.15 else 0.4) in
    if i mod 3 = 0 then D.iter_edges g (fun u v _ -> D.add_edge g u v (1 + SM.int rng 4));
    let apsp = A.compute g in
    let what s = Printf.sprintf "graph %d (n=%d): %s" i n s in
    for u = 0 to n - 1 do
      Alcotest.(check (option int)) (what "eccentricity") (ref_eccentricity g u)
        (A.eccentricity apsp u)
    done;
    Alcotest.(check (option int)) (what "diameter") (ref_diameter g) (A.diameter apsp);
    Alcotest.(check (option int)) (what "radius") (ref_radius g) (A.radius apsp)
  done

let test_eccentricity () =
  let g = G.directed_ring 6 in
  let apsp = A.compute g in
  Alcotest.(check (option int)) "ring eccentricity" (Some 5) (A.eccentricity apsp 2);
  let h = G.directed_path 3 in
  Alcotest.(check (option int)) "tail sees nobody" None
    (A.eccentricity (A.compute h) 2)

let test_parallel_edge_min () =
  (* A longer direct edge must lose to a shorter relay path. *)
  let g = D.of_edges 3 [ (0, 1, 9); (0, 2, 1); (2, 1, 1) ] in
  let apsp = A.compute g in
  Alcotest.(check int) "relay wins" 2 (A.distance apsp 0 1)

let suite =
  [
    Alcotest.test_case "matches dijkstra" `Quick test_matches_dijkstra_random;
    Alcotest.test_case "diagonal zero" `Quick test_diagonal_zero;
    Alcotest.test_case "unreachable" `Quick test_unreachable;
    Alcotest.test_case "diameter agrees" `Quick test_diameter_agrees;
    Alcotest.test_case "eccentricity" `Quick test_eccentricity;
    Alcotest.test_case "relay beats direct" `Quick test_parallel_edge_min;
    Alcotest.test_case "folds match reference" `Quick test_folds_match_reference;
  ]
