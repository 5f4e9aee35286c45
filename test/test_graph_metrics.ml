(* Graph-level metrics on one all-pairs matrix: eccentricity, diameter
   and radius as {!Bbc_graph.Apsp} folds. *)

module D = Bbc_graph.Digraph
module A = Bbc_graph.Apsp
module G = Bbc_graph.Generators

let diameter g = A.diameter (A.compute g)
let radius g = A.radius (A.compute g)
let eccentricity g u = A.eccentricity (A.compute g) u

let test_ring_diameter () =
  let g = G.directed_ring 6 in
  Alcotest.(check (option int)) "diameter" (Some 5) (diameter g);
  Alcotest.(check (option int)) "radius" (Some 5) (radius g)

let test_path_diameter_none () =
  let g = G.directed_path 4 in
  Alcotest.(check (option int)) "not strongly connected" None (diameter g);
  (* The head still reaches everyone: radius is defined. *)
  Alcotest.(check (option int)) "radius from head" (Some 3) (radius g)

let test_complete () =
  let g = G.complete 5 in
  Alcotest.(check (option int)) "diameter 1" (Some 1) (diameter g);
  Alcotest.(check (option int)) "radius 1" (Some 1) (radius g)

let test_eccentricity () =
  let g = G.directed_ring 5 in
  Alcotest.(check (option int)) "ring ecc" (Some 4) (eccentricity g 2);
  let h = G.directed_path 3 in
  Alcotest.(check (option int)) "tail sees nobody" None (eccentricity h 2)

let test_weighted_diameter () =
  let g = D.of_edges 3 [ (0, 1, 5); (1, 2, 5); (2, 0, 5) ] in
  Alcotest.(check (option int)) "weighted" (Some 10) (diameter g)

let test_singleton () =
  let g = D.create 1 in
  Alcotest.(check (option int)) "diameter of a point" (Some 0) (diameter g);
  Alcotest.(check (option int)) "radius of a point" (Some 0) (radius g);
  Alcotest.(check (option int)) "eccentricity" (Some 0) (eccentricity g 0);
  let empty = D.create 0 in
  Alcotest.(check (option int)) "diameter of nothing" (Some 0) (diameter empty);
  Alcotest.(check (option int)) "radius of nothing" (Some 0) (radius empty)

let test_no_center () =
  (* Two disjoint rings: nobody reaches everyone. *)
  let g = D.of_unit_edges 4 [ (0, 1); (1, 0); (2, 3); (3, 2) ] in
  Alcotest.(check (option int)) "no radius" None (radius g);
  Alcotest.(check (option int)) "no diameter" None (diameter g)

let suite =
  [
    Alcotest.test_case "ring diameter/radius" `Quick test_ring_diameter;
    Alcotest.test_case "path has no diameter" `Quick test_path_diameter_none;
    Alcotest.test_case "complete graph" `Quick test_complete;
    Alcotest.test_case "eccentricity" `Quick test_eccentricity;
    Alcotest.test_case "weighted diameter" `Quick test_weighted_diameter;
    Alcotest.test_case "singleton graph" `Quick test_singleton;
    Alcotest.test_case "disconnected: no center" `Quick test_no_center;
  ]
