(* The list-graph reference BFS/Dijkstra that the CSR kernels are
   checked against. *)

module D = Bbc_graph.Digraph
module P = Bbc_fuzz.Reference
module G = Bbc_graph.Generators

let unreachable = Bbc_graph.Paths.unreachable

let test_bfs_line () =
  let g = G.directed_path 5 in
  let d = P.bfs g 0 in
  Alcotest.(check (array int)) "distances" [| 0; 1; 2; 3; 4 |] d

let test_bfs_unreachable () =
  let g = G.directed_path 4 in
  let d = P.bfs g 2 in
  Alcotest.(check int) "behind source" unreachable d.(0);
  Alcotest.(check int) "ahead" 1 d.(3)

let test_bfs_ring () =
  let g = G.directed_ring 6 in
  let d = P.bfs g 4 in
  Alcotest.(check int) "wraps" 3 d.(1)

let test_dijkstra_weighted () =
  (* 0 -> 1 (10), 0 -> 2 (1), 2 -> 1 (2): shortest 0->1 is 3 via 2. *)
  let g = D.of_edges 3 [ (0, 1, 10); (0, 2, 1); (2, 1, 2) ] in
  let d = P.dijkstra g 0 in
  Alcotest.(check int) "via relay" 3 d.(1)

let test_dijkstra_zero_length () =
  let g = D.of_edges 3 [ (0, 1, 0); (1, 2, 0) ] in
  let d = P.dijkstra g 0 in
  Alcotest.(check int) "zero-length edges" 0 d.(2)

let test_dijkstra_matches_bfs_on_unit () =
  let rng = Bbc_prng.Splitmix.create 99 in
  for _ = 1 to 20 do
    let g = G.random_k_out rng ~n:30 ~k:3 in
    let src = Bbc_prng.Splitmix.int rng 30 in
    Alcotest.(check (array int)) "bfs = dijkstra" (P.bfs g src) (P.dijkstra g src)
  done

let test_shortest_dispatch () =
  let g = D.of_edges 3 [ (0, 1, 1); (1, 2, 1) ] in
  Alcotest.(check bool) "unit lengths" true (D.all_unit_lengths g);
  D.add_edge g 0 2 7;
  Alcotest.(check bool) "no longer unit" false (D.all_unit_lengths g);
  Alcotest.(check int) "shortest uses lengths" 2 (P.shortest g 0).(2)

let test_distance () =
  let g = G.directed_ring 5 in
  Alcotest.(check int) "around the ring" 4 (P.shortest g 1).(0);
  let h = G.directed_path 3 in
  Alcotest.(check int) "unreachable" unreachable (P.shortest h 2).(0)

let test_deep_graph_no_overflow () =
  (* A 100k-node path: traversals must not use O(n) call stack. *)
  let g = G.directed_path 100_000 in
  let d = P.bfs g 0 in
  Alcotest.(check int) "far end" 99_999 d.(99_999)

let suite =
  [
    Alcotest.test_case "bfs on a line" `Quick test_bfs_line;
    Alcotest.test_case "bfs unreachable" `Quick test_bfs_unreachable;
    Alcotest.test_case "bfs ring wrap" `Quick test_bfs_ring;
    Alcotest.test_case "dijkstra weighted relay" `Quick test_dijkstra_weighted;
    Alcotest.test_case "dijkstra zero lengths" `Quick test_dijkstra_zero_length;
    Alcotest.test_case "dijkstra = bfs on unit graphs" `Quick test_dijkstra_matches_bfs_on_unit;
    Alcotest.test_case "shortest dispatch" `Quick test_shortest_dispatch;
    Alcotest.test_case "distance" `Quick test_distance;
    Alcotest.test_case "deep graph traversal" `Quick test_deep_graph_no_overflow;
  ]
