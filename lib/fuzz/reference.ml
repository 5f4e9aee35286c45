module Digraph = Bbc_graph.Digraph
module Binary_heap = Bbc_graph.Binary_heap

let unreachable = Bbc_graph.Paths.unreachable

let bfs g src =
  let n = Digraph.n g in
  let dist = Array.make n unreachable in
  let queue = Queue.create () in
  dist.(src) <- 0;
  Queue.add src queue;
  while not (Queue.is_empty queue) do
    let u = Queue.take queue in
    let du = dist.(u) in
    Digraph.iter_out g u (fun v _len ->
        if dist.(v) = unreachable then begin
          dist.(v) <- du + 1;
          Queue.add v queue
        end)
  done;
  dist

let dijkstra g src =
  let n = Digraph.n g in
  let dist = Array.make n unreachable in
  let heap = Binary_heap.create ~capacity:n () in
  dist.(src) <- 0;
  Binary_heap.push heap 0 src;
  let rec drain () =
    match Binary_heap.pop heap with
    | None -> ()
    | Some (d, u) ->
        (* Lazy deletion: skip entries that were superseded. *)
        if d = dist.(u) then
          Digraph.iter_out g u (fun v len ->
              let nd = d + len in
              if nd < dist.(v) then begin
                dist.(v) <- nd;
                Binary_heap.push heap nd v
              end);
        drain ()
  in
  drain ();
  dist

let shortest g src = if Digraph.all_unit_lengths g then bfs g src else dijkstra g src

let node_cost ?objective instance config u =
  Bbc.Eval.cost_of_distances ?objective instance u
    (shortest (Bbc.Config.to_graph instance config) u)

let reachable_set g u =
  let seen = Array.make (Digraph.n g) false in
  let stack = ref [ u ] in
  seen.(u) <- true;
  while !stack <> [] do
    match !stack with
    | [] -> ()
    | x :: rest ->
        stack := rest;
        Digraph.iter_out g x (fun y _ ->
            if not seen.(y) then begin
              seen.(y) <- true;
              stack := y :: !stack
            end)
  done;
  seen

let reach g u =
  Array.fold_left (fun acc b -> if b then acc + 1 else acc) 0 (reachable_set g u)
