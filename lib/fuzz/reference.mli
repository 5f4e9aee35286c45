(** List-graph shortest paths and reachability: the reference the
    production {!Bbc_graph.Csr} kernels are checked against.

    Every function here walks {!Bbc_graph.Digraph}'s adjacency lists
    with its own queue, heap or stack.  Nothing is shared with the flat
    CSR kernels, their scratch or the {!Bbc_graph.Workspace} pool, so a
    differential check of the two does not compare a kernel against
    itself.  Distances are [int array]s indexed by vertex, with
    {!Bbc_graph.Paths.unreachable} marking vertices with no path from
    the source.  Library code outside [lib/fuzz] never calls this
    module; the fuzz suites, the tests and the bench's baseline rows
    do. *)

val bfs : Bbc_graph.Digraph.t -> int -> int array
(** [bfs g src] is the array of hop-count distances from [src], ignoring
    edge lengths (every edge counts 1).  Exact for uniform games. *)

val dijkstra : Bbc_graph.Digraph.t -> int -> int array
(** [dijkstra g src] is the array of length-weighted distances from
    [src].  Edge lengths must be non-negative (enforced by
    {!Bbc_graph.Digraph.add_edge}). *)

val shortest : Bbc_graph.Digraph.t -> int -> int array
(** {!bfs} when every edge of [g] has length 1, {!dijkstra} otherwise —
    the list-graph counterpart of {!Bbc_graph.Csr.sssp}. *)

val node_cost :
  ?objective:Bbc.Objective.t -> Bbc.Instance.t -> Bbc.Config.t -> int -> int
(** [node_cost instance config u] is [u]'s cost: the {!shortest} row of
    [Config.to_graph instance config] folded by
    {!Bbc.Eval.cost_of_distances}.  Same value as {!Bbc.Eval.node_cost},
    computed without the CSR kernels. *)

val reachable_set : Bbc_graph.Digraph.t -> int -> bool array
(** [reachable_set g u] marks every vertex reachable from [u] (including
    [u] itself). *)

val reach : Bbc_graph.Digraph.t -> int -> int
(** [reach g u] is the number of vertices reachable from [u], including
    [u] itself — the quantity of the paper's convergence argument
    (Lemmas 9, 10). *)
