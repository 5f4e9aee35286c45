(** Dynamic single-source shortest paths over a mutable mirror graph.

    The mirror ({!graph}) keeps forward and reverse adjacency for a
    digraph whose only mutation is replacing one vertex's out-edge set
    ({!replace_out} — exactly the move a BBC player makes).  Each
    {!t} maintains the distance array and an explicit shortest-path
    tree for one source; after a mutation, {!repair} fixes only the
    affected region instead of recomputing from scratch. *)

val unreachable : int
(** Same sentinel as [Paths.unreachable] ([max_int]). *)

(** {1 Mirror graph} *)

type graph

val of_digraph : Digraph.t -> graph
(** Snapshot a digraph into a mutable mirror. *)

val functional : graph -> bool
(** [true] iff every vertex has out-degree at most one. *)

val unit_lengths : graph -> bool
(** [true] iff every edge has length 1. *)

val replace_out : graph -> int -> (int * int) list -> (int * int) list
(** [replace_out g u es] installs [es] as [u]'s out-edges and returns
    the previous out-edge list (for {!repair}). *)

(** {1 Dynamic SSSP} *)

type t

val create : graph -> int -> t
(** [create g src] runs a full BFS/Dijkstra from [src]. *)

val source : t -> int

val distances : t -> int array
(** Live internal array — do not mutate; entries are {!unreachable}
    for vertices with no path from the source. *)

val reachable_count : t -> int
(** Number of vertices at finite distance, including the source. *)

val repair : t -> u:int -> removed:(int * int) list -> added:(int * int) list -> int
(** [repair t ~u ~removed ~added] updates distances after [u]'s
    out-edges changed by deleting [removed] and inserting [added]
    (i.e. after the matching {!replace_out}).  Returns the number of
    vertices whose distance actually changed. *)

val well_formed : t -> bool
(** Internal invariant check (tree edges exist in the graph, distances
    consistent, reach count exact) — for tests. *)
