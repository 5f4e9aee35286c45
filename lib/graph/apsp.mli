(** All-pairs shortest paths.

    {!compute} builds the matrix from one {!Csr} kernel sweep per source
    — O(n (m + n)) on the sparse unit graphs this project mostly handles
    — with all traversal state drawn from the per-domain {!Workspace}
    pool, so the only allocation is the result matrix.  The classic
    Floyd–Warshall is kept as {!floyd_warshall}: O(n^3) but structurally
    independent of the SSSP kernels, which makes it the oracle the test
    suite cross-checks {!compute} and the CSR kernels against.

    The eccentricity folds ({!eccentricity}, {!diameter}, {!radius})
    read a computed matrix, so one {!compute} serves all three. *)

type t

val compute : ?jobs:int -> Digraph.t -> t
(** One CSR sweep per source, fanned over the domain pool in contiguous
    source ranges.  Rows are independent, so the result is identical for
    every job count; small matrices (n < 128) run sequentially. *)

val floyd_warshall : ?jobs:int -> Digraph.t -> t
(** Floyd–Warshall oracle; same matrix as {!compute}.  [jobs] fans the
    row updates of each pivot pass over the domain pool. *)

val distance : t -> int -> int -> int
(** [Paths.unreachable] when no path exists; 0 on the diagonal. *)

val matrix : t -> int array array
(** The full distance matrix (not a copy; treat as read-only). *)

val eccentricity : t -> int -> int option
(** Max distance from a vertex to any other; [None] if it does not reach
    everyone. *)

val diameter : t -> int option
(** Max over vertices of {!eccentricity}; [None] unless the graph is
    strongly connected.  [Some 0] on graphs with at most one vertex. *)

val radius : t -> int option
(** Min of {!eccentricity} over the vertices that reach all others;
    [None] if no vertex does.  [Some 0] on graphs with at most one
    vertex. *)
