(** The shortest-path distance sentinel.

    Distance rows — {!Csr} sweeps, {!Apsp} matrices, {!Incremental}
    trees — are [int array]s indexed by vertex, with [unreachable]
    marking vertices with no path from the source.  The BBC cost model
    replaces it by the disconnection penalty [M] at a higher layer. *)

val unreachable : int
(** Sentinel distance ([max_int]) for vertices with no path. *)
