(** Nash-equilibrium verification (polynomial in the instance size).

    A profile is stable (a pure Nash equilibrium) when no node has a
    feasible strategy with strictly smaller cost, all other strategies
    fixed.  Verification runs one exact best-response computation per
    node; [is_stable] short-circuits on the first unstable node.

    {b Engines.}  Without a context, the per-node checks are
    independent from-scratch best responses against one shared CSR
    snapshot of the profile, fanned over the {!Bbc_parallel} domain pool
    with early abort.  With [?ctx], a caller-owned {!Incr} context (a
    server session, a long dynamics walk, an Exhaustive subtree), the
    nodes are scanned sequentially against its delta-repaired SSSPs: the
    context is re-synced to [config] via {!Incr.ensure} (a no-op when
    already in sync) and its version-counter caches are reused, so
    repeated queries against a slowly-mutating configuration only pay
    for what actually changed.  The context must have been created for
    the same instance.  Both engines return identical results —
    verdicts, nodes, and costs.

    {b Parallelism.}  From-scratch checks only read the shared instance,
    profile and snapshot (all immutable), honouring the read-only-graph
    contract of {!Bbc_graph.Digraph}.  An explicit [?jobs] always wins.
    Otherwise the job count follows the scan's enumeration work — per
    node, the affordable candidate subsets, each scored against an
    n-entry distance row, summed over the scanned nodes: small scans
    stay on the calling domain, larger ones use
    {!Bbc_parallel.default_jobs}.  The context engine is sequential by
    construction (contexts are single-domain state) and ignores
    [?jobs]. *)

type deviation = {
  node : int;
  current_cost : int;
  better : Best_response.result;  (** A strictly improving strategy. *)
}

val is_stable :
  ?objective:Objective.t ->
  ?jobs:int ->
  ?ctx:Incr.ctx ->
  Instance.t ->
  Config.t ->
  bool

val nodes_stable :
  ?objective:Objective.t ->
  ?ctx:Incr.ctx ->
  Instance.t ->
  Config.t ->
  int list ->
  bool
(** Stability restricted to the given nodes (no improving deviation for
    any of them).  Used with symmetry arguments: verifying one
    representative per orbit of a vertex-symmetric configuration is
    equivalent to verifying every node. *)

val find_deviation :
  ?objective:Objective.t ->
  ?jobs:int ->
  ?ctx:Incr.ctx ->
  Instance.t ->
  Config.t ->
  deviation option
(** First improving deviation in node order, if any.  The parallel scan
    still reports the {e lowest} unstable node, exactly like the
    sequential one. *)

val unstable_nodes :
  ?objective:Objective.t ->
  ?jobs:int ->
  ?ctx:Incr.ctx ->
  Instance.t ->
  Config.t ->
  int list
(** All nodes that currently have an improving deviation. *)

val stability_gap :
  ?objective:Objective.t ->
  ?jobs:int ->
  ?ctx:Incr.ctx ->
  Instance.t ->
  Config.t ->
  int
(** Max over nodes of [current_cost - best_response_cost]; 0 iff stable.
    (The additive analogue of epsilon-equilibrium.) *)

val pp_deviation : Format.formatter -> deviation -> unit
