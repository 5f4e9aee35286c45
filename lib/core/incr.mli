(** Incremental evaluation contexts: delta-repaired SSSPs + cost caching.

    A {!ctx} mirrors one configuration's realized graph inside
    {!Bbc_graph.Incremental} and keeps a lazily materialized dynamic
    SSSP per source.  A best-response move replaces one player's
    out-edges; {!apply_move} repairs every materialized SSSP in its
    affected region only, and bumps a per-source version counter when
    that source's distances actually changed.  Cached node costs are
    keyed on those counters, so only players whose distances moved are
    re-evaluated.

    For best responses the context pays only on functional profiles
    (every node buys at most one link): uniform [k = 1] strategies get
    closed-form costs ({!singleton_cost}) and other functional
    profiles get [G_{-u}] rows by a cutoff on the full-graph SSSP
    ({!threshold_row_into}).  Every other profile takes
    {!Best_response}'s context-free rows, one batched CSR traversal
    ([Csr.sssp_batch]) for all candidate targets.

    Results are bit-identical to the from-scratch {!Eval} /
    {!Best_response} pipeline: the same distances feed the same
    {!Eval.cost_of_distances} fold, and the enumeration order is
    preserved by the callers.  Contexts are single-domain mutable state
    — never share one across {!Bbc_parallel} workers.

    Contexts are created by the callers that own a sequence of related
    profiles: a {!Dynamics} walk, an {!Exhaustive} subtree, a server
    session.  Context-free calls run the from-scratch pipeline, which
    stays the reference oracle ([Dynamics.run ~incremental:false]). *)

type ctx

val create : Instance.t -> Config.t -> ctx

val config : ctx -> Config.t
(** The configuration the mirror currently realizes. *)

val apply_move : ctx -> int -> int list -> unit
(** [apply_move ctx u targets] rewires player [u] and repairs all
    materialized SSSPs. *)

val ensure : ctx -> Config.t -> unit
(** Bring the context in sync with [config] by applying per-player
    diffs as moves (no-op when already in sync). *)

val node_cost : ?objective:Objective.t -> ctx -> int -> int
(** Cached cost of a node under the context's configuration; equals
    [Eval.node_cost] on the same configuration. *)

val all_costs : ?objective:Objective.t -> ctx -> int array

val distances_from : ctx -> int -> int array
(** Live full-graph distance row of a source (do not mutate). *)

(** {1 Best-response support (used by {!Best_response})} *)

val functional : ctx -> bool
(** Every node currently buys at most one link (O(1)). *)

val analytic : ctx -> bool
(** Uniform [k = 1] instance on a functional graph: singleton strategy
    costs are closed-form ({!singleton_cost}), no rows needed. *)

val empty_cost : ?objective:Objective.t -> ctx -> int -> int
(** Cost of the empty strategy under a uniform instance. *)

val singleton_cost : ?objective:Objective.t -> ctx -> int -> int -> int
(** [singleton_cost ctx u v] — cost of strategy [{v}] for player [u];
    only valid when {!analytic} holds. *)

val threshold_row_into : ctx -> u:int -> v:int -> int array -> unit
(** [G_{-u}] distance row from [v], derived from the full-graph SSSP
    by the walk-cutoff rule and written into a caller-supplied buffer
    (length [n], every entry overwritten; the best-response enumeration
    feeds it {!Bbc_graph.Workspace} rows); only valid when
    {!functional} holds. *)
