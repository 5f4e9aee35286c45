(** Incremental evaluation contexts: delta-repaired SSSPs + cost caching.

    A {!ctx} mirrors one configuration's realized graph inside
    {!Bbc_graph.Incremental} and keeps a lazily materialized dynamic
    SSSP per source.  A best-response move replaces one player's
    out-edges; {!apply_move} repairs every materialized SSSP in its
    affected region only, and bumps a per-source version counter when
    that source's distances actually changed.  Cached node costs are
    keyed on those counters, so only players whose distances moved are
    re-evaluated.

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
val instance : ctx -> Instance.t

val config : ctx -> Config.t
(** The configuration the mirror currently realizes. *)

val apply_move : ctx -> int -> int list -> unit
(** [apply_move ctx u targets] rewires player [u] and repairs all
    materialized SSSPs.  Not allowed while masked. *)

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

val threshold_row : ctx -> u:int -> v:int -> int array
(** [G_{-u}] distance row from [v], derived from the full-graph SSSP
    by the walk-cutoff rule; only valid when {!functional} holds. *)

val threshold_row_into : ctx -> u:int -> v:int -> int array -> unit
(** {!threshold_row} written into a caller-supplied buffer (length [n],
    every entry overwritten) — the zero-allocation variant the
    best-response enumeration feeds with {!Bbc_graph.Workspace} rows. *)

val with_masked : ctx -> int -> (unit -> 'a) -> 'a
(** [with_masked ctx u f] runs [f] with [u]'s out-edges removed from
    the mirror (materialized SSSPs delta-repaired, exact rollback on
    exit): inside [f], {!masked_row} serves [G_{-u}] rows directly. *)

val masked_row : ctx -> int -> int array
(** Live [G_{-u}] distance row of a source; only inside {!with_masked}. *)
