type deviation = {
  node : int;
  current_cost : int;
  better : Best_response.result;
}

(* Enumeration work of a from-scratch scan over [nodes]: each node
   enumerates its affordable candidate subsets — sum over i <= r of
   C(m, i), for m candidate targets and r = budget / cheapest candidate —
   and scores each against an n-entry distance row.  An input property,
   summed over the nodes and saturated at [cap]. *)
let enumeration_work ~cap instance nodes =
  let n = Instance.n instance in
  Array.fold_left
    (fun acc u ->
      if acc >= cap then acc
      else begin
        let b = Instance.budget instance u in
        let costs =
          List.map (Instance.cost instance u) (Best_response.candidate_targets instance u)
        in
        let m = List.length costs in
        let r = match List.fold_left min max_int costs with 0 -> m | c -> min m (b / c) in
        let acc = ref (acc + n) and term = ref 1 and i = ref 1 in
        while !i <= r && !acc < cap do
          term := !term * (m - !i + 1) / !i;
          acc := !acc + (n * !term);
          incr i
        done;
        !acc
      end)
    0 nodes

(* Below this much enumeration work a context-free scan stays on the
   calling domain.  Fitted on full scans of stable uniform, metric-length,
   Willows and anarchy games (n = 4..126, two jobs against one; data in
   CHANGES.md): from ~1e5 up the pool wins on every game, by 1.4-2.3x;
   below it a scan saves at most ~0.3 ms on the pool, and can lose
   when the worker domain has sat idle (ratios down to 0.4 on the
   smallest games). *)
let work_crossover = 100_000

(* One node per chunk pull.  A best-response check runs a full DFS over
   strategy space against the pooled CSR rows, so per-node work is both
   heavy (microseconds to milliseconds) and uneven (it depends on the
   node's budget and candidate set).  The pool's default chunking
   (~range/8 per job) leaves stragglers holding several expensive nodes
   and delays [parallel_find_first]/[parallel_exists] early abort to
   chunk granularity; one-node chunks cost a single fetch-add per node —
   noise next to the check itself — and give node-granular balance and
   abort.  (The distance sweeps inside each check are batched anyway:
   on unit-length snapshots [Best_response] prefetches a node's whole
   candidate row set through one bit-parallel [Csr.sssp_batch ~ban]
   traversal, so coarser chunks would add nothing there.) *)
let br_chunk = 1

let obs_stable_checks = Bbc_obs.counter "stability.is_stable"

(* The per-node checks of one scan and the job count to fan them out
   with.  A caller-provided context (a server session, a dynamics walk,
   an Exhaustive subtree) is re-synced by [Incr.ensure] and scanned on
   the calling domain, as contexts are single-domain state.  Without
   one, every check runs from scratch against one shared immutable CSR
   snapshot of the profile ([~ban] sweeps give each node its G_{-u}
   rows), so the fan-out builds no per-node graphs, and the pool is
   engaged once the scan's enumeration work reaches [work_crossover]. *)
type engine = {
  jobs : int;
  improving : int -> Best_response.result option;
  best_cost : int -> int;
  node_cost : int -> int;
}

let engine ?objective ?jobs ?ctx instance config nodes =
  match ctx with
  | Some ctx ->
      Incr.ensure ctx config;
      {
        jobs = 1;
        improving = Best_response.improving ?objective ~ctx instance config;
        best_cost = Best_response.best_cost ?objective ~ctx instance config;
        node_cost = Incr.node_cost ?objective ctx;
      }
  | None ->
      let csr = Config.to_csr instance config in
      let work =
        match jobs with
        | Some _ -> 0
        | None -> enumeration_work ~cap:work_crossover instance nodes
      in
      {
        jobs = Bbc_parallel.jobs_for ?jobs ~threshold:work_crossover work;
        improving = Best_response.improving ?objective ~csr instance config;
        best_cost = Best_response.best_cost ?objective ~csr instance config;
        node_cost = Eval.csr_node_cost ?objective instance csr;
      }

let all_nodes instance = Array.init (Instance.n instance) Fun.id

(* The parallel scans commit to the lowest-index result, so verdicts and
   reported nodes do not depend on the engine or the job count. *)
let find_deviation ?objective ?jobs ?ctx instance config =
  let n = Instance.n instance in
  let e = engine ?objective ?jobs ?ctx instance config (all_nodes instance) in
  Bbc_obs.with_span "stability.find_deviation"
    ~attrs:[ ("n", Bbc_obs.Int n); ("jobs", Bbc_obs.Int e.jobs) ] (fun () ->
      Bbc_parallel.parallel_find_first ~jobs:e.jobs ~chunk:br_chunk 0 n (fun u ->
          Option.map
            (fun better -> { node = u; current_cost = e.node_cost u; better })
            (e.improving u)))

let none_improving ?objective ?jobs ?ctx instance config nodes =
  Config.feasible instance config
  &&
  let e = engine ?objective ?jobs ?ctx instance config nodes in
  not
    (Bbc_parallel.parallel_exists ~jobs:e.jobs ~chunk:br_chunk 0 (Array.length nodes)
       (fun i -> Option.is_some (e.improving nodes.(i))))

let is_stable ?objective ?jobs ?ctx instance config =
  Bbc_obs.incr obs_stable_checks;
  none_improving ?objective ?jobs ?ctx instance config (all_nodes instance)

let nodes_stable ?objective ?ctx instance config nodes =
  none_improving ?objective ?ctx instance config (Array.of_list nodes)

let unstable_nodes ?objective ?jobs ?ctx instance config =
  let n = Instance.n instance in
  let e = engine ?objective ?jobs ?ctx instance config (all_nodes instance) in
  let unstable =
    Bbc_parallel.parallel_init ~jobs:e.jobs ~chunk:br_chunk n (fun u ->
        Option.is_some (e.improving u))
  in
  List.filter (fun u -> unstable.(u)) (List.init n Fun.id)

let stability_gap ?objective ?jobs ?ctx instance config =
  let e = engine ?objective ?jobs ?ctx instance config (all_nodes instance) in
  Bbc_parallel.parallel_reduce ~jobs:e.jobs ~chunk:br_chunk ~neutral:0 ~combine:max 0
    (Instance.n instance) (fun u ->
      let current = e.node_cost u in
      current - e.best_cost u)

let pp_deviation fmt d =
  Format.fprintf fmt "node %d: cost %d -> %d via [%a]" d.node d.current_cost
    d.better.cost
    (Format.pp_print_list ~pp_sep:(fun fmt () -> Format.fprintf fmt " ") Format.pp_print_int)
    d.better.strategy
