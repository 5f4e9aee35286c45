module Incremental = Bbc_graph.Incremental
module Paths = Bbc_graph.Paths

(* ------------------------------------------------------------------ *)
(* Context.                                                            *)

type ctx = {
  instance : Instance.t;
  graph : Incremental.graph; (* mutable mirror of [config]'s realized graph *)
  mutable config : Config.t;
  sssp : Incremental.t option array; (* full-graph SSSP per source, lazy *)
  dist_ver : int array; (* bumped when a source's distances change *)
  cost_val : int array;
  cost_ver : int array; (* dist_ver at cache time; -1 = empty *)
  cost_obj : Objective.t array;
}

let obs_contexts = Bbc_obs.counter "incr.contexts"
let obs_hits = Bbc_obs.counter "incr.cost_cache_hits"
let obs_misses = Bbc_obs.counter "incr.cost_cache_misses"
let obs_threshold_rows = Bbc_obs.counter "incr.threshold_rows"
let obs_analytic = Bbc_obs.counter "incr.analytic_costs"
let obs_moves = Bbc_obs.counter "incr.moves"

let create instance config =
  let n = Instance.n instance in
  Bbc_obs.incr obs_contexts;
  {
    instance;
    graph = Incremental.of_digraph (Config.to_graph instance config);
    config;
    sssp = Array.make n None;
    dist_ver = Array.make n 0;
    cost_val = Array.make n 0;
    cost_ver = Array.make n (-1);
    cost_obj = Array.make n Objective.Sum;
  }

let config ctx = ctx.config

let sssp ctx v =
  match ctx.sssp.(v) with
  | Some s -> s
  | None ->
      let s = Incremental.create ctx.graph v in
      ctx.sssp.(v) <- Some s;
      s

let distances_from ctx v = Incremental.distances (sssp ctx v)

(* ------------------------------------------------------------------ *)
(* Moves.                                                              *)

let apply_move ctx u targets =
  Bbc_obs.incr obs_moves;
  let es = List.map (fun v -> (v, Instance.length ctx.instance u v)) targets in
  let old = Incremental.replace_out ctx.graph u es in
  let removed = List.filter (fun e -> not (List.mem e es)) old in
  let added = List.filter (fun e -> not (List.mem e old)) es in
  if removed <> [] || added <> [] then
    Array.iteri
      (fun src s ->
        match s with
        | None -> ()
        | Some s ->
            if Incremental.repair s ~u ~removed ~added > 0 then
              ctx.dist_ver.(src) <- ctx.dist_ver.(src) + 1)
      ctx.sssp;
  ctx.config <- Config.with_strategy ctx.config u targets

let ensure ctx config =
  if not (Config.equal ctx.config config) then
    for u = 0 to Instance.n ctx.instance - 1 do
      let t = Config.targets config u in
      if t <> Config.targets ctx.config u then apply_move ctx u t
    done

(* ------------------------------------------------------------------ *)
(* Cached node costs.                                                  *)

let node_cost ?(objective = Objective.Sum) ctx u =
  let s = sssp ctx u in
  if ctx.cost_ver.(u) = ctx.dist_ver.(u) && ctx.cost_obj.(u) = objective then begin
    Bbc_obs.incr obs_hits;
    ctx.cost_val.(u)
  end
  else begin
    Bbc_obs.incr obs_misses;
    let c = Eval.cost_of_distances ~objective ctx.instance u (Incremental.distances s) in
    ctx.cost_val.(u) <- c;
    ctx.cost_ver.(u) <- ctx.dist_ver.(u);
    ctx.cost_obj.(u) <- objective;
    c
  end

let all_costs ?objective ctx =
  Array.init (Instance.n ctx.instance) (fun u -> node_cost ?objective ctx u)

(* ------------------------------------------------------------------ *)
(* Best-response support.                                              *)

let functional ctx = Incremental.functional ctx.graph

(* Uniform k = 1 on a functional realized graph: every reachable set is a
   simple walk with unit steps, so singleton strategies have closed-form
   costs (see DESIGN section 9). *)
let analytic ctx = Instance.uniform_k ctx.instance = Some 1 && functional ctx

let empty_cost ?(objective = Objective.Sum) ctx u =
  ignore u;
  let n = Instance.n ctx.instance and m = Instance.penalty ctx.instance in
  match objective with
  | Objective.Sum -> (n - 1) * m
  | Objective.Max -> if n <= 1 then 0 else m

(* Cost of the singleton strategy {v} for player [u]: the surviving walk
   from [v] in G_{-u} has T vertices at distances 1..T from [u], where
   T = dist_v(u) when the walk hits [u] and the full reach of [v]
   otherwise; everything else pays the penalty. *)
let singleton_cost ?(objective = Objective.Sum) ctx u v =
  Bbc_obs.incr obs_analytic;
  let n = Instance.n ctx.instance and m = Instance.penalty ctx.instance in
  let s = sssp ctx v in
  let dv = Incremental.distances s in
  let t =
    if dv.(u) = Paths.unreachable then Incremental.reachable_count s else dv.(u)
  in
  match objective with
  | Objective.Sum -> (t * (t + 1) / 2) + ((n - 1 - t) * m)
  | Objective.Max -> if t = n - 1 then t else m

(* On a functional graph, G_{-u} distances from [v] follow from the
   full-graph SSSP: the unique walk from [v] survives exactly up to [u]
   (strictly increasing distances), so a distance is kept iff it does not
   exceed dist_v(u). *)
let threshold_row_into ctx ~u ~v dst =
  Bbc_obs.incr obs_threshold_rows;
  let dv = Incremental.distances (sssp ctx v) in
  let t = dv.(u) in
  for i = 0 to Array.length dv - 1 do
    let d = dv.(i) in
    dst.(i) <- (if d <= t then d else Paths.unreachable)
  done
