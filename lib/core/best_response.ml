module Paths = Bbc_graph.Paths
module Csr = Bbc_graph.Csr
module Workspace = Bbc_graph.Workspace

type result = { strategy : int list; cost : int }

let candidate_targets instance u =
  let n = Instance.n instance in
  let b = Instance.budget instance u in
  let acc = ref [] in
  for v = n - 1 downto 0 do
    if v <> u && Instance.cost instance u v <= b then acc := v :: !acc
  done;
  !acc

(* Distance rows in G_{-u}, fetched lazily per candidate target and
   cached for the duration of one enumeration.  [fetch] is the engine:
   a CSR kernel sweep of the G_{-u} snapshot, or {!Incr}'s threshold
   rule on a functional profile.  Either way the rows come from the
   per-domain pool and go back to it when the enumeration finishes. *)
type rows = {
  fetch : int -> int array;
  cache : int array option array;
}

(* With [?csr] (a shared full snapshot of the {e current} profile,
   trusted to equal [Config.to_csr instance config]), the G_{-u} rows
   come from [~ban:u] sweeps of that shared snapshot — no per-node CSR
   build at all, which is what keeps parallel stability scans off the
   allocator.

   [?prefetch] names the candidate targets the caller is about to
   enumerate: on unit-length snapshots their rows are fetched up front
   with one bit-parallel [Csr.sssp_batch ~ban] traversal instead of one
   scalar sweep each.  An enumeration that runs to completion touches
   every candidate row at DFS depth 1 anyway, so the batch does the
   same work for ~one sweep's worth of graph reads; early-aborting
   callers pay at most one window of extra traversal. *)
let scratch_rows ?csr ?prefetch instance config u =
  let ws = Workspace.get () in
  let n = Instance.n instance in
  let snap, ban =
    match csr with
    | Some full -> (full, u)
    | None -> (Config.to_csr ~skip:u instance config, -1)
  in
  let rows =
    {
      fetch =
        (fun v ->
          let row = Workspace.acquire ws n in
          Csr.sssp ~ban snap (Workspace.scratch ws) ~src:v ~dist:row;
          row);
      cache = Array.make n None;
    }
  in
  (match prefetch with
  | Some targets when Array.length targets > 1 && Csr.unit_lengths snap ->
      let bufs = Array.map (fun _ -> Workspace.acquire ws n) targets in
      Csr.sssp_batch ~ban snap (Workspace.scratch ws) ~srcs:targets ~rows:bufs;
      Array.iteri (fun i v -> rows.cache.(v) <- Some bufs.(i)) targets
  | _ -> ());
  rows

let threshold_rows ctx instance u =
  let ws = Workspace.get () in
  let n = Instance.n instance in
  {
    fetch =
      (fun v ->
        let row = Workspace.acquire ws n in
        Incr.threshold_row_into ctx ~u ~v row;
        row);
    cache = Array.make n None;
  }

(* The G_{-u} rows a context pays for are threshold rows on a
   functional profile (uniform k = 1 skips rows altogether, see
   [analytic_enumerate]).  Every other profile, and every context-free
   call, takes the batched CSR rows of [scratch_rows].  A context must
   already be in sync with [config]. *)
let provider ?ctx ?csr instance config u =
  match ctx with
  | Some c when Incr.functional c -> threshold_rows c instance u
  | _ ->
      let candidates = Array.of_list (candidate_targets instance u) in
      scratch_rows ?csr ~prefetch:candidates instance config u

let row rows v =
  match rows.cache.(v) with
  | Some d -> d
  | None ->
      let d = rows.fetch v in
      rows.cache.(v) <- Some d;
      d

let release_rows ws rows =
  Array.iteri
    (fun v r ->
      match r with
      | None -> ()
      | Some r ->
          rows.cache.(v) <- None;
          Workspace.release ws r)
    rows.cache

(* Distance from u to x when u's strategy gains the link (u,v) of length
   [luv], given the current best-known distances [src] and the
   [G_{-u}] row [rv] of [v]: written into [dst] (a pooled row). *)
let merge_into ~src ~dst rv luv =
  let n = Array.length src in
  Array.blit src 0 dst 0 n;
  for x = 0 to n - 1 do
    if rv.(x) <> Paths.unreachable then begin
      let d = luv + rv.(x) in
      if d < dst.(x) then dst.(x) <- d
    end
  done

(* Cost of the strategy extended by the link (u,v), evaluated in a
   single pass over [src] and [rv] — the merged distance row is never
   materialized.  Bit-identical to [merge_into] followed by
   {!Eval.cost_of_distances}; most subsets of an enumeration are leaves
   of the DFS, and this collapses their three O(n) passes
   (copy, merge, fold) into one. *)
let merged_cost ~objective instance u ~src rv luv =
  let n = Array.length src in
  let m = Instance.penalty instance in
  (* Same dispatch hoisting as [Eval.cost_of_distances]: this loop runs
     once per enumerated subset, so per-element call overhead dominates
     the whole enumeration if left in. *)
  match objective with
  | Objective.Sum -> (
      match Instance.weight_row instance u with
      | None ->
          let acc = ref 0 in
          for x = 0 to n - 1 do
            if x <> u then begin
              let rx = rv.(x) in
              let d0 = src.(x) in
              let d =
                if rx <> Paths.unreachable && luv + rx < d0 then luv + rx
                else d0
              in
              acc := !acc + (if d = Paths.unreachable then m else d)
            end
          done;
          !acc
      | Some wrow ->
          let acc = ref 0 in
          for x = 0 to n - 1 do
            if x <> u then begin
              let w = wrow.(x) in
              if w > 0 then begin
                let rx = rv.(x) in
                let d0 = src.(x) in
                let d =
                  if rx <> Paths.unreachable && luv + rx < d0 then luv + rx
                  else d0
                in
                acc := !acc + (w * if d = Paths.unreachable then m else d)
              end
            end
          done;
          !acc)
  | Objective.Max ->
      let acc = ref 0 in
      for x = 0 to n - 1 do
        if x <> u then begin
          let w = Instance.weight instance u x in
          if w > 0 then begin
            let rx = rv.(x) in
            let d0 = src.(x) in
            let d =
              if rx <> Paths.unreachable && luv + rx < d0 then luv + rx else d0
            in
            let d = if d = Paths.unreachable then m else d in
            if w * d > !acc then acc := w * d
          end
        end
      done;
      !acc

(* Subsets explored across all enumerations; accumulated locally and
   published once per call so the DFS hot loop stays untouched. *)
let obs_subsets = Bbc_obs.counter "best_response.subsets"
let obs_enumerations = Bbc_obs.counter "best_response.enumerations"

(* DFS over affordable subsets of candidates.  [on_subset chosen cost]
   is called for every feasible subset (including the empty one); it
   returns [true] to abort the search early.  The subset under test
   lives in an int stack, and [chosen ()] builds it as a list — in
   candidate order, so increasing unless the caller passes its own
   [candidates] order — only for the subsets a caller keeps: the
   enumeration itself allocates nothing per subset. *)
let dfs_enumerate ?candidates ~objective instance u ~rows ~on_subset =
  let ws = Workspace.get () in
  let candidates =
    match candidates with
    | Some c -> c
    | None -> Array.of_list (candidate_targets instance u)
  in
  let ncand = Array.length candidates in
  let costs = Array.map (fun v -> Instance.cost instance u v) candidates in
  (* Cheapest candidate among j..ncand-1: O(1) "is this subset a DFS
     leaf?" checks below. *)
  let min_cost_from = Array.make (ncand + 1) max_int in
  for j = ncand - 1 downto 0 do
    min_cost_from.(j) <- min costs.(j) min_cost_from.(j + 1)
  done;
  let stack = Array.make ncand 0 and depth = ref 0 in
  let chosen () =
    let acc = ref [] in
    for d = !depth - 1 downto 0 do
      acc := stack.(d) :: !acc
    done;
    !acc
  in
  let n = Instance.n instance in
  let stop = ref false in
  let subsets = ref 1 in
  let base = Workspace.acquire ws n in
  base.(u) <- 0;
  Fun.protect
    ~finally:(fun () ->
      Workspace.release ws base;
      release_rows ws rows)
    (fun () ->
      if on_subset chosen (Eval.cost_of_distances ~objective instance u base) then
        stop := true;
      (* Every subset is costed by the one-pass [merged_cost]; the merged
         row itself is materialized (into a pooled row borrowed for the
         subtree) only when the DFS actually descends — i.e. when some
         further candidate is still affordable.  Leaves, the bulk of the
         enumeration, never touch a buffer. *)
      let rec dfs i d budget cur =
        if not !stop then
          for j = i to ncand - 1 do
            if not !stop then begin
              let v = candidates.(j) in
              let c = costs.(j) in
              if c <= budget then begin
                let rv = row rows v in
                let luv = Instance.length instance u v in
                stack.(d) <- v;
                depth := d + 1;
                incr subsets;
                if on_subset chosen (merged_cost ~objective instance u ~src:cur rv luv)
                then stop := true
                else if min_cost_from.(j + 1) <= budget - c then begin
                  let cur' = Workspace.acquire ws n in
                  merge_into ~src:cur ~dst:cur' rv luv;
                  dfs (j + 1) (d + 1) (budget - c) cur';
                  Workspace.release ws cur'
                end
              end
            end
          done
      in
      dfs 0 0 (Instance.budget instance u) base);
  Bbc_obs.incr obs_enumerations;
  Bbc_obs.add obs_subsets !subsets

(* Uniform k = 1: the affordable subsets are exactly the empty set and
   the singletons, visited in the same order the DFS would use — but
   with O(1) closed-form costs instead of per-candidate rows. *)
let analytic_enumerate ~objective ctx instance u ~on_subset =
  let stop = ref false in
  let subsets = ref 1 in
  let single = ref (-1) in
  let chosen () = if !single < 0 then [] else [ !single ] in
  if on_subset chosen (Incr.empty_cost ~objective ctx u) then stop := true;
  List.iter
    (fun v ->
      if not !stop then begin
        incr subsets;
        single := v;
        if on_subset chosen (Incr.singleton_cost ~objective ctx u v) then stop := true
      end)
    (candidate_targets instance u);
  Bbc_obs.incr obs_enumerations;
  Bbc_obs.add obs_subsets !subsets

let enumerate ?(objective = Objective.Sum) ?ctx ?csr instance config u ~on_subset =
  Option.iter (fun c -> Incr.ensure c config) ctx;
  match ctx with
  | Some c when Incr.analytic c -> analytic_enumerate ~objective c instance u ~on_subset
  | _ ->
      dfs_enumerate ~objective instance u
        ~rows:(provider ?ctx ?csr instance config u)
        ~on_subset

let exact ?objective ?ctx ?csr instance config u =
  let best = ref { strategy = []; cost = max_int } in
  enumerate ?objective ?ctx ?csr instance config u ~on_subset:(fun chosen cost ->
      if cost < !best.cost then best := { strategy = chosen (); cost };
      false);
  !best

let best_cost ?objective ?ctx ?csr instance config u =
  (exact ?objective ?ctx ?csr instance config u).cost

let all_best ?objective ?ctx ?csr instance config u =
  let best = ref max_int and acc = ref [] in
  enumerate ?objective ?ctx ?csr instance config u ~on_subset:(fun chosen cost ->
      if cost < !best then begin
        best := cost;
        acc := [ chosen () ]
      end
      else if cost = !best then acc := chosen () :: !acc;
      false);
  List.rev_map (fun strategy -> { strategy; cost = !best }) !acc

let current_cost ?objective ?ctx ?csr instance config u =
  match ctx with
  | Some c ->
      Incr.ensure c config;
      Incr.node_cost ?objective c u
  | None -> (
      match csr with
      | Some full -> Eval.csr_node_cost ?objective instance full u
      | None -> Eval.node_cost ?objective instance config u)

let improving ?objective ?ctx ?csr instance config u =
  let current = current_cost ?objective ?ctx ?csr instance config u in
  let found = ref None in
  enumerate ?objective ?ctx ?csr instance config u ~on_subset:(fun chosen cost ->
      if cost < current then begin
        found := Some { strategy = chosen (); cost };
        true
      end
      else false);
  !found

(* Sampled best response: the exact DFS restricted to a random subset of
   the candidate targets.  Scoring stays exact (real G_{-u} rows, real
   merged costs), only the candidate pool shrinks — so the returned
   deviation's cost is trustworthy, and the final strict comparison
   against the node's exact current cost guarantees that a returned
   deviation is genuinely improving.  With [sample >= #candidates] this
   is exactly {!exact} filtered to improving results. *)
let sampled ?(objective = Objective.Sum) ?csr ~rng ~sample instance config u =
  let all = Array.of_list (candidate_targets instance u) in
  let candidates =
    if sample >= Array.length all then all
    else
      Bbc_prng.Splitmix.sample_without_replacement rng sample (Array.length all)
      |> List.map (Array.get all)
      |> Array.of_list
  in
  let current = current_cost ~objective ?csr instance config u in
  let best = ref { strategy = []; cost = max_int } in
  dfs_enumerate ~candidates ~objective instance u
    ~rows:(scratch_rows ?csr ~prefetch:candidates instance config u)
    ~on_subset:(fun chosen cost ->
      if cost < !best.cost then best := { strategy = chosen (); cost };
      false);
  if !best.cost < current then
    Some { strategy = List.sort compare !best.strategy; cost = !best.cost }
  else None

let greedy_rows ~objective instance u ~rows =
  let ws = Workspace.get () in
  let n = Instance.n instance in
  let eval cur = Eval.cost_of_distances ~objective instance u cur in
  (* The candidate list only depends on the instance — computed once,
     not rebuilt on every growth step. *)
  let candidates = candidate_targets instance u in
  let base = Workspace.acquire ws n in
  base.(u) <- 0;
  Fun.protect
    ~finally:(fun () -> release_rows ws rows)
    (fun () ->
      (* [cur] is always a pooled row owned by this loop.  Candidate
         trials are costed by the one-pass [merged_cost]; only the
         winning link's merged row is ever materialized.  (Cached rows
         outlive the whole enumeration, so holding the winner's [rv]
         across the scan is safe.) *)
      let rec grow chosen budget cur cost =
        let best = ref None in
        List.iter
          (fun v ->
            if (not (List.mem v chosen)) && Instance.cost instance u v <= budget then begin
              let rv = row rows v in
              let luv = Instance.length instance u v in
              let c = merged_cost ~objective instance u ~src:cur rv luv in
              match !best with
              | Some (_, _, _, c') when c' <= c -> ()
              | _ -> best := Some (v, luv, rv, c)
            end)
          candidates;
        match !best with
        | Some (v, luv, rv, c) when c < cost ->
            let cur' = Workspace.acquire ws n in
            merge_into ~src:cur ~dst:cur' rv luv;
            Workspace.release ws cur;
            grow (v :: chosen) (budget - Instance.cost instance u v) cur' c
        | _ ->
            Workspace.release ws cur;
            { strategy = List.sort compare chosen; cost }
      in
      grow [] (Instance.budget instance u) base (eval base))

let greedy ?(objective = Objective.Sum) ?ctx ?csr instance config u =
  Option.iter (fun c -> Incr.ensure c config) ctx;
  greedy_rows ~objective instance u ~rows:(provider ?ctx ?csr instance config u)
