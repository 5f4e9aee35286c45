let unreachable = max_int

(* ------------------------------------------------------------------ *)
(* Mirror graph.                                                       *)

type graph = {
  gn : int;
  fwd : (int * int) list array; (* fwd.(u) = [(v, len); ...] *)
  bwd : (int * int) list array; (* bwd.(v) = [(u, len); ...] *)
  mutable multi : int; (* vertices with out-degree >= 2 *)
  mutable non_unit : int; (* edges with length <> 1 *)
}

let of_digraph g =
  let n = Digraph.n g in
  let t =
    {
      gn = n;
      fwd = Array.make n [];
      bwd = Array.make n [];
      multi = 0;
      non_unit = 0;
    }
  in
  for u = 0 to n - 1 do
    let es = Digraph.out_edges g u in
    t.fwd.(u) <- es;
    if List.length es >= 2 then t.multi <- t.multi + 1;
    List.iter
      (fun (v, len) ->
        t.bwd.(v) <- (u, len) :: t.bwd.(v);
        if len <> 1 then t.non_unit <- t.non_unit + 1)
      es
  done;
  t

let functional g = g.multi = 0
let unit_lengths g = g.non_unit = 0

let count_non_unit es =
  List.fold_left (fun acc (_, len) -> if len <> 1 then acc + 1 else acc) 0 es

let replace_out g u es =
  let old = g.fwd.(u) in
  if List.length old >= 2 then g.multi <- g.multi - 1;
  if List.length es >= 2 then g.multi <- g.multi + 1;
  g.non_unit <- g.non_unit - count_non_unit old + count_non_unit es;
  List.iter
    (fun (v, _) -> g.bwd.(v) <- List.filter (fun (p, _) -> p <> u) g.bwd.(v))
    old;
  List.iter (fun (v, len) -> g.bwd.(v) <- (u, len) :: g.bwd.(v)) es;
  g.fwd.(u) <- es;
  old

(* ------------------------------------------------------------------ *)
(* Dynamic SSSP with an explicit shortest-path tree.                   *)

type t = {
  g : graph;
  src : int;
  dist : int array;
  parent : int array; (* tree parent; -1 for source / unreachable *)
  first_child : int array; (* -1 = none *)
  next_sib : int array;
  prev_sib : int array;
  mutable reach : int; (* #vertices with finite distance (incl. src) *)
  heap : Binary_heap.t; (* scratch, cleared per repair *)
  mark : int array; (* stamped when a vertex enters the current log *)
  mutable stamp : int;
}

let source t = t.src
let distances t = t.dist
let reachable_count t = t.reach

(* --- tree surgery ------------------------------------------------- *)

let detach t x =
  let p = t.parent.(x) in
  if p >= 0 then begin
    let prev = t.prev_sib.(x) and next = t.next_sib.(x) in
    if prev >= 0 then t.next_sib.(prev) <- next else t.first_child.(p) <- next;
    if next >= 0 then t.prev_sib.(next) <- prev;
    t.parent.(x) <- -1;
    t.prev_sib.(x) <- -1;
    t.next_sib.(x) <- -1
  end

let attach t x p =
  t.parent.(x) <- p;
  if p >= 0 then begin
    let head = t.first_child.(p) in
    t.next_sib.(x) <- head;
    if head >= 0 then t.prev_sib.(head) <- x;
    t.prev_sib.(x) <- -1;
    t.first_child.(p) <- x
  end

(* --- observability ------------------------------------------------ *)

let obs_full = Bbc_obs.counter "incremental.full_sssp"
let obs_repairs = Bbc_obs.counter "incremental.repairs"
let obs_noop = Bbc_obs.counter "incremental.repairs_noop"
let obs_repair_size = Bbc_obs.histogram "incremental.repair_touched"

(* --- full build ---------------------------------------------------- *)

let compute_full t =
  let n = t.g.gn in
  Array.fill t.dist 0 n unreachable;
  Array.fill t.parent 0 n (-1);
  Array.fill t.first_child 0 n (-1);
  Array.fill t.next_sib 0 n (-1);
  Array.fill t.prev_sib 0 n (-1);
  t.dist.(t.src) <- 0;
  t.reach <- 1;
  if unit_lengths t.g then begin
    let queue = Queue.create () in
    Queue.add t.src queue;
    while not (Queue.is_empty queue) do
      let u = Queue.take queue in
      let du = t.dist.(u) in
      List.iter
        (fun (v, _len) ->
          if t.dist.(v) = unreachable then begin
            t.dist.(v) <- du + 1;
            attach t v u;
            t.reach <- t.reach + 1;
            Queue.add v queue
          end)
        t.g.fwd.(u)
    done
  end
  else begin
    Binary_heap.clear t.heap;
    Binary_heap.push t.heap 0 t.src;
    let rec drain () =
      match Binary_heap.pop t.heap with
      | None -> ()
      | Some (d, u) ->
          if d = t.dist.(u) then
            List.iter
              (fun (v, len) ->
                let nd = d + len in
                if nd < t.dist.(v) then begin
                  if t.dist.(v) = unreachable then t.reach <- t.reach + 1;
                  t.dist.(v) <- nd;
                  detach t v;
                  attach t v u;
                  Binary_heap.push t.heap nd v
                end)
              t.g.fwd.(u);
          drain ()
    in
    drain ()
  end;
  Bbc_obs.incr obs_full

let create g src =
  if src < 0 || src >= g.gn then invalid_arg "Incremental.create: source out of range";
  let n = g.gn in
  let t =
    {
      g;
      src;
      dist = Array.make n unreachable;
      parent = Array.make n (-1);
      first_child = Array.make n (-1);
      next_sib = Array.make n (-1);
      prev_sib = Array.make n (-1);
      reach = 0;
      heap = Binary_heap.create ~capacity:(max 16 n) ();
      mark = Array.make n 0;
      stamp = 0;
    }
  in
  compute_full t;
  t

(* --- repair -------------------------------------------------------- *)

(* Log a vertex's pre-repair distance exactly once per repair. *)
let log_once t log x =
  if t.mark.(x) <> t.stamp then begin
    t.mark.(x) <- t.stamp;
    log := (x, t.dist.(x)) :: !log
  end

(* Collect the shortest-path-tree subtree rooted at [r] (inclusive). *)
let subtree t r acc =
  let stack = ref [ r ] in
  while !stack <> [] do
    match !stack with
    | [] -> ()
    | x :: rest ->
        stack := rest;
        acc := x :: !acc;
        let c = ref t.first_child.(x) in
        while !c >= 0 do
          stack := !c :: !stack;
          c := t.next_sib.(!c)
        done
  done

(* Repair after the mirror graph changed at vertex [u]: the edges in
   [removed] were deleted from u's out-list and those in [added] were
   inserted.  Distances of vertices whose shortest-path-tree route used
   a removed edge are invalidated (whole subtrees, conservatively) and
   recomputed by a Dijkstra seeded from the unaffected boundary; added
   edges feed ordinary decrease-only relaxation.  Returns the number of
   vertices whose distance actually changed. *)
let repair t ~u ~removed ~added =
  if t.dist.(u) = unreachable then begin
    (* u was and stays unreachable from the source: no route from the
       source uses u's out-edges, so no distance can change. *)
    Bbc_obs.incr obs_noop;
    0
  end
  else begin
    t.stamp <- t.stamp + 1;
    let log = ref [] in
    (* 1. Invalidate subtrees hanging off removed tree edges. *)
    let affected = ref [] in
    List.iter
      (fun (v, _len) -> if t.parent.(v) = u then subtree t v affected)
      removed;
    List.iter
      (fun a ->
        log_once t log a;
        t.dist.(a) <- unreachable;
        t.reach <- t.reach - 1;
        detach t a)
      !affected;
    Binary_heap.clear t.heap;
    let improve x nd p =
      log_once t log x;
      if t.dist.(x) = unreachable then t.reach <- t.reach + 1;
      t.dist.(x) <- nd;
      detach t x;
      attach t x p;
      Binary_heap.push t.heap nd x
    in
    (* 2. Seed affected vertices from their unaffected in-neighbours. *)
    List.iter
      (fun a ->
        List.iter
          (fun (p, len) ->
            if t.dist.(p) <> unreachable then begin
              let nd = t.dist.(p) + len in
              if nd < t.dist.(a) then improve a nd p
            end)
          t.g.bwd.(a))
      !affected;
    (* 3. Relax added edges (decrease-only from u). *)
    let du = t.dist.(u) in
    List.iter
      (fun (v, len) ->
        let nd = du + len in
        if nd < t.dist.(v) then improve v nd u)
      added;
    (* 4. Dijkstra over the improvable region. *)
    let rec drain () =
      match Binary_heap.pop t.heap with
      | None -> ()
      | Some (d, x) ->
          if d = t.dist.(x) then
            List.iter
              (fun (y, len) ->
                let nd = d + len in
                if nd < t.dist.(y) then improve y nd x)
              t.g.fwd.(x);
          drain ()
    in
    drain ();
    let changed =
      List.fold_left
        (fun acc (x, old_dist) -> if t.dist.(x) <> old_dist then acc + 1 else acc)
        0 !log
    in
    Bbc_obs.incr obs_repairs;
    Bbc_obs.observe obs_repair_size (List.length !log);
    changed
  end

(* --- debug oracle -------------------------------------------------- *)

let well_formed t =
  let ok = ref (t.dist.(t.src) = 0) in
  let reach = ref 0 in
  for x = 0 to t.g.gn - 1 do
    if t.dist.(x) <> unreachable then incr reach;
    let p = t.parent.(x) in
    if p >= 0 then begin
      (match List.assoc_opt x t.g.fwd.(p) with
      | Some len -> if t.dist.(p) = unreachable || t.dist.(p) + len <> t.dist.(x) then ok := false
      | None -> ok := false);
      (* x must appear in p's child list exactly once *)
      let seen = ref 0 in
      let c = ref t.first_child.(p) in
      while !c >= 0 do
        if !c = x then incr seen;
        c := t.next_sib.(!c)
      done;
      if !seen <> 1 then ok := false
    end
  done;
  !ok && !reach = t.reach
