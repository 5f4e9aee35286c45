type t = { dist : int array array }

(* Below this size the per-pivot fan-out costs more than the row work. *)
let parallel_threshold = 128

let relax_row dist k i =
  let dik = dist.(i).(k) in
  if dik <> Paths.unreachable then begin
    let row_i = dist.(i) and row_k = dist.(k) in
    let n = Array.length row_i in
    for j = 0 to n - 1 do
      let dkj = row_k.(j) in
      if dkj <> Paths.unreachable && dik + dkj < row_i.(j) then
        row_i.(j) <- dik + dkj
    done
  end

let obs_pivots = Bbc_obs.counter "apsp.pivots"
let obs_sweeps = Bbc_obs.counter "apsp.sweeps"

let floyd_warshall ?jobs g =
  let n = Digraph.n g in
  let jobs = match jobs with Some j -> max 1 j | None -> Bbc_parallel.default_jobs () in
  Bbc_obs.with_span "apsp.floyd_warshall"
    ~attrs:[ ("n", Bbc_obs.Int n); ("jobs", Bbc_obs.Int jobs) ] (fun () ->
      let dist = Array.init n (fun _ -> Array.make n Paths.unreachable) in
      for v = 0 to n - 1 do
        dist.(v).(v) <- 0
      done;
      Digraph.iter_edges g (fun u v len -> if len < dist.(u).(v) then dist.(u).(v) <- len);
      Bbc_obs.add obs_pivots n;
      if jobs = 1 || n < parallel_threshold then
        for k = 0 to n - 1 do
          for i = 0 to n - 1 do
            relax_row dist k i
          done
        done
      else
        (* Parallel Floyd–Warshall: for a fixed pivot [k] the row updates are
           independent, and pivot row [k] itself is a fixed point of pass [k]
           (d(k,k) = 0), so workers only read it — no write conflicts. *)
        for k = 0 to n - 1 do
          Bbc_parallel.parallel_for ~jobs 0 n (fun i -> relax_row dist k i)
        done;
      { dist })

(* Batched CSR sweeps: O(n (m + n)) on unit graphs instead of the
   Floyd–Warshall O(n^3), and unit-length snapshots run the bit-parallel
   MS-BFS kernel — one traversal per [Csr.batch_width] sources, reading
   the adjacency once per window instead of once per row.  Each pool
   pull claims one window, so parallel domains split the matrix into
   batch-sized row bands; rows are independent, hence the result is
   identical for every job count. *)
let compute ?jobs g =
  let n = Digraph.n g in
  let jobs = Bbc_parallel.jobs_for ?jobs ~threshold:parallel_threshold n in
  Bbc_obs.with_span "apsp.compute"
    ~attrs:[ ("n", Bbc_obs.Int n); ("jobs", Bbc_obs.Int jobs) ] (fun () ->
      let csr = Csr.of_digraph g in
      Bbc_obs.add obs_sweeps n;
      let dist = Array.init n (fun _ -> Array.make n Paths.unreachable) in
      (* jobs = 1 hands the whole range over as one chunk; [sssp_batch]
         windows it internally. *)
      Bbc_parallel.parallel_for_chunks ~jobs ~chunk:Csr.batch_width 0 n (fun lo hi ->
          let srcs = Array.init (hi - lo) (fun i -> lo + i) in
          Csr.sssp_batch csr
            (Workspace.scratch (Workspace.get ()))
            ~srcs
            ~rows:(Array.sub dist lo (hi - lo)));
      { dist })

let distance t u v = t.dist.(u).(v)

let matrix t = t.dist

let eccentricity t v =
  let best = ref 0 in
  let ok = ref true in
  Array.iteri
    (fun u d ->
      if u <> v then
        if d = Paths.unreachable then ok := false else if d > !best then best := d)
    t.dist.(v);
  if !ok then Some !best else None

let diameter t =
  let n = Array.length t.dist in
  if n <= 1 then Some 0
  else begin
    let best = ref 0 in
    let ok = ref true in
    for v = 0 to n - 1 do
      match eccentricity t v with
      | None -> ok := false
      | Some e -> if e > !best then best := e
    done;
    if !ok then Some !best else None
  end

let radius t =
  let n = Array.length t.dist in
  if n <= 1 then Some 0
  else begin
    let best = ref None in
    for v = 0 to n - 1 do
      match (eccentricity t v, !best) with
      | Some e, Some b when e >= b -> ()
      | Some e, _ -> best := Some e
      | None, _ -> ()
    done;
    !best
  end
