(* bigbench: landmark estimates of social cost on streamed paper
   families far larger than cache (random 3-out and a 3-offset
   circulant, n = 10^5, 128 landmarks), plus one exact sweep
   (landmarks = n) on a smaller random 3-out instance.

   The two large graphs are built from fixed seeds: a circulant's sweep
   time depends strongly on its offsets, which would make the workload
   seed, not the code, decide the figures.  The workload seed picks the
   landmarks and the exact-sweep instance.

   Checks: every estimate repeats bit for bit across cycles; the exact
   sweep equals Eval.social_cost on the family's materialized reference;
   a sampled estimate of that same instance lies within its stated
   bound of the exact value. *)

open Bbc

type item = {
  name : string;
  inst : Instance.t;
  csr : Bbc_graph.Csr.t;
  landmarks : int;
  lseed : int;
  family : Gen_instance.family;
  n : int;
  k : int;
  seed : int;
  mutable first : float option;  (** the first cycle's estimate *)
}

type state = {
  items : item array;
  exact : int;  (** Eval.social_cost of the small instance *)
}

let build ~tiny ~seed =
  let big = if tiny then 2_000 else 100_000 and small = if tiny then 500 else 8_192 in
  let graph ~seed family n k =
    let inst, csr =
      Tracer.span "gen" "streaming" (fun () -> Gen_instance.streaming family ~n ~k ~seed)
    in
    (family, n, k, seed, inst, csr)
  in
  let random = graph ~seed:1 Gen_instance.Random_k big 3 in
  let circulant = graph ~seed:4 Gen_instance.Circulant big 3 in
  let exact = graph ~seed Gen_instance.Random_k small 3 in
  let item name (family, n, k, seed, inst, csr) ~landmarks ~lseed =
    { name; inst; csr; landmarks; lseed; family; n; k; seed; first = None }
  in
  [|
    item "random-a" random ~landmarks:128 ~lseed:seed;
    item "random-b" random ~landmarks:128 ~lseed:(seed + 1);
    item "circulant-a" circulant ~landmarks:128 ~lseed:seed;
    item "circulant-b" circulant ~landmarks:128 ~lseed:(seed + 1);
    item "exact" exact ~landmarks:small ~lseed:seed;
    item "sampled" exact ~landmarks:128 ~lseed:seed;
  |]

let estimate it =
  Tracer.span "approx" "social_cost" (fun () ->
      Approx.social_cost ~landmarks:it.landmarks ~seed:it.lseed it.inst it.csr)

let reference it =
  let inst, cfg = Gen_instance.streaming_reference it.family ~n:it.n ~k:it.k ~seed:it.seed in
  Tracer.span "eval" "social_cost" (fun () -> Eval.social_cost inst cfg)

let run ~tiny ~plant (ctx : Util.ctx) =
  let setup () =
    let items = build ~tiny ~seed:ctx.seed in
    (* Warm-up: one estimate per graph fills the row pools and the
       kernels' cached transposes. *)
    List.iter (fun i -> ignore (estimate items.(i))) [ 0; 2; 5 ];
    { items; exact = reference items.(4) }
  in
  let cycle st t =
    Array.iter
      (fun it ->
        let e = estimate it in
        let value = if plant && it.name = "exact" then e.value +. 1. else e.value in
        let repeatable =
          match it.first with
          | None ->
              it.first <- Some value;
              true
          | Some v -> v = value
        in
        let ok =
          repeatable
          &&
          match it.name with
          | "exact" -> e.exact && value = float_of_int st.exact
          | "sampled" -> Float.abs (value -. float_of_int st.exact) <= e.bound
          | _ -> Float.is_finite value && value > 0.
        in
        if not ok then prerr_endline ("bigbench: wrong estimate on " ^ it.name);
        Harness.record t ~ok)
      st.items
  in
  (* The layers an estimate calls, on the workload's own graphs. *)
  let replay st m _ =
    let distinct =
      List.sort_uniq compare
        (Array.to_list (Array.map (fun it -> (it.family, it.n, it.k, it.seed)) st.items))
    in
    Replay.gen m distinct;
    Replay.approx m
      (Array.to_list
         (Array.map (fun it -> (it.landmarks, fun () -> ignore (estimate it))) st.items));
    Replay.csr m [ st.items.(2).csr; st.items.(4).csr ];
    (* The reference the exact sweep is checked against. *)
    let (_ : int), ns = Util.time_ns (fun () -> reference st.items.(4)) in
    Report.set m "eval.social_cost_ms" "ms" (Util.ms_of_ns ns)
  in
  (* The sampled estimate on the pool. *)
  let parallel st ~jobs =
    let it = st.items.(5) in
    ignore (Approx.social_cost ~jobs ~landmarks:it.landmarks ~seed:it.lseed it.inst it.csr)
  in
  Harness.run ctx ~setup ~cycle ~replay ~parallel
