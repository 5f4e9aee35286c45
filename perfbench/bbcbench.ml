(* bbcbench --workload NAME --seed N --seconds S --trace 0|1
            [--tiny] [--plant-fault answer|reply]

   Runs one benchmark workload from the checkout root and prints, as its
   last line, {"correct":..,"attempted":..,"failed":..,"metrics":{..}}:
   the end-to-end metrics untraced (--trace 0), the per-layer metrics
   traced (--trace 1).  Every workload runs at one domain per CPU the
   process may use (nproc), never more, so no row can claim a speed-up
   the machine cannot deliver; a {"stamp":..} line before the result
   records the machine and that job count.  --tiny shrinks every input
   (for the benchmark's own tests); --plant-fault makes one output wrong,
   which the run must report as a failure: "answer" a workload result,
   "reply" a server reply in the campaign's traced served replay. *)

let workloads = [ "campaign"; "certify"; "bigbench" ]

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10. and trace = ref 0 in
  let tiny = ref false and plant = ref "" in
  let specs =
    [
      ("--workload", Arg.Set_string workload, "NAME one of " ^ String.concat ", " workloads);
      ("--seed", Arg.Set_int seed, "N input seed");
      ("--seconds", Arg.Set_float seconds, "S measured time");
      ("--trace", Arg.Set_int trace, "0|1 per-layer traced run");
      ("--tiny", Arg.Set tiny, " tiny inputs");
      ("--plant-fault", Arg.Set_string plant, "answer|reply make one output wrong");
    ]
  in
  let usage = "bbcbench --workload NAME --seed N --seconds S --trace 0|1" in
  Arg.parse specs (fun a -> raise (Arg.Bad ("unexpected argument " ^ a))) usage;
  let fail msg =
    prerr_endline ("bbcbench: " ^ msg);
    exit 2
  in
  if not (List.mem !workload workloads) then fail ("unknown workload " ^ !workload);
  if !trace <> 0 && !trace <> 1 then fail "--trace must be 0 or 1";
  if not (List.mem !plant [ ""; "answer"; "reply" ]) then fail "--plant-fault: answer or reply";
  if !plant = "reply" && not (!workload = "campaign" && !trace = 1) then
    fail "--plant-fault reply: only the traced campaign run serves requests";
  if !seconds <= 0. then fail "--seconds must be positive";
  let nproc = Util.nproc () in
  let server_exe = Filename.concat "_build" (Filename.concat "default" "bin/bbc_cli.exe") in
  if not (Sys.file_exists "lib" && Sys.file_exists server_exe) then
    fail "run from the repository root after building bin/bbc_cli.exe";
  Bbc_parallel.set_default_jobs nproc;
  let work_dir =
    Filename.concat "perfbench" (Filename.concat "_work" (string_of_int (Unix.getpid ())))
  in
  let ctx =
    {
      Util.workload = !workload;
      seed = !seed;
      seconds = !seconds;
      trace = !trace = 1;
      jobs = nproc;
      work_dir;
      server_exe;
    }
  in
  let stamp =
    Bbc.Json.Obj
      [
        ( "stamp",
          Bbc.Json.Obj
            [
              ("workload", Bbc.Json.Str ctx.workload);
              ("seed", Bbc.Json.Int ctx.seed);
              ("seconds", Bbc.Json.Float ctx.seconds);
              ("trace", Bbc.Json.Bool ctx.trace);
              ("nproc", Bbc.Json.Int nproc);
              ("cpu_model", Bbc.Json.Str (Util.cpu_model ()));
              ("recommended_domain_count", Bbc.Json.Int (Domain.recommended_domain_count ()));
              ("ocaml_version", Bbc.Json.Str Sys.ocaml_version);
              ("git_rev", Bbc.Json.Str (Util.git_rev ()));
              ("lib_digest", Bbc.Json.Str (Util.source_digest ()));
              ("jobs", Bbc.Json.Int nproc);
              ("connections", Bbc.Json.Int nproc);
            ] );
      ]
  in
  print_endline (Bbc.Json.to_string stamp);
  (* Termination unwinds like an error, so a spawned server is stopped
     and the scratch directory removed. *)
  List.iter
    (fun s -> Sys.set_signal s (Sys.Signal_handle (fun _ -> failwith "terminated")))
    [ Sys.sigterm; Sys.sigint ];
  Util.mkdir_p work_dir;
  let run () =
    let tiny = !tiny and plant = !plant = "answer" and corrupt = !plant = "reply" in
    match ctx.workload with
    | "campaign" -> W_campaign.run ~tiny ~plant ~corrupt ctx
    | "certify" -> W_certify.run ~tiny ~plant ctx
    | _ -> W_bigbench.run ~tiny ~plant ctx
  in
  let cleanup () =
    Util.rm_rf work_dir;
    try Unix.rmdir (Filename.dirname work_dir) with Unix.Unix_error _ -> ()
  in
  match Fun.protect ~finally:cleanup run with
  | attempted, failed, m ->
      Report.print_result ~correct:(failed = 0) ~attempted ~failed m
  | exception e ->
      prerr_endline ("bbcbench: " ^ Printexc.to_string e);
      exit 1
