(* One implicit connection on stdin/stdout: read until EOF (or an
   executed [shutdown]), answering each batch in admission order, then
   drain and return. *)
let run ~engine () =
  let engine = Engine.create engine in
  let interrupted = Atomic.make false in
  let emit replies =
    List.iter
      (fun (_, reply) ->
        print_string reply;
        print_newline ())
      replies;
    flush stdout
  in
  Front.with_signals interrupted (fun () ->
      (try
         while not (Atomic.get interrupted || Engine.shutdown_requested engine) do
           match input_line stdin with
           | line ->
               (if String.trim line <> "" then
                  match Engine.submit engine ~client:0 line with
                  | `Queued -> ()
                  | `Reply r -> emit [ (0, r) ]);
               emit (Engine.run_batch engine)
           | exception End_of_file -> raise Exit
         done
       with Exit -> ());
      Engine.begin_shutdown engine;
      emit (Engine.drain engine))
