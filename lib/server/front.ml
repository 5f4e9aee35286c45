module Json = Bbc.Json

(* One client connection.  [c_order] holds the reorder tokens of every
   admitted-and-routed request in admission order; [c_ready] holds
   responses that came back before their turn.  A response is released
   to [c_outbuf] only when its token reaches the queue head, so answers
   cross worker boundaries without ever reordering on the wire. *)
type conn = {
  c_fd : Unix.file_descr;
  c_inbuf : Buffer.t;
  c_outbuf : Buffer.t;
  mutable c_eof : bool;
  c_order : int Queue.t;
  c_ready : (int, string) Hashtbl.t;
}

(* A [stats] request in flight: one part per worker alive at admission
   time, merged (field-wise sums) when the last part lands. *)
type fanout = {
  f_conn : int;
  f_token : int;  (** the client-facing reorder token *)
  f_id : Json.t;
  mutable f_parts : Json.t list;
  mutable f_missing : int;
}

type pend =
  | Direct of { d_conn : int; d_id : Json.t; d_worker : int }
  | Part of fanout * int  (** worker index *)

(* A forked worker, seen from the front's end of its socketpair. *)
type wstate = {
  w_index : int;
  mutable w_pid : int;
  mutable w_fd : Unix.file_descr;
  w_inbuf : Buffer.t;
  w_outbuf : Buffer.t;
  mutable w_eof : bool;
}

(* What serves a shard: an engine in this process ([workers = 1]), or
   a forked worker process. *)
type backend = Local of Engine.t | Forked of wstate

type t = {
  wcfg : Engine.config;
  workers : backend array;
  conns : (int, conn) Hashtbl.t;
  pending : (int, pend) Hashtbl.t;  (** worker-token -> continuation *)
  mutable next_conn : int;
  mutable next_token : int;
  mutable next_session : int;
  mutable stopping : bool;
  mutable respawns : int;
  mutable bad_exits : string list;  (** non-zero worker exits during drain *)
  interrupted : bool Atomic.t;
  mutable shutdown_req : bool;
}

type handle = t

let worker_pids t =
  List.filter_map
    (function Forked w -> Some w.w_pid | Local _ -> None)
    (Array.to_list t.workers)

let request_stop t = Atomic.set t.interrupted true

(* Per-connection buffer bounds: queue_cap backpressure caps queued
   requests but not these buffers, so without limits one client
   streaming newline-free bytes (inbuf) or submitting while never
   reading responses (outbuf) could exhaust server memory. *)
let max_line_bytes = 8 * 1024 * 1024
let max_outbuf_bytes = 256 * 1024 * 1024

(* ---------------------------------------------------------------- *)
(* Response delivery                                                  *)

let push_raw c reply =
  Buffer.add_string c.c_outbuf reply;
  Buffer.add_char c.c_outbuf '\n';
  if Buffer.length c.c_outbuf > max_outbuf_bytes then begin
    (* The peer is not reading its responses; drop it rather than
       buffer without bound. *)
    Buffer.clear c.c_outbuf;
    c.c_eof <- true
  end

(* Release every response whose turn has come. *)
let release c =
  let continue = ref true in
  while !continue && not (Queue.is_empty c.c_order) do
    let tok = Queue.peek c.c_order in
    match Hashtbl.find_opt c.c_ready tok with
    | Some reply ->
        ignore (Queue.pop c.c_order);
        Hashtbl.remove c.c_ready tok;
        push_raw c reply
    | None -> continue := false
  done

let deliver_ready st conn_id token reply =
  match Hashtbl.find_opt st.conns conn_id with
  | None -> ()  (* client hung up before its response was ready *)
  | Some c ->
      Hashtbl.replace c.c_ready token reply;
      release c

(* ---------------------------------------------------------------- *)
(* Stats merging                                                      *)

let rec merge_values a b =
  match (a, b) with
  | Json.Int x, Json.Int y -> Json.Int (x + y)
  | Json.Obj xs, Json.Obj ys -> Json.Obj (merge_fields xs ys)
  | _ -> a

and merge_fields xs ys =
  List.map
    (fun (k, v) ->
      match List.assoc_opt k ys with
      | Some w -> (k, merge_values v w)
      | None -> (k, v))
    xs
  @ List.filter (fun (k, _) -> not (List.mem_assoc k xs)) ys

let front_fields st =
  [
    ("workers", Json.Int (Array.length st.workers));
    ("respawns", Json.Int st.respawns);
    ("connections", Json.Int (Hashtbl.length st.conns));
  ]

let finish_fanout st f =
  let merged =
    List.fold_left
      (fun acc part -> match acc with None -> Some part | Some a -> Some (merge_values a part))
      None f.f_parts
  in
  let fields =
    match merged with Some (Json.Obj l) -> l @ front_fields st | _ -> front_fields st
  in
  deliver_ready st f.f_conn f.f_token (Protocol.ok ~id:f.f_id (Json.Obj fields))

(* ---------------------------------------------------------------- *)
(* Pending resolution                                                 *)

let resolve st token reply =
  match Hashtbl.find_opt st.pending token with
  | None -> ()  (* duplicate answer from a confused worker: drop *)
  | Some p -> (
      Hashtbl.remove st.pending token;
      match p with
      | Direct d -> deliver_ready st d.d_conn token reply
      | Part (f, _) ->
          (match Json.of_string reply with
          | Ok v -> (
              match Json.member "ok" v with
              | Some part -> f.f_parts <- part :: f.f_parts
              | None -> ())
          | Error _ -> ());
          f.f_missing <- f.f_missing - 1;
          if f.f_missing = 0 then finish_fanout st f)

(* A pend whose worker died: Direct gets a structured internal error;
   a fanout part is simply counted as missing. *)
let fail_pend st token p =
  Hashtbl.remove st.pending token;
  match p with
  | Direct d ->
      deliver_ready st d.d_conn token
        (Protocol.error ~id:d.d_id Protocol.Internal
           "worker died before answering; session state on its shard is lost")
  | Part (f, _) ->
      f.f_missing <- f.f_missing - 1;
      if f.f_missing = 0 then finish_fanout st f

(* ---------------------------------------------------------------- *)
(* Worker lifecycle                                                   *)

let reap ?(timeout_s = 5.0) pid =
  let deadline = Unix.gettimeofday () +. timeout_s in
  let kill_and_wait () =
    (try Unix.kill pid Sys.sigkill with Unix.Unix_error (_, _, _) -> ());
    match Unix.waitpid [] pid with
    | _, status -> status
    | exception Unix.Unix_error (_, _, _) -> Unix.WSIGNALED Sys.sigkill
  in
  let rec go () =
    match Unix.waitpid [ Unix.WNOHANG ] pid with
    | 0, _ ->
        if Unix.gettimeofday () >= deadline then kill_and_wait ()
        else begin
          ignore (Unix.select [] [] [] 0.01);
          go ()
        end
    | _, status -> status
    | exception Unix.Unix_error (ECHILD, _, _) -> Unix.WEXITED 0
    | exception Unix.Unix_error (EINTR, _, _) -> go ()
    | exception Unix.Unix_error (_, _, _) -> Unix.WEXITED 0
  in
  go ()

let status_string = function
  | Unix.WEXITED n -> Printf.sprintf "exited %d" n
  | Unix.WSIGNALED s -> Printf.sprintf "killed by signal %d" s
  | Unix.WSTOPPED s -> Printf.sprintf "stopped by signal %d" s

(* EOF or a corrupt frame on a worker pipe: fail its in-flight
   requests, reap it, and (outside a drain) fork a replacement onto the
   same shard.  Sessions that lived there are gone — later requests for
   them get [unknown_session] from the fresh engine, which is the
   documented crash policy. *)
let worker_died st ~listeners w =
  if not w.w_eof then begin
    w.w_eof <- true;
    (try Unix.close w.w_fd with Unix.Unix_error (_, _, _) -> ());
    Buffer.clear w.w_inbuf;
    Buffer.clear w.w_outbuf;
    let status = reap w.w_pid in
    if st.stopping && status <> Unix.WEXITED 0 then
      st.bad_exits <-
        Printf.sprintf "worker %d (pid %d) %s" w.w_index w.w_pid
          (status_string status)
        :: st.bad_exits;
    let affected =
      Hashtbl.fold
        (fun token p acc ->
          match p with
          | Direct d when d.d_worker = w.w_index -> (token, p) :: acc
          | Part (_, wi) when wi = w.w_index -> (token, p) :: acc
          | _ -> acc)
        st.pending []
    in
    List.iter (fun (token, p) -> fail_pend st token p) affected;
    if not st.stopping then begin
      let close_in_child =
        List.map (fun l -> l.Net.l_fd) listeners
        @ Hashtbl.fold (fun _ c acc -> c.c_fd :: acc) st.conns []
        @ Array.fold_left
            (fun acc -> function
              | Forked o when not o.w_eof -> o.w_fd :: acc
              | Forked _ | Local _ -> acc)
            [] st.workers
      in
      let fresh = Worker.spawn ~close_in_child ~engine:st.wcfg () in
      w.w_pid <- fresh.Worker.w_pid;
      w.w_fd <- fresh.Worker.w_fd;
      w.w_eof <- false;
      st.respawns <- st.respawns + 1
    end
  end

(* Hand a request to shard [wi] under [token].  The in-process engine
   takes the parsed request; a forked worker gets the raw line, forced
   only then. *)
let send st wi token req line =
  match st.workers.(wi) with
  | Local e -> (
      match Engine.admit e ~client:token req with
      | `Queued -> ()
      | `Reply r -> resolve st token r)
  | Forked w when w.w_eof ->
      (* Only reachable when a worker is down for good (draining): answer
         for it rather than leave the token dangling. *)
      resolve st token
        (Protocol.error ~id:Json.Null Protocol.Internal "worker unavailable")
  | Forked w ->
      Buffer.add_string w.w_outbuf
        (Frame.encode (Frame.Query (token, Lazy.force line)))

let flush_worker st ~listeners w =
  if not (Worker.flush_some w.w_fd w.w_outbuf) then worker_died st ~listeners w

exception Corrupt

let read_worker st ~listeners w =
  match Worker.read_some w.w_fd w.w_inbuf with
  | `Again -> ()
  | `Closed -> worker_died st ~listeners w
  | `Data -> (
      let answer line =
        if line <> "" then
          match Frame.decode line with
          | Ok (Frame.Answer (token, reply)) -> resolve st token reply
          | Ok (Frame.Query _ | Frame.Stop) | Error _ -> raise Corrupt
      in
      try Worker.split_lines w.w_inbuf answer
      with Corrupt ->
        (* Protocol corruption: answers can no longer be trusted to
           carry the right token.  Treat the worker as dead (its
           pendings fail, a fresh one spawns). *)
        (try Unix.kill w.w_pid Sys.sigkill with Unix.Unix_error (_, _, _) -> ());
        worker_died st ~listeners w)

(* ---------------------------------------------------------------- *)
(* Admission and routing                                              *)

let fresh_token st =
  let tok = st.next_token in
  st.next_token <- tok + 1;
  tok

(* A token with a place in the connection's reorder queue. *)
let take_token st c =
  let tok = fresh_token st in
  Queue.add tok c.c_order;
  tok

let local c token reply =
  Hashtbl.replace c.c_ready token reply;
  release c

let shard st key = Shard.of_session ~workers:(Array.length st.workers) key

let route st conn_id c wi (req : Protocol.request) line =
  let tok = take_token st c in
  Hashtbl.replace st.pending tok
    (Direct { d_conn = conn_id; d_id = req.id; d_worker = wi });
  send st wi tok req line

(* A gen/load_instance request with the front-minted session id
   attached as the "_session" param.  Any "_session" the client sent is
   dropped first: external clients never choose their own ids. *)
let with_session (req : Protocol.request) sid =
  let fields =
    match req.params with
    | Json.Obj l -> List.filter (fun (k, _) -> k <> "_session") l
    | _ -> []
  in
  { req with params = Json.Obj (fields @ [ ("_session", Json.Str sid) ]) }

let to_line (req : Protocol.request) =
  let base = [ ("id", req.id); ("method", Json.Str req.meth); ("params", req.params) ] in
  let base =
    match req.deadline_ms with
    | Some ms -> base @ [ ("deadline_ms", Json.Int ms) ]
    | None -> base
  in
  Json.to_string (Json.Obj base)

let admit st conn_id c line =
  if String.trim line <> "" then
    match Protocol.parse_request line with
    | Error (id, code, msg) ->
        (* Malformed lines jump the reorder queue: they never got a
           token. *)
        push_raw c (Protocol.error ~id code msg)
    | Ok req -> (
        if st.stopping then
          push_raw c
            (Protocol.error ~id:req.id Protocol.Shutting_down "server is draining")
        else
          match req.meth with
          | "ping" ->
              let tok = take_token st c in
              local c tok
                (Protocol.ok ~id:req.id (Json.Obj [ ("pong", Json.Bool true) ]))
          | "shutdown" ->
              st.shutdown_req <- true;
              let tok = take_token st c in
              local c tok
                (Protocol.ok ~id:req.id (Json.Obj [ ("stopping", Json.Bool true) ]))
          | "stats" -> (
              let alive =
                List.filter
                  (fun wi -> match st.workers.(wi) with Forked w -> not w.w_eof | Local _ -> true)
                  (List.init (Array.length st.workers) Fun.id)
              in
              let tok = take_token st c in
              match alive with
              | [] ->
                  local c tok
                    (Protocol.ok ~id:req.id (Json.Obj (front_fields st)))
              | alive ->
                  let f =
                    {
                      f_conn = conn_id;
                      f_token = tok;
                      f_id = req.id;
                      f_parts = [];
                      f_missing = List.length alive;
                    }
                  in
                  List.iter
                    (fun wi ->
                      let wtok = fresh_token st in
                      Hashtbl.replace st.pending wtok (Part (f, wi));
                      send st wi wtok req (Lazy.from_val line))
                    alive)
          | "gen" | "load_instance" ->
              let sid = Shard.mint st.next_session in
              st.next_session <- st.next_session + 1;
              let req = with_session req sid in
              route st conn_id c (shard st sid) req (lazy (to_line req))
          | _ ->
              (* Sessionless or malformed-session requests all hash the
                 empty string — any single worker can answer bad_params /
                 unknown_session correctly. *)
              let key =
                match Json.member "session" req.params with
                | Some (Json.Str s) -> s
                | _ -> ""
              in
              route st conn_id c (shard st key) req (Lazy.from_val line))

(* ---------------------------------------------------------------- *)
(* Client IO                                                          *)

let read_client st conn_id c =
  match Worker.read_some c.c_fd c.c_inbuf with
  | `Again -> ()
  | `Closed -> c.c_eof <- true
  | `Data ->
      Worker.split_lines c.c_inbuf (admit st conn_id c);
      if Buffer.length c.c_inbuf > max_line_bytes then begin
        (* No newline within the limit: answer with a structured error
           and close once it is flushed (eof stops further reads; sweep
           reaps the connection when outbuf drains). *)
        Buffer.clear c.c_inbuf;
        push_raw c
          (Protocol.error ~id:Json.Null Protocol.Bad_request
             (Printf.sprintf "request line exceeds %d bytes" max_line_bytes));
        c.c_eof <- true
      end

let write_client c =
  if not (Worker.flush_some c.c_fd c.c_outbuf) then begin
    Buffer.clear c.c_outbuf;
    c.c_eof <- true
  end

let close_conn st conn_id c =
  Hashtbl.remove st.conns conn_id;
  try Unix.close c.c_fd with Unix.Unix_error (_, _, _) -> ()

(* A connection is dropped once the peer closed it and every pending
   response has been flushed. *)
let sweep st =
  let dead =
    Hashtbl.fold
      (fun conn_id c acc ->
        if c.c_eof && Buffer.length c.c_outbuf = 0 then (conn_id, c) :: acc else acc)
      st.conns []
  in
  List.iter (fun (conn_id, c) -> close_conn st conn_id c) dead

(* ---------------------------------------------------------------- *)
(* Event loop                                                         *)

type slot = Slistener of Net.listener | Sclient of int * conn | Sworker of wstate

let rec accept_loop st l =
  match Net.accept l with
  | Some fd ->
      let conn_id = st.next_conn in
      st.next_conn <- conn_id + 1;
      Hashtbl.replace st.conns conn_id
        {
          c_fd = fd;
          c_inbuf = Buffer.create 256;
          c_outbuf = Buffer.create 256;
          c_eof = false;
          c_order = Queue.create ();
          c_ready = Hashtbl.create 8;
        };
      accept_loop st l
  | None -> ()

let local_pending st =
  Array.fold_left
    (fun acc -> function Local e -> acc + Engine.pending e | Forked _ -> acc)
    0 st.workers

(* One poll(2) wake-up: accept, read, route, run the in-process batch,
   flush.  poll rather than select because "thousands of connections"
   crosses FD_SETSIZE — select fails on any fd *number* >= 1024 no
   matter how few fds are actually watched.  poll does not wait while
   the in-process engine has queued work. *)
let step st ~listeners =
  let slots = ref [] in
  List.iter (fun l -> slots := Slistener l :: !slots) listeners;
  Hashtbl.iter
    (fun conn_id c ->
      if (not c.c_eof) || Buffer.length c.c_outbuf > 0 then
        slots := Sclient (conn_id, c) :: !slots)
    st.conns;
  Array.iter
    (function
      | Forked w when not w.w_eof -> slots := Sworker w :: !slots
      | Forked _ | Local _ -> ())
    st.workers;
  let slots = Array.of_list !slots in
  let n = Array.length slots in
  let fds =
    Array.map
      (function
        | Slistener l -> l.Net.l_fd | Sclient (_, c) -> c.c_fd | Sworker w -> w.w_fd)
      slots
  in
  let events =
    Array.map
      (function
        | Slistener _ -> Poll.pollin
        | Sclient (_, c) ->
            (if c.c_eof then 0 else Poll.pollin)
            lor (if Buffer.length c.c_outbuf > 0 then Poll.pollout else 0)
        | Sworker w ->
            Poll.pollin lor if Buffer.length w.w_outbuf > 0 then Poll.pollout else 0)
      slots
  in
  let revents = Array.make n 0 in
  let timeout_ms = if local_pending st > 0 then 0 else 50 in
  (match Poll.poll ~fds ~events ~revents ~n ~timeout_ms with
  | _ -> ()
  | exception Unix.Unix_error (_, _, _) -> ());
  Array.iteri
    (fun i slot ->
      let r = revents.(i) in
      match slot with
      | Slistener l -> if r land Poll.pollin <> 0 then accept_loop st l
      | Sclient (conn_id, c) ->
          if r land Poll.pollin <> 0 && not c.c_eof then read_client st conn_id c
          else if r land Poll.pollerr <> 0 then c.c_eof <- true
      | Sworker w ->
          if w.w_eof then ()
          else if r land Poll.pollin <> 0 then read_worker st ~listeners w
          else if r land Poll.pollerr <> 0 then worker_died st ~listeners w)
    slots;
  (* Run the in-process batch, then flush opportunistically: frames
     routed and responses released this wake-up were not in anyone's
     pollout set. *)
  Array.iter
    (function
      | Local e -> List.iter (fun (tok, reply) -> resolve st tok reply) (Engine.run_batch e)
      | Forked w -> if not w.w_eof then flush_worker st ~listeners w)
    st.workers;
  Hashtbl.iter (fun _ c -> write_client c) st.conns;
  sweep st

let stop_wanted st = Atomic.get st.interrupted || st.shutdown_req

(* ---------------------------------------------------------------- *)
(* Drain                                                              *)

let drain st listeners =
  st.stopping <- true;
  List.iter Net.close_listener listeners;
  (* Resolve every outstanding token: backends keep executing and the
     loop keeps routing their answers; nothing new is admitted. *)
  let give_up = Unix.gettimeofday () +. 30.0 in
  while Hashtbl.length st.pending > 0 && Unix.gettimeofday () < give_up do
    step st ~listeners:[]
  done;
  if Hashtbl.length st.pending > 0 then begin
    let leftovers = Hashtbl.fold (fun tok p acc -> (tok, p) :: acc) st.pending [] in
    List.iter (fun (tok, p) -> fail_pend st tok p) leftovers
  end;
  (* Stop frames: each worker drains its engine, flushes, exits 0. *)
  let forked =
    List.filter_map
      (function Forked w -> Some w | Local _ -> None)
      (Array.to_list st.workers)
  in
  List.iter
    (fun w ->
      if not w.w_eof then begin
        Buffer.add_string w.w_outbuf (Frame.encode Frame.Stop);
        Worker.write_all w.w_fd (Buffer.contents w.w_outbuf);
        Buffer.clear w.w_outbuf;
        (try Unix.close w.w_fd with Unix.Unix_error (_, _, _) -> ());
        w.w_eof <- true
      end)
    forked;
  let statuses = List.map (fun w -> (w, reap ~timeout_s:10.0 w.w_pid)) forked in
  (* Flush released responses to clients (bounded budget), then close. *)
  let flush_deadline = Unix.gettimeofday () +. 5.0 in
  let rec flush_clients () =
    let waiting =
      Hashtbl.fold
        (fun _ c acc ->
          if Buffer.length c.c_outbuf > 0 && not c.c_eof then c :: acc else acc)
        st.conns []
    in
    if waiting <> [] && Unix.gettimeofday () < flush_deadline then begin
      List.iter write_client waiting;
      let still =
        List.exists (fun c -> Buffer.length c.c_outbuf > 0 && not c.c_eof) waiting
      in
      if still then begin
        ignore (Unix.select [] [] [] 0.01);
        flush_clients ()
      end
    end
  in
  flush_clients ();
  Hashtbl.iter
    (fun _ c -> try Unix.close c.c_fd with Unix.Unix_error (_, _, _) -> ())
    st.conns;
  Hashtbl.reset st.conns;
  let status_bad =
    List.filter_map
      (fun (w, status) ->
        if status = Unix.WEXITED 0 then None
        else
          Some
            (Printf.sprintf "worker %d (pid %d) %s" w.w_index w.w_pid
               (status_string status)))
      statuses
  in
  let bad = st.bad_exits @ status_bad in
  if bad <> [] then failwith ("unclean worker exit: " ^ String.concat "; " bad)

(* ---------------------------------------------------------------- *)
(* Entry point                                                        *)

let with_signals interrupted f =
  let install s =
    match
      Sys.signal s (Sys.Signal_handle (fun _ -> Atomic.set interrupted true))
    with
    | prev -> Some prev
    | exception (Invalid_argument _ | Sys_error _) -> None
  in
  let pipe =
    match Sys.signal Sys.sigpipe Sys.Signal_ignore with
    | prev -> Some prev
    | exception (Invalid_argument _ | Sys_error _) -> None
  in
  let old_int = install Sys.sigint and old_term = install Sys.sigterm in
  Fun.protect f ~finally:(fun () ->
      let restore s prev =
        match prev with
        | Some b -> (
            try Sys.set_signal s b with Invalid_argument _ | Sys_error _ -> ())
        | None -> ()
      in
      restore Sys.sigint old_int;
      restore Sys.sigterm old_term;
      restore Sys.sigpipe pipe)

let run ?on_ready ~engine ~workers listeners =
  if workers < 1 then invalid_arg "Front.run: workers must be >= 1";
  let engine = { engine with Engine.assign_ids = true } in
  (* One engine per worker process: parallelism comes from the shards,
     so each worker defaults to a single-domain pool unless the caller
     explicitly sizes within-worker jobs.  The in-process engine keeps
     the caller's pool width. *)
  let wcfg =
    { engine with jobs = Some (max 1 (Option.value engine.Engine.jobs ~default:1)) }
  in
  let listener_fds = List.map (fun l -> l.Net.l_fd) listeners in
  let ws =
    if workers = 1 then [| Local (Engine.create engine) |]
    else begin
      let acc = ref [] in
      for i = 0 to workers - 1 do
        let close_in_child = listener_fds @ List.map (fun w -> w.w_fd) !acc in
        let fresh = Worker.spawn ~close_in_child ~engine:wcfg () in
        acc :=
          {
            w_index = i;
            w_pid = fresh.Worker.w_pid;
            w_fd = fresh.Worker.w_fd;
            w_inbuf = Buffer.create 4096;
            w_outbuf = Buffer.create 4096;
            w_eof = false;
          }
          :: !acc
      done;
      Array.of_list (List.rev_map (fun w -> Forked w) !acc)
    end
  in
  let st =
    {
      wcfg;
      workers = ws;
      conns = Hashtbl.create 64;
      pending = Hashtbl.create 256;
      next_conn = 1;
      next_token = 1;
      next_session = 0;
      stopping = false;
      respawns = 0;
      bad_exits = [];
      interrupted = Atomic.make false;
      shutdown_req = false;
    }
  in
  with_signals st.interrupted (fun () ->
      Option.iter (fun f -> f st) on_ready;
      while not (stop_wanted st) do
        step st ~listeners
      done;
      drain st listeners)
