type t = { w_pid : int; w_fd : Unix.file_descr }

(* ---------------------------------------------------------------- *)
(* Line I/O on non-blocking descriptors (shared with the front)       *)

let chunk = Bytes.create 65536

let read_some fd buf =
  match Unix.read fd chunk 0 (Bytes.length chunk) with
  | 0 -> `Closed
  | n ->
      Buffer.add_subbytes buf chunk 0 n;
      `Data
  | exception Unix.Unix_error ((EAGAIN | EWOULDBLOCK | EINTR), _, _) -> `Again
  | exception Unix.Unix_error (_, _, _) -> `Closed

let split_lines buf f =
  let data = Buffer.contents buf in
  let len = String.length data in
  let rec go start =
    match String.index_from_opt data start '\n' with
    | Some nl ->
        f (String.sub data start (nl - start));
        go (nl + 1)
    | None ->
        if start > 0 then begin
          Buffer.clear buf;
          Buffer.add_substring buf data start (len - start)
        end
  in
  go 0

let flush_some fd buf =
  let len = Buffer.length buf in
  len = 0
  ||
  match Unix.write_substring fd (Buffer.contents buf) 0 len with
  | written ->
      if written = len then Buffer.clear buf
      else if written > 0 then begin
        let rest = Buffer.sub buf written (len - written) in
        Buffer.clear buf;
        Buffer.add_string buf rest
      end;
      true
  | exception Unix.Unix_error ((EAGAIN | EWOULDBLOCK | EINTR), _, _) -> true
  | exception Unix.Unix_error (_, _, _) -> false

(* Write everything, blocking: only used at drain time, when the loop
   is done and losing answers matters more than latency. *)
let write_all fd data =
  let len = String.length data in
  let off = ref 0 in
  (try Unix.clear_nonblock fd with Unix.Unix_error (_, _, _) -> ());
  try
    while !off < len do
      let n = Unix.write_substring fd data !off (len - !off) in
      if n <= 0 then raise Exit;
      off := !off + n
    done
  with
  | Exit -> ()
  | Unix.Unix_error (_, _, _) -> ()

(* ---------------------------------------------------------------- *)
(* The child                                                          *)

let drain_and_exit engine fd outbuf =
  Engine.begin_shutdown engine;
  List.iter
    (fun (token, reply) ->
      Buffer.add_string outbuf (Frame.encode (Frame.Answer (token, reply))))
    (Engine.drain engine);
  write_all fd (Buffer.contents outbuf);
  (try Unix.close fd with Unix.Unix_error (_, _, _) -> ());
  (* _exit, not exit: at_exit callbacks and channel flushers inherited
     from the parent must not run twice. *)
  Unix._exit 0

let run ~engine fd =
  let engine = Engine.create engine in
  let inbuf = Buffer.create 4096 in
  let outbuf = Buffer.create 4096 in
  Unix.set_nonblock fd;
  let fds = [| fd |] in
  let events = [| 0 |] in
  let revents = [| 0 |] in
  let handle_line line =
    if line <> "" then
      match Frame.decode line with
      | Ok (Frame.Query (token, payload)) -> (
          match Engine.submit engine ~client:token payload with
          | `Queued -> ()
          | `Reply r -> Buffer.add_string outbuf (Frame.encode (Frame.Answer (token, r))))
      | Ok Frame.Stop -> drain_and_exit engine fd outbuf
      | Ok (Frame.Answer _) | Error _ ->
          (* A malformed frame means the pipe is corrupt; continuing
             would misroute answers.  Drain what we have and exit. *)
          drain_and_exit engine fd outbuf
  in
  let rec loop () =
    events.(0) <-
      (Poll.pollin lor if Buffer.length outbuf > 0 then Poll.pollout else 0);
    let timeout_ms = if Engine.pending engine > 0 then 0 else 50 in
    ignore (Poll.poll ~fds ~events ~revents ~n:1 ~timeout_ms);
    if revents.(0) land Poll.pollin <> 0 then begin
      match read_some fd inbuf with
      | `Data -> split_lines inbuf handle_line
      | `Again -> ()
      | `Closed -> drain_and_exit engine fd outbuf (* front went away *)
    end
    else if revents.(0) land Poll.pollerr <> 0 then drain_and_exit engine fd outbuf;
    List.iter
      (fun (token, reply) ->
        Buffer.add_string outbuf (Frame.encode (Frame.Answer (token, reply))))
      (Engine.run_batch engine);
    if not (flush_some fd outbuf) then drain_and_exit engine fd outbuf;
    loop ()
  in
  (* Group signals (Ctrl-C on a terminal) must not kill workers before
     the front has drained them; shutdown arrives over the pipe. *)
  (try Sys.set_signal Sys.sigint Sys.Signal_ignore
   with Invalid_argument _ | Sys_error _ -> ());
  (try Sys.set_signal Sys.sigterm Sys.Signal_ignore
   with Invalid_argument _ | Sys_error _ -> ());
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore
   with Invalid_argument _ | Sys_error _ -> ());
  loop ()

let spawn ?(close_in_child = []) ~engine () =
  let parent_fd, child_fd = Unix.socketpair ~cloexec:true PF_UNIX SOCK_STREAM 0 in
  (* Anything buffered in this process would otherwise be flushed twice
     (once per process) when both sides exit. *)
  flush stdout;
  flush stderr;
  match Unix.fork () with
  | 0 ->
      (try Unix.close parent_fd with Unix.Unix_error (_, _, _) -> ());
      (* Listener and client fds inherited across the fork would keep
         connections half-alive if the front dies; a worker owns only
         its pipe. *)
      List.iter
        (fun fd -> try Unix.close fd with Unix.Unix_error (_, _, _) -> ())
        close_in_child;
      run ~engine child_fd
  | pid ->
      (try Unix.close child_fd with Unix.Unix_error (_, _, _) -> ());
      Unix.set_nonblock parent_fd;
      { w_pid = pid; w_fd = parent_fd }
