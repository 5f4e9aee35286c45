(* The server under test and the open-loop load generator.

   [spawn] starts `bbc_cli serve --tcp 127.0.0.1:0` in its own process
   with default settings (one worker) and learns the port from its
   "listening on" line.  [call] is a blocking request/response used for
   set-up and checks.  [open_loop] drives pipelined connections from
   one thread: requests are issued at seeded Poisson arrival times
   whether or not earlier ones were answered, each is timed from when it
   was due, and the generator's own lateness is recorded so a stalled
   generator cannot pass for a fast server. *)

module Json = Bbc.Json

type server = { pid : int; port : int }

let rec waitpid_timeout pid deadline =
  match Unix.waitpid [ Unix.WNOHANG ] pid with
  | 0, _ ->
      if Util.now_s () > deadline then false
      else begin
        Unix.sleepf 0.01;
        waitpid_timeout pid deadline
      end
  | _ -> true
  | exception Unix.Unix_error (Unix.ECHILD, _, _) -> true
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> waitpid_timeout pid deadline

let kill_and_wait pid =
  (try Unix.kill pid Sys.sigterm with Unix.Unix_error _ -> ());
  if not (waitpid_timeout pid (Util.now_s () +. 5.)) then begin
    (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
    ignore (waitpid_timeout pid (Util.now_s () +. 5.))
  end

let spawn ~exe ~dir =
  let out_path = Filename.concat dir "server.out" in
  let err_path = Filename.concat dir "server.err" in
  let out = Unix.openfile out_path [ O_WRONLY; O_CREAT; O_TRUNC ] 0o644 in
  let err = Unix.openfile err_path [ O_WRONLY; O_CREAT; O_TRUNC ] 0o644 in
  let pid =
    Unix.create_process exe [| exe; "serve"; "--tcp"; "127.0.0.1:0" |] Unix.stdin out err
  in
  Unix.close out;
  Unix.close err;
  let deadline = Util.now_s () +. 30. in
  let rec wait_port () =
    let text = try Util.read_file out_path with Sys_error _ -> "" in
    match
      String.split_on_char '\n' text
      |> List.find_map (fun l -> Scanf.sscanf_opt l "listening on tcp:%s@:%d" (fun _ p -> p))
    with
    | Some port -> port
    | None ->
        if Util.now_s () > deadline || Unix.waitpid [ Unix.WNOHANG ] pid <> (0, Unix.WEXITED 0)
        then begin
          kill_and_wait pid;
          failwith
            ("server did not start: "
            ^ try Util.read_file err_path with Sys_error _ -> "")
        end
        else begin
          Unix.sleepf 0.005;
          wait_port ()
        end
  in
  { pid; port = wait_port () }

(* ---------------------------------------------------------------- *)
(* Blocking connections                                               *)

type conn = { fd : Unix.file_descr; ic : in_channel; oc : out_channel }

let connect server =
  match Bbc_server.Net.connect (Bbc_server.Net.Tcp ("127.0.0.1", server.port)) with
  | Error e -> failwith ("connect: " ^ e)
  | Ok fd -> { fd; ic = Unix.in_channel_of_descr fd; oc = Unix.out_channel_of_descr fd }

let close c = try Unix.close c.fd with Unix.Unix_error _ -> ()

let request_line ~id meth params =
  Json.to_string
    (Json.Obj [ ("id", Json.Int id); ("method", Json.Str meth); ("params", Json.Obj params) ])

(* One request, one reply: [Ok result] or [Error message]. *)
let call c meth params =
  output_string c.oc (request_line ~id:0 meth params);
  output_char c.oc '\n';
  flush c.oc;
  match Json.of_string (input_line c.ic) with
  | Error e -> Error ("unparseable reply: " ^ e)
  | Ok reply -> (
      match (Json.member "ok" reply, Json.member "error" reply) with
      | Some r, _ -> Ok r
      | None, Some e -> Error (Json.to_string e)
      | None, None -> Error "reply without ok or error")

let call_exn c meth params =
  match call c meth params with
  | Ok r -> r
  | Error e -> failwith (Printf.sprintf "%s: %s" meth e)

let stop server =
  (match connect server with
  | c ->
      (try ignore (call c "shutdown" []) with _ -> ());
      close c
  | exception Failure _ -> ());
  if not (waitpid_timeout server.pid (Util.now_s () +. 10.)) then kill_and_wait server.pid

(* Round-trip time of [ping] over one connection, microseconds. *)
let rtt_us c ~count =
  let s = Report.samples () in
  for _ = 1 to count do
    let _, ns = Util.time_ns (fun () -> ignore (call_exn c "ping" [])) in
    Report.add s (float_of_int ns /. 1e3)
  done;
  Report.q s 0.5

(* ---------------------------------------------------------------- *)
(* Open loop                                                          *)

type request = {
  meth : string;
  params : (string * Json.t) list;
  check : Json.t -> bool;  (** judges the [ok] result *)
}

type step = {
  sent : int;
  failed : int;  (** error replies, wrong answers and missing replies *)
  latency_ms : float array;  (** due time to reply, per request *)
  late_ms : float array;  (** send time minus due time, per request *)
}

type oconn = {
  ofd : Unix.file_descr;
  inbuf : Buffer.t;
  mutable out : string;  (** bytes not yet written *)
}

let exp_gap rng rate =
  let u = Bbc_prng.Splitmix.float rng 1.0 in
  -.log (1. -. u) /. rate

(* How long the open loop waits for outstanding replies after its last
   request; replies still missing then count as failures. *)
let drain_s = 10.

(* Drive [conns] at [rate] requests/s for [seconds], then drain.  [next i]
   makes request [i]; [corrupt] (tests only) garbles one reply before it
   is checked. *)
let open_loop ?(corrupt = false) ~server ~conns ~rng ~rate ~seconds next =
  let cs =
    Array.init conns (fun _ ->
        let c = connect server in
        Unix.set_nonblock c.fd;
        { ofd = c.fd; inbuf = Buffer.create 4096; out = "" })
  in
  let pending = Hashtbl.create 1024 in
  let latency = ref [] and late = ref [] and failed = ref 0 and sent = ref 0 in
  let corrupted = ref (not corrupt) in
  let t0 = Util.now_ns () in
  let stop_send = t0 + int_of_float (seconds *. 1e9) in
  let give_up = stop_send + int_of_float (drain_s *. 1e9) in
  let next_due = ref (t0 + int_of_float (exp_gap rng rate *. 1e9)) in
  let id = ref 0 in
  let issue now =
    while !next_due <= now && !next_due < stop_send do
      let r = next !id in
      let c = cs.(!id mod conns) in
      c.out <- c.out ^ request_line ~id:!id r.meth r.params ^ "\n";
      Hashtbl.replace pending !id (!next_due, r.check);
      late := Util.ms_of_ns (now - !next_due) :: !late;
      incr id;
      incr sent;
      next_due := !next_due + int_of_float (exp_gap rng rate *. 1e9)
    done
  in
  let write c =
    if c.out <> "" then
      match Unix.write_substring c.ofd c.out 0 (String.length c.out) with
      | n -> c.out <- String.sub c.out n (String.length c.out - n)
      | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) -> ()
  in
  let chunk = Bytes.create 65536 in
  let on_line now line =
    let verdict =
      match Json.of_string line with
      | Error _ -> None
      | Ok reply -> (
          match Option.bind (Json.member "id" reply) Json.to_int with
          | None -> None
          | Some rid -> (
              match Hashtbl.find_opt pending rid with
              | None -> None
              | Some (due, check) ->
                  Hashtbl.remove pending rid;
                  let ok =
                    match Json.member "ok" reply with
                    | Some r when not !corrupted ->
                        corrupted := true;
                        check (Json.Obj [ ("corrupted", r) ])
                    | Some r -> check r
                    | None -> false
                  in
                  Some (due, ok)))
    in
    match verdict with
    | Some (due, ok) ->
        latency := Util.ms_of_ns (now - due) :: !latency;
        if not ok then incr failed
    | None -> incr failed
  in
  let read c now =
    match Unix.read c.ofd chunk 0 (Bytes.length chunk) with
    | 0 -> failwith "server closed a connection"
    | n ->
        Buffer.add_subbytes c.inbuf chunk 0 n;
        let s = Buffer.contents c.inbuf in
        let last = ref 0 in
        String.iteri
          (fun i ch ->
            if ch = '\n' then begin
              on_line now (String.sub s !last (i - !last));
              last := i + 1
            end)
          s;
        Buffer.clear c.inbuf;
        Buffer.add_string c.inbuf (String.sub s !last (String.length s - !last))
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) -> ()
  in
  let fds = Array.to_list (Array.map (fun c -> c.ofd) cs) in
  let rec loop () =
    let now = Util.now_ns () in
    issue now;
    Array.iter write cs;
    let sending = !next_due < stop_send in
    if (sending || Hashtbl.length pending > 0) && now < give_up then begin
      let wake = if sending then !next_due else give_up in
      let timeout = Float.max 0. (float_of_int (wake - now) /. 1e9) in
      let wfds =
        Array.to_list cs |> List.filter (fun c -> c.out <> "") |> List.map (fun c -> c.ofd)
      in
      (match Unix.select fds wfds [] timeout with
      | r, _, _ ->
          let now = Util.now_ns () in
          Array.iter (fun c -> if List.mem c.ofd r then read c now) cs
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> ());
      loop ()
    end
  in
  Fun.protect
    ~finally:(fun () -> Array.iter (fun c -> try Unix.close c.ofd with _ -> ()) cs)
    (fun () -> Tracer.span "net" "open_loop" loop);
  failed := !failed + Hashtbl.length pending;
  {
    sent = !sent;
    failed = !failed;
    latency_ms = Array.of_list !latency;
    late_ms = Array.of_list !late;
  }

(* Engine counters the server reports through its [stats] method. *)
let stats c =
  let s = call_exn c "stats" [] in
  let int name = Option.value ~default:0 (Option.bind (Json.member name s) Json.to_int) in
  let served =
    match Json.member "served" s with
    | Some (Json.Obj l) ->
        List.fold_left (fun a (_, v) -> a + Option.value ~default:0 (Json.to_int v)) 0 l
    | _ -> 0
  in
  (served, int "batches", int "overloaded", int "timeouts")
