(* Shared plumbing: clocks, quantiles, process memory, the machine
   stamp, scratch directories, and the run context every workload
   receives. *)

let now_ns = Bbc_obs.now_ns
let now_s () = float_of_int (now_ns ()) /. 1e9
let ms_of_ns ns = float_of_int ns /. 1e6

let time_ns f =
  let t0 = now_ns () in
  let r = f () in
  (r, now_ns () - t0)

(* Linear-interpolated quantile (the "type 7" definition); [q] in [0,1]. *)
let quantile q xs =
  match Array.length xs with
  | 0 -> nan
  | len ->
      let a = Array.copy xs in
      Array.sort compare a;
      let pos = q *. float_of_int (len - 1) in
      let lo = int_of_float (floor pos) in
      let hi = min (len - 1) (lo + 1) in
      let frac = pos -. float_of_int lo in
      a.(lo) +. (frac *. (a.(hi) -. a.(lo)))

let median xs = quantile 0.5 xs

(* Reads to end of file: /proc files report a length of 0. *)
let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () ->
      let buf = Buffer.create 4096 in
      let chunk = Bytes.create 4096 in
      let rec go () =
        match input ic chunk 0 4096 with
        | 0 -> Buffer.contents buf
        | n ->
            Buffer.add_subbytes buf chunk 0 n;
            go ()
      in
      go ())

(* A field of /proc/self/status in kB ("VmHWM", "VmRSS"). *)
let proc_status_kb field =
  match read_file "/proc/self/status" with
  | exception Sys_error _ -> None
  | text ->
      String.split_on_char '\n' text
      |> List.find_map (fun line ->
             match String.index_opt line ':' with
             | Some i when String.sub line 0 i = field ->
                 let rest = String.sub line (i + 1) (String.length line - i - 1) in
                 Scanf.sscanf_opt (String.trim rest) "%d" (fun kb -> kb)
             | _ -> None)

let peak_rss_mb () =
  match proc_status_kb "VmHWM" with
  | Some kb -> float_of_int kb /. 1024.
  | None -> nan

(* ---------------------------------------------------------------- *)
(* Machine stamp                                                      *)

(* CPUs this process may run on (what nproc prints). *)
let nproc () =
  let from_status =
    match read_file "/proc/self/status" with
    | exception Sys_error _ -> None
    | text ->
        String.split_on_char '\n' text
        |> List.find_map (fun line ->
               let key = "Cpus_allowed_list:" in
               let kl = String.length key in
               if String.length line > kl && String.sub line 0 kl = key then
                 let spec = String.trim (String.sub line kl (String.length line - kl)) in
                 Some
                   (List.fold_left
                      (fun acc range ->
                        match String.split_on_char '-' range with
                        | [ a ] when a <> "" -> acc + 1
                        | [ a; b ] -> acc + (int_of_string b - int_of_string a + 1)
                        | _ -> acc)
                      0
                      (String.split_on_char ',' spec))
               else None)
  in
  match from_status with
  | Some c when c > 0 -> c
  | _ -> Domain.recommended_domain_count ()

let cpu_model () =
  match read_file "/proc/cpuinfo" with
  | exception Sys_error _ -> "unknown"
  | text ->
      String.split_on_char '\n' text
      |> List.find_map (fun line ->
             match String.index_opt line ':' with
             | Some i when String.trim (String.sub line 0 i) = "model name" ->
                 Some (String.trim (String.sub line (i + 1) (String.length line - i - 1)))
             | _ -> None)
      |> Option.value ~default:"unknown"

(* The checkout's own revision; "none" where it is not a git work tree
   (a git repository further up must not answer for it). *)
let git_rev () =
  if not (Sys.file_exists ".git") then "none"
  else
    match Unix.open_process_in "git rev-parse HEAD 2>/dev/null" with
    | exception Unix.Unix_error _ -> "none"
    | ic ->
        let line = try String.trim (input_line ic) with End_of_file -> "" in
        ignore (Unix.close_process_in ic);
        if line = "" then "none" else line

(* Digest of every library source file: identifies the code under test
   even where the checkout is not a git repository. *)
let source_digest () =
  let rec walk dir acc =
    Array.fold_left
      (fun acc name ->
        let path = Filename.concat dir name in
        if Sys.is_directory path then walk path acc
        else if
          List.exists (Filename.check_suffix name) [ ".ml"; ".mli"; ".c" ]
        then path :: acc
        else acc)
      acc
      (try Sys.readdir dir with Sys_error _ -> [||])
  in
  let files = List.sort compare (walk "lib" []) in
  let buf = Buffer.create 4096 in
  List.iter
    (fun f ->
      Buffer.add_string buf f;
      Buffer.add_string buf (Digest.to_hex (Digest.file f)))
    files;
  Digest.to_hex (Digest.string (Buffer.contents buf))

(* ---------------------------------------------------------------- *)
(* Run context                                                        *)

type ctx = {
  workload : string;
  seed : int;
  seconds : float;
  trace : bool;
  jobs : int;  (** domains, and connections of the served replay *)
  work_dir : string;  (** private scratch directory inside the checkout *)
  server_exe : string;
}

(* ---------------------------------------------------------------- *)
(* Scratch directories                                                *)

let rec rm_rf path =
  match Unix.lstat path with
  | exception Unix.Unix_error _ -> ()
  | { Unix.st_kind = Unix.S_DIR; _ } ->
      Array.iter (fun n -> rm_rf (Filename.concat path n)) (Sys.readdir path);
      Unix.rmdir path
  | _ -> Sys.remove path

let rec mkdir_p path =
  if not (Sys.file_exists path) then begin
    mkdir_p (Filename.dirname path);
    try Unix.mkdir path 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

let fresh_dir =
  let counter = ref 0 in
  fun ctx prefix ->
    incr counter;
    let d = Filename.concat ctx.work_dir (Printf.sprintf "%s-%d" prefix !counter) in
    rm_rf d;
    mkdir_p d;
    d

(* ---------------------------------------------------------------- *)
(* Timed loops                                                        *)

(* Run [f] repeatedly until [seconds] of wall time have passed (at least
   once). *)
let repeat_for ~seconds f =
  let t0 = now_s () in
  let rec go () =
    f ();
    if now_s () -. t0 < seconds then go ()
  in
  go ()

(* Run [setup] [times] times, keeping the last result; the median
   set-up time is the benchmark's [setup_s]. *)
let repeated_setup ~times setup =
  let durations = Array.make times 0. in
  let last = ref None in
  for i = 0 to times - 1 do
    (* Drop the previous round's state before timing the next one, so
       every round starts from the same heap. *)
    last := None;
    Gc.full_major ();
    let r, ns = time_ns setup in
    durations.(i) <- float_of_int ns /. 1e9;
    last := Some r
  done;
  (Option.get !last, median durations)
