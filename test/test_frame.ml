(* The front/worker pipe codec (lib/server/frame.ml).  The front treats
   any decode error as a corrupt pipe and kills the worker, so decode
   must accept everything encode produces and reject everything else. *)

module Frame = Bbc_server.Frame

let frame =
  Alcotest.testable
    (fun ppf -> function
      | Frame.Query (t, p) -> Format.fprintf ppf "Query (%d, %S)" t p
      | Frame.Answer (t, p) -> Format.fprintf ppf "Answer (%d, %S)" t p
      | Frame.Stop -> Format.pp_print_string ppf "Stop")
    ( = )

(* encode yields one line; decode takes it without the newline. *)
let roundtrip f =
  let line = Frame.encode f in
  let n = String.length line in
  Alcotest.(check bool) "single trailing newline" true
    (n > 0 && line.[n - 1] = '\n' && not (String.contains (String.sub line 0 (n - 1)) '\n'));
  Frame.decode (String.sub line 0 (n - 1))

let test_roundtrip () =
  let request = {|{"id":"1","method":"cost","params":{"session":"s0"}}|} in
  List.iter
    (fun f ->
      Alcotest.(check (result frame string)) "decode (encode f)" (Ok f) (roundtrip f))
    [
      Frame.Query (1, request);
      Frame.Answer (42, {|{"id":"1","ok":{"pong":true}}|});
      Frame.Query (7, "a payload  with spaces, even doubled ");
      Frame.Answer (1_000_000, " leading space");
      Frame.Query (3, "");
      Frame.Stop;
    ]

let test_errors () =
  List.iter
    (fun (what, line) ->
      match Frame.decode line with
      | Error _ -> ()
      | Ok _ -> Alcotest.failf "%s: %S decoded" what line)
    [
      ("missing payload", "Q 12");
      ("missing payload, short", "A 1");
      ("bare tag", "Q");
      ("empty line", "");
      ("malformed token", "Q x1 payload");
      ("empty token", "A  payload");
      ("unknown tag", "Z 1 payload");
      ("lower-case tag", "q 1 payload");
      ("stop with a payload", "S 1 payload");
    ]

let suite =
  [
    Alcotest.test_case "encode/decode round trip" `Quick test_roundtrip;
    Alcotest.test_case "decode errors" `Quick test_errors;
  ]
