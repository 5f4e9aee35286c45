(** The synchronous stdin/stdout driver of [bbc serve --stdio]: one
    implicit connection, one {!Engine}, one batch per request line.
    The cram tests drive the service through it, deterministically
    under [--jobs 1].  Every socket and TCP listener is served by
    {!Front} instead.

    EOF on stdin, an executed [shutdown] request or SIGINT/SIGTERM
    (seen once the current line is answered) stops admissions; every
    admitted request is executed and its response printed before
    {!run} returns. *)

val run : engine:Engine.config -> unit -> unit
(** Serve stdin/stdout until EOF or shutdown; blocks.  Session ids are
    the engine's own (["s1"], ["s2"], ...). *)
