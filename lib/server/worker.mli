(** Worker processes of the sharded serving tier.

    {!spawn} forks a child connected to the front by a socketpair.  The
    child runs a full {!Engine} of its own — admission queue, deadline
    expiry at dequeue, overload backpressure, session store — over the
    framed protocol in {!Frame}: [Q token line] in, [A token line] out,
    answers in admission order per worker.  Tokens double as the
    engine-side client ids, so {!Engine.run_batch}'s [(client,
    response)] pairs need no translation.

    Lifecycle: a [S] frame (or EOF — the front died) begins a graceful
    drain: every admitted request is executed, every answer flushed,
    and the child [_exit]s 0.  Workers ignore SIGINT/SIGTERM — a signal
    to the process group must not kill them mid-drain; the front
    coordinates shutdown through the pipe.

    {b Fork safety}: spawn forks, so it must only be called before the
    calling process creates any domains ({!Bbc_parallel} pools do not
    survive fork).  The front tier never touches the pool; worker
    engines run whatever [jobs] their config asks for, in their own
    fresh process. *)

type t = {
  w_pid : int;
  w_fd : Unix.file_descr;  (** front side of the socketpair, non-blocking *)
}

val spawn : ?close_in_child:Unix.file_descr list -> engine:Engine.config -> unit -> t
(** Fork one worker (engine config taken as given — callers decide the
    per-worker [jobs] width).  The child never returns.
    [close_in_child] lists inherited descriptors (listeners, client
    connections, sibling worker pipes) the child must not keep open. *)

val run : engine:Engine.config -> Unix.file_descr -> 'a
(** The child-side loop, exposed for tests that drive a worker over a
    hand-made socketpair.  Never returns: exits the process. *)

(** {1 Line I/O on non-blocking descriptors}

    The one copy of the buffer plumbing every serving loop needs: the
    worker's pipe end, and the front's client sockets and worker pipes. *)

val read_some : Unix.file_descr -> Buffer.t -> [ `Data | `Again | `Closed ]
(** One [read] appended to the buffer.  [`Again] on EAGAIN/EINTR;
    [`Closed] on EOF or a hard error. *)

val split_lines : Buffer.t -> (string -> unit) -> unit
(** Hand each complete line (without its newline) to the callback, in
    order, and keep only the unterminated tail in the buffer. *)

val flush_some : Unix.file_descr -> Buffer.t -> bool
(** Write as much of the buffer as the descriptor accepts now, keeping
    the rest.  [false] on a hard error: the peer is gone. *)

val write_all : Unix.file_descr -> string -> unit
(** Switch the descriptor to blocking and write everything, giving up
    silently on error.  Drain-time only, when losing answers matters
    more than latency. *)
