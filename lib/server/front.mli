(** The serving loop of [bbc serve] on sockets: one single-threaded
    poll(2) loop that owns every listener (Unix-domain and/or TCP, see
    {!Net}) and every client connection, splits request lines, and
    routes each request to a shard backend.

    {1 Backends}

    - [workers = 1] (the default): one {!Engine} in this process, with
      the caller's pool width.  Requests are handed over already
      parsed ({!Engine.admit}); the engine's batch runs after each poll
      wake-up, on the {!Bbc_parallel} pool, and poll does not wait
      while the engine has queued work.
    - [workers = N > 1]: N forked {!Worker} processes, each a full
      engine of its own (admission queue, deadline expiry,
      backpressure, session store), reached over the framed
      socketpair protocol in {!Frame}.

    Everything else is shared by both backends.

    {1 Routing}

    - Session-bound requests hash their ["session"] param
      ({!Shard.of_session}).
    - [gen] / [load_instance] have no session yet, so the front mints
      the id ({!Shard.mint} on a global counter: ["s0"], ["s1"], ...),
      picks the shard from its hash, and passes the request on with the
      id attached as the ["_session"] param (engines run with
      [assign_ids = true]); every later request for that session hashes
      to the same shard.
    - [ping] and [shutdown] are answered at the front; [stats] fans out
      to every live backend and the payloads are summed field-wise
      (plus front fields: [workers], [respawns], [connections]).

    {1 Guarantees}

    Per connection, responses to admitted requests are released in
    admission order even when they complete on different workers: each
    request takes a token into the connection's reorder queue, and a
    ready response is held until every earlier token has answered.
    Only lines rejected before they get a token — malformed JSON, or
    anything sent while draining — jump that queue; engine-side
    rejections such as overload come back as ordinary answers, in
    order.  Within one backend the engine's own guarantees are
    unchanged.

    Per-connection buffers are bounded: a request line above 8 MiB is
    answered with [bad_request] and the connection closed, and a client
    that stops reading its responses is dropped once its pending output
    passes 256 MiB.

    {1 Worker lifecycle}

    A forked worker that dies unexpectedly is detected by EOF on its
    pipe; its in-flight requests are answered with [internal] errors,
    and a fresh worker is forked onto the same shard (policy: respawn,
    sessions lost — later requests for them get [unknown_session]).
    Other shards are unaffected.

    SIGINT/SIGTERM (or an executed [shutdown]) triggers a graceful
    drain: listeners close, new requests are answered [shutting_down],
    every outstanding token is resolved, workers receive a [Stop] frame
    and are reaped, responses are flushed, and [run] returns.  Raises
    [Failure] if a worker exits non-zero during that drain. *)

type handle
(** Control surface handed to [on_ready] (used by tests and the bench
    harness). *)

val worker_pids : handle -> int list
(** Live forked worker pids, index order; empty for the in-process
    backend. *)

val request_stop : handle -> unit
(** Ask the loop to begin its graceful drain (as if signalled). *)

val run :
  ?on_ready:(handle -> unit) ->
  engine:Engine.config ->
  workers:int ->
  Net.listener list ->
  unit
(** Serve until shutdown; blocks.  [workers >= 1].  [on_ready] fires
    once the loop is about to accept (listeners are bound by the
    caller, so ephemeral TCP ports are already resolved).  Engines run
    [engine] with [assign_ids = true].  Forked workers also default to
    [jobs = Some 1] when [engine.jobs] is [None]: parallelism comes
    from the process shards, and [N] workers each defaulting to a full
    domain pool would oversubscribe the machine (pass an explicit
    [jobs] to compose within-worker pools with sharding).

    With [workers > 1], must be called before the process creates any
    domains — [run] forks. *)

val with_signals : bool Atomic.t -> (unit -> 'a) -> 'a
(** Run the callback with SIGINT/SIGTERM setting the flag and SIGPIPE
    ignored, restoring the previous dispositions afterwards.  Shared
    with the stdio driver ({!Server}). *)
