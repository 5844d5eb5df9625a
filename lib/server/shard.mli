(** The §11 server, sharded: N serving shards behind a consistent-hash
    {!Hactor.Router}, each shard a supervised actor
    ({!Hactor.Actor.body} as a {!Hsup.Sup} child) pulling accepted
    connections off its own mailbox and forking [Transient]
    connection workers, with {!Hsup.Bulkhead} backpressure per shard.

    The tree:
    {v
    shard-root (One_for_one, Permanent children)
    ├── router                  the routing actor
    ├── shard-0                 owns a nested tree:
    │     shard-sup-0 (One_for_one)
    │     ├── shard-serve      the shard actor (Permanent)
    │     └── conn-worker*     one per connection (Transient)
    ├── shard-1 ...
    └── accept-pump            only with an explicit ?backend
    v}

    Killing anything — a worker, a shard actor, a nested supervisor, the
    router, even shard-root — degrades (503s, closed connections, a
    routed backlog held in mailboxes until the restart) and never
    wedges: the [actor] kill-sweep suite drives a client load against
    every one of those targets. Each [conn-worker] runs {!Kernel.serve},
    the one connection worker loop {!Server} runs too (progress
    protocol, degrade-on-restart, bounded writes, absorbed read faults,
    escaping write faults, keep-alive under [config.keep_alive]), with
    the shard's bulkhead as admission and its breaker as the feed. What
    is this module's own is the tree above, the router and the
    brownout.

    Overload posture (the pieces the [overload] sweep drives):
    every routed connection carries an {!Hsup.Deadline} minted at the
    route point, so mailbox/queue time counts against the request and a
    worker sheds (503) anything whose budget lapsed before it started;
    each shard's bulkhead honours [config.queue_target] (CoDel
    queue-deadline shedding); [config.mailbox_bound] caps each shard
    mailbox (shed-newest, counted in [server_rejected_total]); and each
    shard owns a {!Hsup.Breaker} fed by its workers — while it rejects,
    the route points answer an immediate degraded 503 {e instead of
    queueing} (brownout), so a sick shard gets no new load. *)

open Hio

type t

val start :
  ?config:Server.config ->
  ?metrics:Obs.Metrics.t ->
  ?backend:Ev.Backend.t ->
  shards:int ->
  Server.handler ->
  t Io.t
(** Start the tree with [shards] serving shards (≥ 1; per-shard
    capacity is [config.max_concurrent]/[max_waiting]). Reuses
    {!Server.config} and {!Server.stats}; [supervised] is ignored (a
    sharded server is always supervised). Metrics carry a
    [layer="shard"] label so a shared registry can hold both servers. *)

val connect : ?key:string -> t -> Http.Conn.t Io.t
(** A client connection. Without [?backend] at {!start}: a simulated
    pipe routed through the router actor under [key] (default: a
    per-server sequence ["conn-N"]) — the shard is chosen by consistent
    hash, and a connection queued in a dead shard's mailbox is served
    after the restart; if that shard's breaker is rejecting, the pipe
    carries an immediate degraded 503 instead (brownout). With a
    backend: [l_dial] bounded by [config.dial_timeout] (the one
    client-dial patience knob, shared with {!Server.connect}); failures
    are counted in [client_dial_errors_total{kind}] before re-raising.
    @raise Server.Server_stopped after {!shutdown}.
    @raise Server.Dial_timeout as {!Server.connect}. *)

val shutdown : t -> Server.stats Io.t
(** Stop accepting, quiesce (queued + in-flight drain, bounded by a
    multiple of the request timeout — a killed tree cannot drain, so
    the wait also bails when shard-root is dead), tear the whole tree
    down through [Sup.stop], and return totals. [restarts] sums the
    root and every nested shard supervisor. *)

val router : t -> [ `Serve of Http.Conn.t * Hsup.Deadline.t ] Hactor.Router.t
(** The routing actor (sweep target, tests). *)

val shard_actor :
  t -> int -> [ `Serve of Http.Conn.t * Hsup.Deadline.t ] Hactor.Actor.t
(** Shard [i]'s serving actor. *)

val supervisor : t -> Hsup.Sup.t
(** shard-root. *)

val shard_sup : t -> int -> Hsup.Sup.t option
(** Shard [i]'s nested supervisor ([None] until its child body has
    run). *)

val shard_breaker : t -> int -> Hsup.Breaker.t
(** Shard [i]'s brownout breaker (tests, chaos drivers). *)

val metrics : t -> Obs.Metrics.t
val shards : t -> int
