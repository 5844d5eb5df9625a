(** The fault-tolerant server of the paper's §11 prototype [8]: one thread
    per connection, a per-request timeout covering both the
    (interruptible, possibly trickling) read and the handler, and graceful
    shutdown by [throwTo].

    Since the supervision rework the server runs, by default, under an
    {!Hsup.Sup} tree: the accept loop is a [Permanent] child and every
    connection worker a [Transient] one, so a killed worker is restarted
    within the tree's intensity budget — the restarted incarnation
    degrades its half-served connection to a 503 rather than re-running
    the handler. Admission goes through an {!Hsup.Bulkhead}: at most
    [max_concurrent] requests in flight, at most [max_waiting] queued,
    everything beyond {e shed} with an immediate 503 instead of an
    unbounded queue. Set [supervised = false] for the original bare
    [forkIO]+semaphore prototype (kept for comparison benchmarks).

    Every robustness property comes from a §7 combinator: workers release
    their admission slot via [bracket]; a killed or timed-out worker
    cannot wedge a connection (channel ends are restored per §5.2); and
    shutdown is a plain asynchronous exception into the accept loop.

    Since the overload rework every request carries an {!Hsup.Deadline}
    budget of [request_timeout] µs minted when the connection is
    {e enqueued} (at {!connect} for the simulated transport, at accept in
    the backend pump): time spent waiting in the backlog and the
    admission queue counts against the request, every nested bound
    derives from the remaining budget, and a request whose budget is
    exhausted before a worker picks it up is shed early with a 503
    instead of burning a worker on a guaranteed 504.

    Since the I/O-chaos hardening the per-request deadline also covers
    the {e response write} (a stalled or trickling reader cannot hold a
    worker past [request_timeout]); transport faults during the read —
    the peer reset, closed, or never finished its request — are absorbed
    as a counted close ([server_io_faults_total{kind}]) rather than
    escaping as crashes; a fault {e during} the response write escapes
    on purpose so the supervisor restarts the worker, whose fresh
    incarnation closes the broken connection; the accept pump survives
    transient accept failures; and the shutdown drain's 503s are
    individually bounded and fault-tolerant. The combined kill×I/O sweep
    ([chrun sweep --suite chaos]) holds all of this at zero failures.

    The request path itself — that protocol, keep-alive, the accept pump
    and the bounded dial — is {!Kernel}'s, shared with {!Shard}: both
    modes run the one connection worker loop, which closes the
    connection after its final answer, and differ only in admission (a
    bulkhead or the bare semaphore) and in whether a supervisor watches
    the worker. This module keeps its own tree ([supervisor], the
    [listener] draining the backlog, the [accept-pump]). *)

open Hio

type handler = Http.request -> Http.response Io.t
(** A handler runs in the connection worker, under the request's
    deadline, whose token is delivered asynchronously to that worker. A
    universal fallback inside a handler must use {!Io.catch_sync}, which
    lets the deadline (and kills) through to the 504 path. A plain
    {!Io.catch} intercepts the deadline (§9): its fallback response is
    written and counted [ok], and the connection is then closed and
    counted as a lapse ([server_io_faults_total{kind=deadline}]; a
    {!Shard} shard's breaker sees a success, then a lapse). *)

type config = {
  request_timeout : int;
      (** µs per request, end to end {e including the response write} —
          virtual time by default, real time under a backend with an
          event source ([Ev.Real]) *)
  dial_timeout : int;
      (** µs budget for {!connect}'s [l_dial] when the server runs on an
          explicit backend; expiry raises {!Dial_timeout}. This is the
          {e single} knob for client-side dial patience — [Shard.connect]
          reuses it — and is deliberately generous (50ms = 250× the
          200µs [request_timeout]): it exists so a dead or fault-injected
          listener cannot strand a client forever, not to race healthy
          dials. Every failed dial is counted in
          [client_dial_errors_total{kind=timeout|refused|fds|reset|eof}]
          before the exception reaches the caller. *)
  max_concurrent : int;
  accept_queue : int;  (** listener backlog *)
  max_waiting : int;
      (** admission queue beyond [max_concurrent]; arrivals past it are
          shed with a 503 (supervised mode only) *)
  queue_target : int option;
      (** CoDel-style queue-deadline for the admission waiting room
          (supervised mode): a request whose sojourn in the bulkhead
          queue exceeds this many virtual µs is shed (503) instead of
          eventually occupying a worker it can no longer use within its
          deadline. [None] (default) keeps the plain bounded queue. See
          {!Hsup.Bulkhead}. *)
  mailbox_bound : int option;
      (** cap on each shard actor's mailbox ({!Shard} only): a routed
          connection arriving at a full mailbox is shed (dropped,
          counted) instead of growing the queue without bound — the
          client's own deadline turns the silence into a timeout.
          [None] (default) keeps mailboxes unbounded. *)
  supervised : bool;  (** run under a supervision tree (default) *)
  restart_intensity : Hsup.Sup.intensity;
      (** worker/listener restart budget before the tree escalates *)
  keep_alive : bool;
      (** serve multiple requests per connection: the worker loops
          until the peer closes, a request times out, or parsing fails,
          minting a fresh deadline per request. Off by default — the
          one-shot path's step counts are pinned by the sweep
          baselines. *)
}

val default_config : config

type stats = Kernel.stats = {
  served : int;
  timeouts : int;
  bad_requests : int;
  rejected : int;  (** connections that arrived after shutdown *)
  shed : int;  (** connections refused by the bulkhead (503) *)
  restarts : int;  (** supervisor restarts over the server's lifetime *)
}

type t
(** A running server. *)

exception Server_stopped

exception Dial_timeout
(** {!connect} could not reach the backend listener within
    [config.dial_timeout]. *)

val start :
  ?config:config ->
  ?metrics:Obs.Metrics.t ->
  ?backend:Ev.Backend.t ->
  handler ->
  t Io.t
(** Fork the accept loop (under a supervisor unless
    [config.supervised = false]) and return a handle.

    [?backend] selects the transport. Omitted, the server speaks the
    implicit simulated transport ({!connect} is the only way in) with
    {e exactly} the pre-redesign behaviour — this default exists for
    the golden traces and the kill sweep; new code that cares about the
    transport should pass [Ev.Backend.sim] or an [Ev.Real] backend
    explicitly. With a backend, the server opens a listener via
    [b_listen] and pumps its accepts into the same worker pipeline, and
    every metric below gains a [backend=sim|real] label. Running with a
    real backend additionally requires installing its event source into
    the runtime: [Hio.Runtime.run ~config:(Ev.Backend.install b cfg)].

    All accounting goes through an {!Obs.Metrics} registry — pass one to
    share a table with the runtime's own collector
    ({!Obs.Runtime_obs.metrics}); a private registry is created otherwise.
    The server maintains [server_requests_total{outcome=ok|timeout|
    bad_request|shed|degraded}], [server_rejected_total],
    [server_io_faults_total{kind=eof|reset|refused|accept|deadline}]
    (transport faults absorbed by the hardened paths), the
    [server_in_flight] gauge and the [server_request_latency_steps]
    histogram (end-to-end request latency on the virtual-step clock); in
    supervised mode the tree and bulkhead add [sup_restarts_total],
    [sup_children], [sup_bulkhead_*]. *)

val metrics : t -> Obs.Metrics.t
(** The registry backing this server's accounting. *)

val supervisor : t -> Hsup.Sup.t option
(** The supervision tree (None when [supervised = false]) — exposed for
    probes, demos and the kill sweep. *)

val connect : t -> Http.Conn.t Io.t
(** Create a client connection to the server: [l_dial] on the backend's
    listener when the server was started with [?backend], else a fresh
    simulated pipe enqueued on the backlog.

    {b Deprecated default:} relying on the implicit simulated transport
    (no [?backend] at {!start}) is retained for the deterministic test
    fleet but deprecated for new code — pass [Ev.Backend.sim ()]
    explicitly so the transport choice is visible at the call site.
    @raise Server_stopped (as a synchronous throw) after {!shutdown}.
    @raise Dial_timeout when an explicit backend's listener does not
    answer the dial within [config.dial_timeout]. *)

val shutdown : t -> stats Io.t
(** Stop the accept loop (a supervised listener is retired, not
    restarted), kill the accept pump and close the backend listener (if
    any), answer anything still queued with a 503, wait for in-flight
    workers (each bounded by the request timeout), stop the supervisor,
    and return final statistics. *)

val route : (string * (string -> Http.response)) list -> handler
(** A tiny router over exact paths; the handler value receives the request
    body. Unknown paths get 404. *)
