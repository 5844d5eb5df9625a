(* The request path shared by {!Server} (both modes) and {!Shard}: the
   transport-fault taxonomy, the outcome instruments, the progress
   protocol, the one connection worker loop, the accept pump and the
   bounded dial. The two servers differ only in where a connection comes
   from (the backlog Bchan, a shard mailbox) and how its worker is
   spawned (a supervised child, a bare fork) — see DESIGN.md, "One
   request path". *)

open Hio
open Hio_std
open Hio.Io

type stats = {
  served : int;
  timeouts : int;
  bad_requests : int;
  rejected : int;
  shed : int;
  restarts : int;
}

exception Dial_timeout

(* Breaker feed: what a worker reports about its own admission. Only
   the breaker sees these; they exist to pass its [count_error]. *)
exception Overloaded
exception Deadline_lapsed

(* All accounting lives in an Obs.Metrics registry — the same registry the
   caller can hand to the runtime collector, so one table reports both the
   scheduler and the server. The handles below are just cached lookups;
   [labels] tells the servers apart in a shared registry. *)
type instruments = {
  m_served : Obs.Metrics.counter;
  m_timeouts : Obs.Metrics.counter;
  m_bad : Obs.Metrics.counter;
  m_shed : Obs.Metrics.counter;
  m_degraded : Obs.Metrics.counter;
  m_rejected : Obs.Metrics.counter;
  m_inflight : Obs.Metrics.gauge;
  m_latency : Obs.Metrics.histogram;
  m_io_fault : string -> Obs.Metrics.counter;
      (* server_io_faults_total{kind}: transport faults absorbed instead
         of escaping as crashes — registered lazily per kind so quiet
         runs don't grow the metrics table. *)
  m_dial : string -> Obs.Metrics.counter;
      (* client_dial_errors_total{kind}: dials that came back with
         nothing — timeout, refused, fd budget — counted on the server's
         registry before the exception reaches the client. *)
}

let instruments reg labels =
  let counter name extra = Obs.Metrics.counter reg ~labels:(extra @ labels) name in
  let outcome o = counter "server_requests_total" [ ("outcome", o) ] in
  {
    m_served = outcome "ok";
    m_timeouts = outcome "timeout";
    m_bad = outcome "bad_request";
    m_shed = outcome "shed";
    m_degraded = outcome "degraded";
    m_rejected = counter "server_rejected_total" [];
    m_inflight = Obs.Metrics.gauge reg ~labels "server_in_flight";
    m_latency =
      Obs.Metrics.histogram reg
        ~buckets:[ 10; 20; 50; 100; 200; 500; 1000; 2000; 5000 ]
        ~labels "server_request_latency_steps";
    m_io_fault = (fun kind -> counter "server_io_faults_total" [ ("kind", kind) ]);
    m_dial = (fun kind -> counter "client_dial_errors_total" [ ("kind", kind) ]);
  }

let stats ins ~restarts =
  let v = Obs.Metrics.counter_value in
  {
    served = v ins.m_served;
    timeouts = v ins.m_timeouts;
    bad_requests = v ins.m_bad;
    rejected = v ins.m_rejected;
    shed = v ins.m_shed;
    restarts;
  }

(* Transport faults a hardened server absorbs (close/503/keep going)
   rather than letting them escape as crashes; everything else — handler
   bugs, kills — keeps its §5 semantics. *)
let io_fault_kind = function
  | End_of_file -> Some "eof"
  | Ev.Backend.Connection_reset -> Some "reset"
  | Ev.Backend.Connection_refused -> Some "refused"
  | Ev.Backend.Accept_failed -> Some "accept"
  | Ev.Backend.Too_many_fds -> Some "fds"
  | Ev.Backend.Buffer_full -> Some "buffer"
  | _ -> None

(* Which [client_dial_errors_total] kind a failed dial books under. *)
let dial_error_kind = function
  | Dial_timeout -> Some "timeout"
  | Ev.Backend.Connection_refused -> Some "refused"
  | Ev.Backend.Too_many_fds -> Some "fds"
  | Ev.Backend.Connection_reset -> Some "reset"
  | End_of_file -> Some "eof"
  | _ -> None

let service_unavailable =
  { Http.status = 503; reason = "Service Unavailable"; body = "" }

let count c = lift (fun () -> Obs.Metrics.inc c)
let count_io ins kind = lift (fun () -> Obs.Metrics.inc (ins.m_io_fault kind))
let close_quietly conn = catch (Http.Conn.close conn) (fun _ -> return ())

(* --- the serving protocol -------------------------------------------------

   Each connection carries a [progress] ref shared by every incarnation
   of its worker. A restarted worker (its predecessor was killed or
   crashed mid-request) must not re-run the handler — the request stream
   is already partly consumed and the effect may not be idempotent — so
   it degrades: a never-answered connection gets a 503, a connection
   whose response write was cut gets closed. Setting [Answered] and
   starting the response write happen under one mask, so a kill cannot
   produce a second answer on the same connection. *)
type progress = Fresh | Serving | Answered

(* [counter] is bumped only after the full response is on the wire, so
   outcome counters mean "answered", not "tried to answer". *)
let respond progress conn counter response =
  mask_
    ( lift (fun () -> progress := Answered) >>= fun () ->
      Http.write_response conn response >>= fun () -> count counter )

(* A bounded, fault-tolerant response write for paths outside the main
   request deadline (504/degrade fallbacks): the write gets its own
   [timeout], and a transport fault — the peer reset or vanished —
   closes the connection instead of propagating. *)
let safe_respond timeout ins progress conn counter response =
  catch
    ( Combinators.timeout timeout (respond progress conn counter response)
    >>= function
      | Some () -> return ()
      | None -> count_io ins "deadline" >>= fun () -> close_quietly conn )
    (fun e ->
      match io_fault_kind e with
      | Some kind -> count_io ins kind >>= fun () -> close_quietly conn
      | None -> throw e)

(* The per-request deadline fired. If the response write was already in
   progress ([Answered]) the byte stream is unusable — close the
   connection; otherwise answer 504 under its own bounded write. *)
let deadline_exceeded timeout ins progress conn =
  lift (fun () -> !progress) >>= function
  | Answered -> count_io ins "deadline" >>= fun () -> close_quietly conn
  | Fresh | Serving ->
      safe_respond timeout ins progress conn ins.m_timeouts
        Http.timeout_response

(* Read + handle, mapping the two expected failures — a malformed
   request, a peer that reset or closed mid-request — to data. *)
let read_and_handle handler conn =
  catch
    ( Http.read_request conn >>= fun request ->
      handler request >>= fun response -> return (`Reply response) )
    (fun e ->
      match e with
      | Http.Bad_request m -> return (`Bad m)
      | e -> (
          match io_fault_kind e with
          | Some kind -> return (`Peer_gone kind)
          | None -> throw e))

(* A transport fault {e during the response write} is counted and then
   escapes the worker on purpose: the supervisor restarts it, and the
   fresh incarnation finds [Answered] and degrades the connection by
   closing it — the crash is contained one level up. *)
let counted_escape ins io =
  catch io (fun e ->
      match io_fault_kind e with
      | Some kind -> count_io ins kind >>= fun () -> throw e
      | None -> throw e)

(* --- the connection worker ------------------------------------------------ *)

(* Admission: a bare semaphore for the §11 prototype (never sheds), or a
   bulkhead — at most [capacity] requests run, at most [max_waiting]
   more queue, the rest are shed with an immediate 503. *)
type admission = Sem of Sem.t | Bulkhead of Hsup.Bulkhead.t

type worker = {
  ins : instruments;
  request_timeout : int;
  keep_alive : bool;
  admission : admission;
  breaker : Hsup.Breaker.t option;
      (* fed with every request's outcome: a success, a shed, a lapsed
         deadline *)
  handler : Http.request -> Http.response Io.t;
}

let admit admission io k =
  match admission with
  | Sem s -> Sem.with_unit s io >>= k
  | Bulkhead b -> (
      Hsup.Bulkhead.run b io >>= function Ok r -> k r | Error `Shed -> k `Shed)

(* [note b >>= k] with a breaker; just [k ()], at no step, without. *)
let feed w note k = match w.breaker with None -> k () | Some b -> note b >>= k
let overloaded b = Hsup.Breaker.note_failure b Overloaded
let lapsed b = Hsup.Breaker.note_failure b Deadline_lapsed

(* One request, bounded end to end — admission wait, the (possibly
   trickling) read, the handler {e and the response write} — by the
   deadline [dl]. [`Keep] only when the response left the byte stream
   synchronized and keep-alive is on; everything else closes. A peer
   that left is counted and closed ([`Gone]) — at the request boundary
   that is the normal end of a keep-alive conversation — and since
   nothing was answered, neither the outcome counters nor the latency
   histogram book a request. Latency is measured on the virtual-step
   clock, first step to final response byte. The handler runs here,
   under this deadline's token: one that intercepts the token with a
   plain [catch] has its reply written and counted, and is then closed
   and counted as lapsed too (the handler contract in server.mli). *)
let serve_request w conn progress dl =
  let ins = w.ins in
  steps >>= fun t0 ->
  lift (fun () -> progress := Serving) >>= fun () ->
  Hsup.Deadline.timeout dl
    (admit w.admission (read_and_handle w.handler conn) (function
      | `Reply response ->
          counted_escape ins (respond progress conn ins.m_served response)
          >>= fun () ->
          feed w Hsup.Breaker.note_success (fun () ->
              return (if w.keep_alive then `Keep else `Close))
      | `Bad m ->
          counted_escape ins
            (respond progress conn ins.m_bad (Http.bad_request m))
          >>= fun () -> return `Close
      | `Peer_gone kind ->
          count_io ins kind >>= fun () ->
          mask_
            ( lift (fun () -> progress := Answered) >>= fun () ->
              close_quietly conn )
          >>= fun () -> return `Gone
      | `Shed ->
          feed w overloaded (fun () ->
              counted_escape ins
                (respond progress conn ins.m_shed service_unavailable)
              >>= fun () -> return `Close)))
  >>= (function
        | Some verdict -> return verdict
        | None ->
            feed w lapsed (fun () ->
                deadline_exceeded w.request_timeout ins progress conn
                >>= fun () -> return `Close))
  >>= fun verdict ->
  steps >>= fun t1 ->
  lift (fun () ->
      match verdict with
      | `Gone -> ()
      | `Close -> Obs.Metrics.observe ins.m_latency (t1 - t0)
      | `Keep ->
          Obs.Metrics.observe ins.m_latency (t1 - t0);
          (* between requests nothing is in flight: a worker restarted
             here may serve the next request *)
          progress := Fresh)
  >>= fun () -> return verdict

(* The one connection worker loop, run once per connection (and once
   more per restart, sharing [progress]). A [Fresh] connection whose
   accept-time deadline [dl] lapsed while it queued is shed early (503)
   instead of spending a worker on a sure 504; otherwise requests are
   served until a [`Close] verdict, each keep-alive follow-up under a
   freshly minted budget — queueing debt is per request, not per
   connection. Every normal way out closes the connection; one that
   escapes leaves it to the restarted incarnation (or, for a bare
   worker, to the spawner). *)
let serve w conn progress dl =
  let ins = w.ins and timeout = w.request_timeout in
  let rec loop dl =
    serve_request w conn progress dl >>= function
    | `Keep -> Hsup.Deadline.mint timeout >>= loop
    | `Close -> close_quietly conn
    | `Gone -> return ()
  in
  Combinators.bracket_
    (lift (fun () -> Obs.Metrics.add ins.m_inflight 1))
    ( lift (fun () -> !progress) >>= function
      | Answered ->
          (* the previous incarnation died after its answer started: the
             response may be incomplete, so degrade the connection by
             closing it — the peer sees EOF, not a stalled stream *)
          close_quietly conn
      | Serving ->
          (* a previous incarnation was killed mid-request *)
          safe_respond timeout ins progress conn ins.m_degraded
            service_unavailable
          >>= fun () -> close_quietly conn
      | Fresh ->
          Hsup.Deadline.expired dl >>= fun late ->
          if late then
            safe_respond timeout ins progress conn ins.m_shed
              service_unavailable
            >>= fun () -> close_quietly conn
          else loop dl )
    (lift (fun () -> Obs.Metrics.add ins.m_inflight (-1)))

(* --- accepting and dialling ---------------------------------------------- *)

(* Pump a backend listener's accepts into [on_conn]. A transient accept
   failure must not deafen the server: count it, then back off — a
   synchronously-failing accept (EMFILE under an fd budget) would
   otherwise spin the pump without ever reaching a blocking point. *)
let accept_pump ins el on_conn =
  Combinators.forever
    (catch
       (el.Ev.Backend.l_accept () >>= on_conn)
       (fun e ->
         match io_fault_kind e with
         | Some kind -> count_io ins kind >>= fun () -> sleep 10
         | None -> throw e))

(* A dead, saturated or chaos-refusing listener yields [Dial_timeout],
   not a forever-blocked client thread; every flavour of dial failure is
   counted before it propagates. *)
let dial timeout ins el =
  catch
    ( Combinators.timeout timeout (el.Ev.Backend.l_dial ()) >>= function
      | Some conn -> return conn
      | None -> throw Dial_timeout )
    (fun e ->
      match dial_error_kind e with
      | Some kind -> count (ins.m_dial kind) >>= fun () -> throw e
      | None -> throw e)

(* Retire a Permanent child (no restart) and wait until it is gone. *)
let stop_sup_child sup name =
  Hsup.Sup.stop_child sup name >>= fun () ->
  let rec wait_child () =
    Hsup.Sup.child_up sup name >>= fun up ->
    Hsup.Sup.alive sup >>= fun alive ->
    if up && alive then yield >>= fun () -> wait_child () else return ()
  in
  wait_child ()
