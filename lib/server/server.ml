open Hio
open Hio_std
open Hio.Io

type handler = Http.request -> Http.response Io.t

type config = {
  request_timeout : int;
  dial_timeout : int;
  max_concurrent : int;
  accept_queue : int;
  max_waiting : int;
  queue_target : int option;
  mailbox_bound : int option;
  supervised : bool;
  restart_intensity : Hsup.Sup.intensity;
  keep_alive : bool;
}

let default_config =
  {
    request_timeout = 200;
    dial_timeout = 50_000;
    max_concurrent = 4;
    accept_queue = 8;
    max_waiting = 16;
    queue_target = None;
    mailbox_bound = None;
    supervised = true;
    restart_intensity = { Hsup.Sup.max_restarts = 16; window = 1_000 };
    keep_alive = false;
  }

type stats = Kernel.stats = {
  served : int;
  timeouts : int;
  bad_requests : int;
  rejected : int;
  shed : int;
  restarts : int;
}

exception Server_stopped
exception Dial_timeout = Kernel.Dial_timeout

(* The long-lived threads — the listener draining the backlog, the
   accept pump feeding it — are Permanent children of the tree, so a
   kill or crash restarts them instead of deafening the server; the bare
   §11 prototype forks them and kills them by id at shutdown. *)
type tree = Supervised of Hsup.Sup.t | Bare of (string * Io.thread_id) list ref

type t = {
  backlog : (Http.Conn.t * Hsup.Deadline.t) Bchan.t;
  registry : Obs.Metrics.t;
  ins : Kernel.instruments;
  config : config;
  mutable accepting : bool;
  tree : tree;
  el : Ev.Backend.listener option;
}

let start_thread tree name body =
  match tree with
  | Supervised sup ->
      Hsup.Sup.start_child sup
        (Hsup.Sup.child ~lifetime:Hsup.Sup.Permanent name body)
  | Bare tids ->
      fork ~name (catch body (fun _ -> return ())) >>= fun tid ->
      lift (fun () -> tids := (name, tid) :: !tids)

let stop_thread tree name =
  match tree with
  | Supervised sup -> Kernel.stop_sup_child sup name
  | Bare tids -> throw_to (List.assoc name !tids) Kill_thread

(* Every connection is served by the one {!Kernel.serve} loop; the modes
   differ only in who watches the worker. Under the tree it is a
   Transient child, restarted into the degrade protocol; a bare worker
   has nobody to restart it, so whatever escapes it closes the
   connection on the way out. *)
let spawn_worker tree w conn dl =
  let progress = ref Kernel.Fresh in
  match tree with
  | Supervised sup ->
      Hsup.Sup.start_child sup
        (Hsup.Sup.child ~lifetime:Hsup.Sup.Transient "conn-worker"
           (Kernel.serve w conn progress dl))
  | Bare _ ->
      fork ~name:"conn-worker"
        (Combinators.on_exception
           (Kernel.serve w conn progress dl)
           (Kernel.close_quietly conn))
      >>= fun _tid -> return ()

let start ?(config = default_config) ?metrics ?backend handler =
  Bchan.create config.accept_queue >>= fun backlog ->
  (* The default registry must be created here, inside the continuation —
     i.e. once per {e run} — not when [start] is applied. A server Io value
     is typically built once and run many times (tests, kill sweeps), and
     those runs may sit on different domains: a registry created at
     application time would be shared by all of them, so [shutdown]'s
     in-flight gauge would see other runs' workers and spin. An explicitly
     passed [?metrics] registry is shared by design: the caller owns it.
     With an explicit backend every series carries a [backend=sim|real]
     label, so one registry can compare the two side by side; the default
     stays label-free, as the golden metric names are pinned. *)
  let registry =
    match metrics with Some reg -> reg | None -> Obs.Metrics.create ()
  in
  let ins =
    Kernel.instruments registry
      (match backend with
      | None -> []
      | Some b -> [ ("backend", b.Ev.Backend.b_name) ])
  in
  (if config.supervised then
     Hsup.Sup.start ~name:"supervisor" ~strategy:Hsup.Sup.One_for_one
       ~intensity:config.restart_intensity ~metrics:registry []
     >>= fun sup ->
     Hsup.Bulkhead.create ~name:"server" ~metrics:registry
       ?queue_target:config.queue_target ~capacity:config.max_concurrent
       ~max_waiting:config.max_waiting ()
     >>= fun bulk -> return (Supervised sup, Kernel.Bulkhead bulk)
   else
     Sem.create config.max_concurrent >>= fun sem ->
     return (Bare (ref []), Kernel.Sem sem))
  >>= fun (tree, admission) ->
  let w =
    {
      Kernel.ins;
      request_timeout = config.request_timeout;
      keep_alive = config.keep_alive;
      admission;
      breaker = None;
      handler;
    }
  in
  start_thread tree "listener"
    (Combinators.forever
       ( Bchan.recv backlog >>= fun (conn, dl) ->
         spawn_worker tree w conn dl ))
  >>= fun () ->
  (* An explicit backend adds a listener and an accept pump feeding the
     same in-process backlog the workers already drain: the serving
     pipeline is shared, only the byte source differs. The deadline is
     minted at accept: time spent queued in the backlog counts against
     the request budget. *)
  (match backend with
  | None -> return None
  | Some b ->
      b.Ev.Backend.b_listen ~backlog:config.accept_queue >>= fun el ->
      start_thread tree "accept-pump"
        (Kernel.accept_pump ins el (fun conn ->
             Hsup.Deadline.mint config.request_timeout >>= fun dl ->
             Bchan.send backlog (conn, dl)))
      >>= fun () -> return (Some el))
  >>= fun el ->
  return { backlog; registry; ins; config; accepting = true; tree; el }

let metrics server = server.registry

let supervisor server =
  match server.tree with Supervised sup -> Some sup | Bare _ -> None

let connect server =
  if not server.accepting then throw Server_stopped
  else
    match server.el with
    | Some el -> Kernel.dial server.config.dial_timeout server.ins el
    | None ->
        (* no backend was given: the implicit simulated transport *)
        Ev.Backend.sim_pipe () >>= fun (client_side, server_side) ->
        Hsup.Deadline.mint server.config.request_timeout >>= fun dl ->
        Bchan.send server.backlog (server_side, dl) >>= fun () ->
        return client_side

let shutdown server =
  lift (fun () -> server.accepting <- false) >>= fun () ->
  (* stop accepting: kill the accept loop (without restart, in the
     supervised mode) and wait until it is gone; then stop the accept
     pump and close the external listener before draining, so no new
     connection can slip into the backlog *)
  stop_thread server.tree "listener" >>= fun () ->
  (match server.el with
  | None -> return ()
  | Some el ->
      stop_thread server.tree "accept-pump" >>= fun () ->
      el.Ev.Backend.l_close ())
  >>= fun () ->
  (* Reject anything still queued. Each 503 write is bounded and
     fault-tolerant — a queued connection whose peer already vanished
     (or is being chaos-trickled) must not stall the shutdown — and the
     connection is closed so the peer sees EOF, not silence. *)
  let ins = server.ins in
  let rec drain () =
    Bchan.try_recv server.backlog >>= function
    | Some (conn, _dl) ->
        Kernel.count ins.m_rejected >>= fun () ->
        catch
          ( Combinators.timeout server.config.request_timeout
              (Http.write_response conn Kernel.service_unavailable)
          >>= function
            | Some () -> return ()
            | None -> Kernel.count_io ins "deadline" )
          (fun e ->
            match Kernel.io_fault_kind e with
            | Some kind -> Kernel.count_io ins kind
            | None -> throw e)
        >>= fun () ->
        Kernel.close_quietly conn >>= fun () -> drain ()
    | None -> return ()
  in
  drain () >>= fun () ->
  (* wait for in-flight workers; each is bounded by the request timeout *)
  let rec wait_drained () =
    if Obs.Metrics.gauge_value ins.m_inflight = 0 then return ()
    else sleep 5 >>= fun () -> wait_drained ()
  in
  wait_drained () >>= fun () ->
  (match server.tree with
  | Bare _ -> return 0
  | Supervised sup -> Hsup.Sup.stop sup >>= fun _ -> Hsup.Sup.restart_count sup)
  >>= fun restarts -> return (Kernel.stats ins ~restarts)

let route table request =
  match List.assoc_opt request.Http.path table with
  | Some f -> return (f request.Http.body)
  | None -> return Http.not_found
