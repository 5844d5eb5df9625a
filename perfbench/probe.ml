(* Tracing from outside the library: decorators around the public
   records of closures ([Ev.Backend.t], [Runtime.event_source]) and the
   runtime's public hooks ([Config.tracer], [Config.inject]). Nothing in
   lib/ is instrumented; a traced run simply runs the same program
   through these wrappers. *)

open Hio
open Hio.Io

type t = {
  mutable port : int option;  (** the listener's TCP port, once bound *)
  mutable recv_calls : int;
  mutable send_calls : int;
  mutable recv_ns : int;
  mutable send_ns : int;
  mutable bytes_in : int;
  mutable bytes_out : int;
  mutable dials : int;
  mutable accepts : int;
  mutable waits : int;
  mutable wait_ns : int;
  mutable handler_calls : int;
  mutable handler_ns : int;
  mutable step : int;
  blocked : (int, string * int) Hashtbl.t;
      (** tid -> (wait reason, step it blocked at) *)
  wait_steps : (string, int) Hashtbl.t;  (** reason -> steps spent blocked *)
}

let create () =
  {
    port = None;
    recv_calls = 0;
    send_calls = 0;
    recv_ns = 0;
    send_ns = 0;
    bytes_in = 0;
    bytes_out = 0;
    dials = 0;
    accepts = 0;
    waits = 0;
    wait_ns = 0;
    handler_calls = 0;
    handler_ns = 0;
    step = 0;
    blocked = Hashtbl.create 64;
    wait_steps = Hashtbl.create 8;
  }

let clock = lift Common.now_ns

(* --- Ev.Backend decorator, the pattern Ev.Chaos uses -------------------- *)

let conn p (c : Ev.Backend.conn) =
  {
    c with
    Ev.Backend.c_send =
      (fun s ->
        clock >>= fun t0 ->
        c.Ev.Backend.c_send s >>= fun () ->
        lift (fun () ->
            p.send_calls <- p.send_calls + 1;
            p.send_ns <- p.send_ns + (Common.now_ns () - t0);
            p.bytes_out <- p.bytes_out + String.length s));
    c_recv_char =
      (fun () ->
        clock >>= fun t0 ->
        c.Ev.Backend.c_recv_char () >>= fun ch ->
        lift (fun () ->
            p.recv_calls <- p.recv_calls + 1;
            p.recv_ns <- p.recv_ns + (Common.now_ns () - t0);
            p.bytes_in <- p.bytes_in + 1;
            ch));
    c_try_recv =
      (fun () ->
        c.Ev.Backend.c_try_recv () >>= fun r ->
        lift (fun () ->
            p.recv_calls <- p.recv_calls + 1;
            if Option.is_some r then p.bytes_in <- p.bytes_in + 1;
            r));
  }

let listener p (l : Ev.Backend.listener) =
  {
    l with
    Ev.Backend.l_accept =
      (fun () ->
        l.Ev.Backend.l_accept () >>= fun c ->
        lift (fun () -> p.accepts <- p.accepts + 1) >>= fun () ->
        return (conn p c));
    l_dial =
      (fun () ->
        l.Ev.Backend.l_dial () >>= fun c ->
        lift (fun () -> p.dials <- p.dials + 1) >>= fun () ->
        return (conn p c));
  }

let event_source p (es : Runtime.event_source) =
  {
    es with
    Runtime.es_wait =
      (fun ~timeout_us ->
        let t0 = Common.now_ns () in
        let r = es.Runtime.es_wait ~timeout_us in
        p.waits <- p.waits + 1;
        p.wait_ns <- p.wait_ns + (Common.now_ns () - t0);
        r);
  }

(* Only learns the listener's port: the untraced runs need it to point
   the out-of-process generator at the server, and it costs one step at
   bind time. *)
let capture_port p (b : Ev.Backend.t) =
  {
    b with
    Ev.Backend.b_listen =
      (fun ~backlog ->
        b.Ev.Backend.b_listen ~backlog >>= fun l ->
        lift (fun () -> p.port <- l.Ev.Backend.l_port) >>= fun () -> return l);
  }

(* The full decorator: every conn and listener op counted and timed,
   and the event source's waits timed. *)
let backend p (b : Ev.Backend.t) =
  {
    Ev.Backend.b_name = b.Ev.Backend.b_name;
    b_listen =
      (fun ~backlog ->
        b.Ev.Backend.b_listen ~backlog >>= fun l ->
        lift (fun () -> p.port <- l.Ev.Backend.l_port) >>= fun () ->
        return (listener p l));
    b_event_source = Option.map (event_source p) b.Ev.Backend.b_event_source;
  }

(* --- runtime hooks -------------------------------------------------------

   [inject] as a pure observer gives the global step index; [tracer]
   gives the block/wakeup events. Together they measure how many steps
   each blocked thread spent waiting, by reason — the block spans
   Obs.Rec reconstructs, without its bounded ring. *)
let attach p (cfg : Runtime.Config.t) =
  let inner_tracer = cfg.Runtime.Config.tracer
  and inner_inject = cfg.Runtime.Config.inject in
  let woke tid =
    match Hashtbl.find_opt p.blocked tid with
    | None -> ()
    | Some (why, at) ->
        Hashtbl.remove p.blocked tid;
        let prev = Option.value ~default:0 (Hashtbl.find_opt p.wait_steps why) in
        Hashtbl.replace p.wait_steps why (prev + (p.step - at))
  in
  {
    cfg with
    Runtime.Config.inject =
      Some
        (fun ~step ~running ->
          p.step <- step;
          match inner_inject with Some f -> f ~step ~running | None -> None);
    tracer =
      Some
        (fun ev ->
          (match ev with
          | Runtime.Ev_blocked { tid; why; _ } ->
              Hashtbl.replace p.blocked tid
                (Runtime.wait_reason_label why, p.step)
          | Runtime.Ev_wakeup { tid } | Runtime.Ev_deliver { tid; _ } ->
              woke tid
          | _ -> ());
          match inner_tracer with Some f -> f ev | None -> ());
  }

(* Wrap a handler so the time it spends building its response (its own
   synchronous work, not the virtual sleeps some workloads add) is
   counted. *)
let timed p build =
  lift (fun () ->
      let t0 = Common.now_ns () in
      let r = build () in
      p.handler_calls <- p.handler_calls + 1;
      p.handler_ns <- p.handler_ns + (Common.now_ns () - t0);
      r)

let wait_reasons =
  [ "takeMVar"; "putMVar"; "sleep"; "fdRead"; "fdWrite"; "throwTo"; "getChar" ]

(* Thread names the request path uses, grouped (numbered supervisors and
   shard slots fold into "supervisor"). *)
let thread_groups =
  [
    "conn-worker";
    "listener";
    "accept-pump";
    "router";
    "shard-serve";
    "supervisor";
    "client";
    "unnamed";
    "other";
  ]

let thread_group = function
  | None -> "unnamed"
  | Some ("conn-worker" | "listener" | "accept-pump" | "router" | "shard-serve"
         | "client" as n) ->
      n
  | Some n ->
      let prefixed p =
        String.length n >= String.length p
        && String.sub n 0 (String.length p) = p
      in
      if n = "supervisor" || prefixed "shard-" then "supervisor" else "other"
