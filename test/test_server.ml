(* The §11 fault-tolerant server substrate: parsing, end-to-end requests,
   slow-client (slowloris) timeouts, admission control, graceful shutdown. *)

open Hio
open Hio_std
open Hio.Io
open Hserver
open Helpers

let int_v = Alcotest.int
let str_v = Alcotest.string

let echo_handler =
  Server.route
    [
      ("/hello", fun _ -> Http.ok "world");
      ("/echo", fun body -> Http.ok body);
    ]

(* A well-behaved client: one request, one response. *)
let get server ?(body = "") path =
  Server.connect server >>= fun conn ->
  Http.write_request conn
    { Http.meth = "GET"; path; headers = []; body }
  >>= fun () -> Http.read_response conn

let http_tests =
  [
    case "conn pipe carries bytes both ways" (fun () ->
        Alcotest.check (Alcotest.pair str_v str_v) "both" ("ping", "pong")
          (value
             ( Ev.Backend.sim_pipe () >>= fun (a, b) ->
               Http.Conn.send_string a "ping\n" >>= fun () ->
               Http.Conn.send_string b "pong\n" >>= fun () ->
               Http.Conn.recv_line b >>= fun at_b ->
               Http.Conn.recv_line a >>= fun at_a -> return (at_b, at_a) )));
    case "request round-trips through the wire format" (fun () ->
        let request =
          {
            Http.meth = "POST";
            path = "/submit";
            headers = [ ("x-token", "abc") ];
            body = "payload!";
          }
        in
        let got =
          value
            ( Ev.Backend.sim_pipe () >>= fun (client, server) ->
              fork (Http.write_request client request) >>= fun _ ->
              Http.read_request server )
        in
        Alcotest.check str_v "meth" "POST" got.Http.meth;
        Alcotest.check str_v "path" "/submit" got.Http.path;
        Alcotest.check str_v "body" "payload!" got.Http.body;
        Alcotest.(check (option string)) "header" (Some "abc")
          (List.assoc_opt "x-token" got.Http.headers));
    case "response round-trips" (fun () ->
        let got =
          value
            ( Ev.Backend.sim_pipe () >>= fun (client, server) ->
              fork (Http.write_response server (Http.ok "hi there"))
              >>= fun _ -> Http.read_response client )
        in
        Alcotest.check int_v "status" 200 got.Http.status;
        Alcotest.check str_v "body" "hi there" got.Http.body);
    case "drain_available returns buffered bytes without blocking" (fun () ->
        Alcotest.check str_v "drained" "abc"
          (value
             ( Ev.Backend.sim_pipe () >>= fun (a, b) ->
               Http.Conn.send_string a "abc" >>= fun () ->
               Http.Conn.drain_available b )));
    case "drain_available on an empty stream is empty" (fun () ->
        Alcotest.check str_v "empty" ""
          (value
             ( Ev.Backend.sim_pipe () >>= fun (_a, b) ->
               Http.Conn.drain_available b )));
    case "one read_request value parses a fresh request on every run"
      (fun () ->
        Alcotest.(check (list string))
          "paths" [ "/a"; "/b" ]
          (value
             ( Ev.Backend.sim_pipe () >>= fun (client, server) ->
               Http.Conn.send_string client
                 "GET /a HTTP/1.0\r\n\r\nGET /b HTTP/1.0\r\n\r\n"
               >>= fun () ->
               let read = Http.read_request server in
               read >>= fun a ->
               read >>= fun b -> return [ a.Http.path; b.Http.path ] )));
    case "one drain_available value drains afresh on every run" (fun () ->
        Alcotest.(check (list string))
          "drained" [ "ab"; "cd" ]
          (value
             ( Ev.Backend.sim_pipe () >>= fun (a, b) ->
               let drain = Http.Conn.drain_available b in
               Http.Conn.send_string a "ab" >>= fun () ->
               drain >>= fun first ->
               Http.Conn.send_string a "cd" >>= fun () ->
               drain >>= fun second -> return [ first; second ] )));
    case "malformed request line raises Bad_request" (fun () ->
        match
          run
            ( Ev.Backend.sim_pipe () >>= fun (client, server) ->
              fork (Http.Conn.send_string client "NONSENSE\r\n\r\n")
              >>= fun _ -> Http.read_request server )
        with
        | { Runtime.outcome = Runtime.Uncaught (Http.Bad_request _); _ } -> ()
        | _ -> Alcotest.fail "expected Bad_request");
    case "bad content-length raises Bad_request" (fun () ->
        match
          run
            ( Ev.Backend.sim_pipe () >>= fun (client, server) ->
              fork
                (Http.Conn.send_string client
                   "GET / HTTP/1.0\r\ncontent-length: wat\r\n\r\n")
              >>= fun _ -> Http.read_request server )
        with
        | { Runtime.outcome = Runtime.Uncaught (Http.Bad_request _); _ } -> ()
        | _ -> Alcotest.fail "expected Bad_request");
  ]

let hello = { Http.meth = "GET"; path = "/hello"; headers = []; body = "" }

(* One request on [conn]; 0 stands for no answer within 1ms. *)
let status_of conn =
  Http.write_request conn hello >>= fun () ->
  Combinators.timeout 1_000 (Http.read_response conn) >>= function
  | Some r -> return r.Http.status
  | None -> return 0

let server_tests =
  [
    case "one-shot connections are closed server-side: ten fit 4 fds"
      (fun () ->
        (* each conversation holds two budget slots (the dialled and the
           accepted end); a server that never closes its end runs the
           budget dry by the fourth request *)
        let statuses, denied, live =
          value
            ( lift (fun () ->
                  Ev.Chaos.create
                    ~resources:
                      { Ev.Chaos.no_resources with fd_budget = Some 4 }
                    [])
            >>= fun ctl ->
              Server.start ~backend:(Ev.Chaos.wrap ctl (Ev.Backend.sim ()))
                echo_handler
              >>= fun server ->
              let rec go i acc =
                if i = 0 then return (List.rev acc)
                else
                  Server.connect server >>= fun conn ->
                  status_of conn >>= fun st ->
                  Http.Conn.close conn >>= fun () -> go (i - 1) (st :: acc)
              in
              go 10 [] >>= fun statuses ->
              Server.shutdown server >>= fun _ ->
              return
                (statuses, Ev.Chaos.denied ctl, Ev.Chaos.live_conns ctl) )
        in
        Alcotest.(check (list int_v))
          "all 200" (List.init 10 (fun _ -> 200)) statuses;
        Alcotest.(check (list (pair string int_v))) "no fd denial" [] denied;
        Alcotest.check int_v "no connection left open" 0 live);
    case "supervised keep-alive: three requests on one connection" (fun () ->
        let config = { Server.default_config with Server.keep_alive = true } in
        Alcotest.(check (list int_v))
          "all 200" [ 200; 200; 200 ]
          (value
             ( Server.start ~config ~backend:(Ev.Backend.sim ()) echo_handler
             >>= fun server ->
               Server.connect server >>= fun conn ->
               status_of conn >>= fun a ->
               status_of conn >>= fun b ->
               status_of conn >>= fun c ->
               Http.Conn.close conn >>= fun () ->
               Server.shutdown server >>= fun _ -> return [ a; b; c ] )));
    case "end-to-end: routed request gets its answer" (fun () ->
        let response =
          value
            ( Server.start ~backend:(Ev.Backend.sim ()) echo_handler >>= fun server ->
              get server "/hello" >>= fun r ->
              Server.shutdown server >>= fun _ -> return r )
        in
        Alcotest.check int_v "status" 200 response.Http.status;
        Alcotest.check str_v "body" "world" response.Http.body);
    case "unknown path gets 404" (fun () ->
        Alcotest.check int_v "status" 404
          (value
             ( Server.start ~backend:(Ev.Backend.sim ()) echo_handler >>= fun server ->
               get server "/nope" >>= fun r ->
               Server.shutdown server >>= fun _ -> return r.Http.status )));
    case "post body is echoed" (fun () ->
        Alcotest.check str_v "echo" "data-123"
          (value
             ( Server.start ~backend:(Ev.Backend.sim ()) echo_handler >>= fun server ->
               get server ~body:"data-123" "/echo" >>= fun r ->
               Server.shutdown server >>= fun _ -> return r.Http.body )));
    case "many concurrent clients are all served" (fun () ->
        let n = 12 in
        let stats, statuses =
          value
            ( Server.start ~backend:(Ev.Backend.sim ()) echo_handler >>= fun server ->
              Combinators.parallel_map
                (fun _ -> get server "/hello")
                (List.init n Fun.id)
              >>= fun responses ->
              Server.shutdown server >>= fun stats ->
              return (stats, List.map (fun r -> r.Http.status) responses) )
        in
        Alcotest.(check (list int_v)) "all 200"
          (List.init n (fun _ -> 200))
          statuses;
        Alcotest.check int_v "served count" n stats.Server.served);
    case "a slowloris client is answered 504 by the timeout" (fun () ->
        let response =
          value
            ( Server.start ~backend:(Ev.Backend.sim ()) echo_handler >>= fun server ->
              Server.connect server >>= fun conn ->
              (* trickle an incomplete request forever *)
              fork
                (Combinators.forever
                   ( Http.Conn.send_string conn "G" >>= fun () ->
                     sleep 50 ))
              >>= fun _dripper ->
              Http.read_response conn >>= fun r ->
              Server.shutdown server >>= fun _ -> return r )
        in
        Alcotest.check int_v "status" 504 response.Http.status);
    case "slow handlers hit the same timeout" (fun () ->
        let slow_handler _req =
          sleep 10_000 >>= fun () -> return (Http.ok "too late")
        in
        Alcotest.check int_v "status" 504
          (value
             ( Server.start ~backend:(Ev.Backend.sim ()) slow_handler >>= fun server ->
               get server "/x" >>= fun r ->
               Server.shutdown server >>= fun _ -> return r.Http.status )));
    case "a handler's universal catch answers, then the lapse closes it"
      (fun () ->
        (* the handler runs under the request deadline in the worker: a
           plain [catch] intercepts the deadline and its fallback goes
           out, but the request still books as lapsed; [catch_sync] lets
           the deadline through to the 504 *)
        let serve_once catch_ =
          let handler _req =
            catch_ (sleep 10_000 >>= fun () -> return (Http.ok "too late"))
              (fun _ -> return (Http.ok "fallback"))
          in
          let reg = Obs.Metrics.create () in
          value
            ( Server.start ~metrics:reg ~backend:(Ev.Backend.sim ()) handler
            >>= fun server ->
              get server "/x" >>= fun r ->
              Server.shutdown server >>= fun stats ->
              return
                ( r.Http.status,
                  stats.Server.served,
                  stats.Server.timeouts,
                  Obs.Metrics.counter_value
                    (Obs.Metrics.counter reg
                       ~labels:[ ("backend", "sim"); ("kind", "deadline") ]
                       "server_io_faults_total") ) )
        in
        let q = Alcotest.(pair int_v (pair int_v (pair int_v int_v))) in
        let flat (a, b, c, d) = (a, (b, (c, d))) in
        Alcotest.check q "catch: 200, served, closed as a deadline"
          (200, (1, (0, 1)))
          (flat (serve_once catch));
        Alcotest.check q "catch_sync: 504, a timeout"
          (504, (0, (1, 0)))
          (flat (serve_once catch_sync)));
    case "admission control requires timeouts to cover queueing" (fun () ->
        (* 1 worker slot and a slow handler: the second client's worker
           waits for admission and times out end-to-end *)
        let config =
          { Server.default_config with Server.max_concurrent = 1 }
        in
        let slowish _req = sleep 150 >>= fun () -> return (Http.ok "done") in
        let statuses =
          value
            ( Server.start ~backend:(Ev.Backend.sim ()) ~config slowish >>= fun server ->
              Combinators.parallel_map
                (fun _ -> get server "/x" >>= fun r -> return r.Http.status)
                [ 0; 1; 2 ]
              >>= fun statuses ->
              Server.shutdown server >>= fun _ -> return statuses )
        in
        Alcotest.(check bool) "someone served" true (List.mem 200 statuses);
        Alcotest.(check bool) "someone timed out" true (List.mem 504 statuses));
    case "shutdown rejects queued connections and reports stats" (fun () ->
        let stats =
          value
            ( Server.start ~backend:(Ev.Backend.sim ()) echo_handler >>= fun server ->
              get server "/hello" >>= fun _ ->
              Server.shutdown server >>= fun stats -> return stats )
        in
        Alcotest.check int_v "served" 1 stats.Server.served;
        Alcotest.check int_v "rejected" 0 stats.Server.rejected);
    case "connect after shutdown raises Server_stopped" (fun () ->
        match
          run
            ( Server.start ~backend:(Ev.Backend.sim ()) echo_handler >>= fun server ->
              Server.shutdown server >>= fun _ -> Server.connect server )
        with
        | { Runtime.outcome = Runtime.Uncaught Server.Server_stopped; _ } -> ()
        | _ -> Alcotest.fail "expected Server_stopped");
    case "bad request over the wire gets 400, server survives" (fun () ->
        let first_status, second =
          value
            ( Server.start ~backend:(Ev.Backend.sim ()) echo_handler >>= fun server ->
              Server.connect server >>= fun conn ->
              Http.Conn.send_string conn "BROKEN\r\n\r\n" >>= fun () ->
              Http.read_response conn >>= fun bad ->
              get server "/hello" >>= fun good ->
              Server.shutdown server >>= fun _ ->
              return (bad.Http.status, good.Http.status) )
        in
        Alcotest.check int_v "bad gets 400" 400 first_status;
        Alcotest.check int_v "server still fine" 200 second);
  ]

let suites = [ ("server:http", http_tests); ("server:behaviour", server_tests) ]
