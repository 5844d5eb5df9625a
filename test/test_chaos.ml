(* The I/O chaos layer: determinism and transparency of the Ev.Chaos
   decorator, the injection metric, the fault engine's I/O and load
   enumerators (clean suites stay clean, a deliberately fragile case is
   caught and shrunk, each load gate fails when its condition breaks), and
   the headline robustness demonstration — a reset injected into the
   server's response write restarts the worker and degrades that one
   connection instead of escaping the supervisor. *)

open Hio_std
open Hio.Io
open Helpers
open Fault

let int_v = Alcotest.int

let fault_t : (Ev.Chaos.op * int * Ev.Chaos.fault) Alcotest.testable =
  Alcotest.testable
    (fun ppf (op, at, f) ->
      Fmt.pf ppf "%s@%d:%s" (Ev.Chaos.op_label op) at
        (Ev.Chaos.fault_label f))
    ( = )

let handler =
  Hserver.Server.route [ ("/hello", fun _ -> Hserver.Http.ok "hi") ]

let request conn =
  Hserver.Http.write_request conn
    { Hserver.Http.meth = "GET"; path = "/hello"; headers = []; body = "" }
  >>= fun () ->
  Combinators.timeout 2_000 (Hserver.Http.read_response conn)

(* One client against a server on a chaos-wrapped sim backend; returns
   (outcome, injections, injected list). *)
let one_shot ?metrics plan =
  value
    ( lift (fun () -> Ev.Chaos.create ?metrics plan) >>= fun ctl ->
      Hserver.Server.start
        ~backend:(Ev.Chaos.wrap ctl (Ev.Backend.sim ()))
        handler
      >>= fun server ->
      catch
        ( Hserver.Server.connect server >>= fun conn ->
          request conn >>= fun r ->
          return
            (match r with
            | Some resp -> `Status resp.Hserver.Http.status
            | None -> `Timed_out) )
        (fun e ->
          if Hsup.Retry.transient_io e || e = Hserver.Server.Dial_timeout
          then return `Transport
          else throw e)
      >>= fun outcome ->
      Ev.Chaos.disarm ctl >>= fun () ->
      Hserver.Server.shutdown server >>= fun _ ->
      return (outcome, Ev.Chaos.injected ctl) )

let decorator_tests =
  [
    case "an empty plan is observationally transparent" (fun () ->
        let bare =
          value
            ( Hserver.Server.start ~backend:(Ev.Backend.sim ()) handler
            >>= fun server ->
              Hserver.Server.connect server >>= fun conn ->
              request conn >>= fun r ->
              Hserver.Server.shutdown server >>= fun stats ->
              return (r, stats.Hserver.Server.served) )
        in
        let wrapped, injected = one_shot [] in
        (match (bare, wrapped) with
        | (Some resp, served), `Status s ->
            Alcotest.check int_v "same status" resp.Hserver.Http.status s;
            Alcotest.check int_v "served one" 1 served
        | _ -> Alcotest.fail "bare or wrapped run diverged");
        Alcotest.(check (list fault_t)) "nothing injected" [] injected);
    case "a dial-refusal rule injects Connection_refused" (fun () ->
        let outcome, injected =
          one_shot
            [ { Ev.Chaos.r_op = Dial; r_at = 0; r_fault = Ev.Chaos.Reset } ]
        in
        Alcotest.(check bool) "client degraded" true (outcome = `Transport);
        Alcotest.(check (list fault_t))
          "one dial injection"
          [ (Ev.Chaos.Dial, 0, Ev.Chaos.Reset) ]
          injected);
    case "injections are deterministic across runs" (fun () ->
        let plan =
          [
            { Ev.Chaos.r_op = Recv; r_at = 5; r_fault = Ev.Chaos.Eof };
            { Ev.Chaos.r_op = Send; r_at = 1; r_fault = Ev.Chaos.Reset };
          ]
        in
        let o1, i1 = one_shot plan in
        let o2, i2 = one_shot plan in
        Alcotest.(check bool) "same outcome" true (o1 = o2);
        Alcotest.(check (list fault_t)) "same injections" i1 i2;
        Alcotest.(check bool) "something landed" true (i1 <> []));
    case "chaos_injected_total counts by op and kind" (fun () ->
        let reg = Obs.Metrics.create () in
        let _ =
          one_shot ~metrics:reg
            [ { Ev.Chaos.r_op = Send; r_at = 0; r_fault = Ev.Chaos.Eof } ]
        in
        Alcotest.check int_v "labelled series" 1
          (Obs.Metrics.counter_value
             (Obs.Metrics.counter reg
                ~labels:[ ("kind", "eof"); ("op", "send") ]
                "chaos_injected_total")));
    case "disarm stops counting and injecting" (fun () ->
        let sites =
          value
            ( lift (fun () ->
                  Ev.Chaos.create
                    [
                      {
                        Ev.Chaos.r_op = Send;
                        r_at = 0;
                        r_fault = Ev.Chaos.Reset;
                      };
                    ])
            >>= fun ctl ->
              Ev.Backend.sim_pipe () >>= fun (a, _b) ->
              let a = Ev.Chaos.wrap_conn ctl a in
              Ev.Chaos.disarm ctl >>= fun () ->
              a.Ev.Backend.c_send "quiet" >>= fun () ->
              return (Ev.Chaos.site_counts ctl, Ev.Chaos.injected_count ctl)
            )
        in
        Alcotest.(check bool)
          "no sites, no injections" true
          (sites = (List.map (fun op -> (op, 0)) Ev.Chaos.all_ops, 0)));
  ]

(* --- the headline demonstration ----------------------------------------

   With one client, the wrapped backend's Send sites are: 0 = the
   client's request write, 1 = the server's response write. Resetting
   site 1 cuts the connection mid-response inside the worker: the write
   fault escapes the worker on purpose, the supervisor restarts the
   slot, and the restarted incarnation finds the request already
   answered and simply closes the connection — the client degrades, the
   supervisor does not escalate, and the next request is served. *)
let mid_response_reset_tests =
  [
    case "a mid-response reset restarts the worker, not the server"
      (fun () ->
        let reg = Obs.Metrics.create () in
        let outcome, restarts, probe_ok, injections =
          value
            ( lift (fun () ->
                  Ev.Chaos.create
                    [
                      {
                        Ev.Chaos.r_op = Send;
                        r_at = 1;
                        r_fault = Ev.Chaos.Reset;
                      };
                    ])
            >>= fun ctl ->
              Hserver.Server.start ~metrics:reg
                ~backend:(Ev.Chaos.wrap ctl (Ev.Backend.sim ()))
                handler
              >>= fun server ->
              catch
                ( Hserver.Server.connect server >>= fun conn ->
                  request conn >>= fun r ->
                  return
                    (match r with
                    | Some resp -> `Status resp.Hserver.Http.status
                    | None -> `Timed_out) )
                (fun e ->
                  if Hsup.Retry.transient_io e then return `Transport
                  else throw e)
              >>= fun outcome ->
              Ev.Chaos.disarm ctl >>= fun () ->
              (match Hserver.Server.supervisor server with
              | Some sup -> Hsup.Sup.restart_count sup
              | None -> return (-1))
              >>= fun restarts ->
              (* steady state: the next request on a clean transport is
                 served normally *)
              Hserver.Server.connect server >>= fun conn ->
              request conn >>= fun r ->
              Hserver.Server.shutdown server >>= fun _ ->
              return
                ( outcome,
                  restarts,
                  (match r with
                  | Some resp -> resp.Hserver.Http.status = 200
                  | None -> false),
                  Ev.Chaos.injected_count ctl ) )
        in
        Alcotest.(check bool)
          "that connection degraded (transport fault or timeout)" true
          (outcome = `Transport || outcome = `Timed_out);
        Alcotest.(check bool)
          (Printf.sprintf "worker was restarted (count %d)" restarts)
          true (restarts >= 1);
        Alcotest.(check bool) "next request served with 200" true probe_ok;
        Alcotest.check int_v "exactly the planned injection" 1 injections;
        Alcotest.check int_v "the reset was booked as a server io fault" 1
          (Obs.Metrics.counter_value
             (Obs.Metrics.counter reg
                ~labels:[ ("backend", "sim"); ("kind", "reset") ]
                "server_io_faults_total")));
  ]

(* --- the fault engine's I/O and load enumerators ---------------------- *)

(* A deliberately fragile case: the reader demands the WHOLE payload, so
   any fault that cuts the stream (eof, reset, short write) must be
   caught by the sweep — and shrunk to an early site. *)
let fragile =
  Sweep.case ~max_steps:50_000 "fragile-pipe" (fun { Sweep.ctl; _ } ->
      Ev.Backend.sim_pipe ~capacity:8 () >>= fun (a, b) ->
      let a = Ev.Chaos.wrap_conn ctl a and b = Ev.Chaos.wrap_conn ctl b in
      let payload = "all or nothing" in
      lift (fun () -> Buffer.create 16) >>= fun got ->
      let writer =
        catch (a.Ev.Backend.c_send payload) (fun _ -> return ())
        >>= fun () -> a.Ev.Backend.c_close ()
      in
      let reader =
        let rec go () =
          b.Ev.Backend.c_recv_char () >>= fun c ->
          lift (fun () -> Buffer.add_char got c) >>= fun () -> go ()
        in
        catch
          (ignore_result (Combinators.timeout 5_000 (go ())))
          (fun _ -> return ())
        >>= fun () -> b.Ev.Backend.c_close ()
      in
      Task.spawn ~name:"writer" writer >>= fun w ->
      Task.spawn ~name:"reader" reader >>= fun r ->
      Fault.Cases.join w >>= fun () ->
      a.Ev.Backend.c_close () >>= fun () ->
      Fault.Cases.join r >>= fun () ->
      Sweep.disarm >>= fun () ->
      Ev.Chaos.disarm ctl >>= fun () ->
      lift (fun () -> Buffer.contents got) >>= fun got ->
      Sweep.require "fragile: the whole payload arrived" (got = payload))

let no_failures (r : Sweep.report) =
  match r.failures with
  | [] -> ()
  | f :: _ ->
      Alcotest.failf "unexpected failure: %a then %s" Ev.Chaos.pp_plan
        f.fault.chaos f.reason

(* A load case with no server: its tally is a function of the
   multiplier alone, so each cross-run gate can be broken on purpose. *)
let synthetic ~ok ~qdelay =
  Sweep.case "synthetic-load" (fun { Sweep.mult; _ } ->
      return
        {
          Sweep.lt_offered = 6 * mult;
          lt_ok = ok mult;
          lt_shed = (6 * mult) - ok mult;
          lt_late = 0;
          lt_transport = 0;
          lt_max_qdelay = qdelay mult;
        })

let gate_failures ~ok ~qdelay =
  let r = Sweep.load ~qdelay_bound:100 (synthetic ~ok ~qdelay) in
  List.map (fun (f : Sweep.failure) -> (f.fault.mult, f.reason)) r.failures

let top = List.nth Sweep.multipliers (List.length Sweep.multipliers - 1)

let sweep_tests =
  [
    case "io-pipe survives every fault at every site (plus kills)"
      (fun () ->
        let r = Sweep.io ~kills_per_point:1 Io_cases.io_pipe in
        Alcotest.(check bool) "has fault points" true (r.points > 0);
        Alcotest.(check bool) "ran combined kills" true (r.kill_runs > 0);
        no_failures r;
        Alcotest.(check bool) "send sites seen" true
          (List.assoc Ev.Chaos.Send r.sites >= 1));
    slow_case "io-server survives a sampled fault+kill sweep" (fun () ->
        let r =
          Sweep.io ~max_sites_per_op:2 ~kills_per_point:1 Io_cases.io_server
        in
        no_failures r;
        Alcotest.(check bool) "reached dial sites" true
          (List.assoc Ev.Chaos.Dial r.sites >= 1));
    case "a fragile case is caught and the rule shrinks to an early site"
      (fun () ->
        let r = Sweep.io ~max_sites_per_op:3 fragile in
        Alcotest.(check bool) "failures found" true (r.failures <> []);
        let site (f : Sweep.fault) = (List.hd f.chaos).Ev.Chaos.r_at in
        List.iter
          (fun (f : Sweep.failure) ->
            Alcotest.(check bool) "shrunk site is no later" true
              (site f.shrunk <= site f.fault))
          r.failures;
        (* replay: a reported (shrunk) counterexample still fails *)
        let recording = Sweep.record fragile Sweep.clean in
        let f = List.hd r.failures in
        Alcotest.(check bool) "replay fails" true
          (fst (Sweep.run fragile recording f.shrunk) <> None));
    case "sweep reports are identical across job counts" (fun () ->
        List.iter
          (fun (what, sweep) ->
            Alcotest.(check bool) what true (sweep ~jobs:1 = sweep ~jobs:4))
          [
            ("kills", fun ~jobs -> Sweep.kills ~jobs Cases.naive_lock);
            ( "io",
              fun ~jobs -> Sweep.io ~kills_per_point:1 ~jobs Io_cases.io_pipe
            );
            ( "load",
              fun ~jobs ->
                Sweep.load ~qdelay_bound:Load_cases.qdelay_bound
                  ~kills_per_ramp:1 ~resources:Load_cases.overload_resources
                  ~jobs Load_cases.overload_server );
          ]);
    case "the load gates pass a curve that degrades gracefully" (fun () ->
        Alcotest.(check (list (pair int string))) "no failures" []
          (gate_failures ~ok:(fun m -> min (6 * m) 12) ~qdelay:(fun _ -> 100)));
    case "goodput collapse at the top multiplier fails the sweep" (fun () ->
        match
          gate_failures
            ~ok:(fun m -> if m = top then 2 else 6)
            ~qdelay:(fun _ -> 0)
        with
        | [ (m, reason) ] ->
            Alcotest.(check int) "at the top multiplier" top m;
            Alcotest.(check bool) reason true
              (String.starts_with ~prefix:"goodput collapsed" reason)
        | fs -> Alcotest.failf "expected one failure, got %d" (List.length fs));
    case "a queue delay over the CoDel bound fails the sweep" (fun () ->
        match
          gate_failures
            ~ok:(fun _ -> 6)
            ~qdelay:(fun m -> if m = 5 then 101 else 0)
        with
        | [ (m, reason) ] ->
            Alcotest.(check int) "at the offending multiplier" 5 m;
            Alcotest.(check bool) reason true
              (String.starts_with ~prefix:"queue delay 101" reason)
        | fs -> Alcotest.failf "expected one failure, got %d" (List.length fs));
  ]

let suites =
  [
    ("chaos:decorator", decorator_tests);
    ("chaos:mid-response-reset", mid_response_reset_tests);
    ("chaos:sweep", sweep_tests);
  ]
