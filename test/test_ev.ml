(* The event manager: timer wheel correctness (unit + model-based),
   Io-level timer semantics (no ghost wakeups), the Backend switch
   (sim-explicit ≡ sim-implicit), and a real-TCP loopback smoke over the
   epoll event source. *)

open Hio
open Hio_std
open Hio.Io
open Helpers
module Tw = Hio.Timer_wheel

let int_v = Alcotest.int
let ints = Alcotest.(list int)

(* ---- wheel unit tests ------------------------------------------------- *)

let wheel_tests =
  [
    case "same-instant cohort fires in descending insertion order" (fun () ->
        let w = Tw.create () in
        List.iter (fun i -> ignore (Tw.add w ~deadline:10 i)) [ 0; 1; 2 ];
        Alcotest.check ints "reverse insertion" [ 2; 1; 0 ]
          (Tw.advance w ~now:10));
    case "across instants: ascending deadline" (fun () ->
        let w = Tw.create () in
        ignore (Tw.add w ~deadline:30 30);
        ignore (Tw.add w ~deadline:10 10);
        ignore (Tw.add w ~deadline:20 20);
        Alcotest.check ints "sorted" [ 10; 20; 30 ] (Tw.advance w ~now:100));
    case "past deadline fires immediately, at the current instant" (fun () ->
        let w = Tw.create ~start:50 () in
        ignore (Tw.add w ~deadline:7 1);
        Alcotest.(check (option int)) "clamped" (Some 50) (Tw.next_deadline w);
        Alcotest.check ints "fires now" [ 1 ] (Tw.advance w ~now:50));
    case "cascade across the level-0 boundary (256)" (fun () ->
        let w = Tw.create ~start:250 () in
        ignore (Tw.add w ~deadline:260 1);
        (* 260 lives on level 1 until the wheel rolls past 256 *)
        Alcotest.check ints "not yet at 255" [] (Tw.advance w ~now:255);
        Alcotest.check ints "not yet at 259" [] (Tw.advance w ~now:259);
        Alcotest.check ints "fires at 260" [ 1 ] (Tw.advance w ~now:260));
    case "rollover across the level-1 boundary (65536)" (fun () ->
        let w = Tw.create ~start:65_530 () in
        ignore (Tw.add w ~deadline:65_540 1);
        ignore (Tw.add w ~deadline:65_537 2);
        Alcotest.check ints "cohorts in order" [ 2; 1 ]
          (Tw.advance w ~now:70_000));
    case "far-future entries survive in the overflow list" (fun () ->
        let w = Tw.create () in
        let far = (1 lsl 32) + 12_345 in
        ignore (Tw.add w ~deadline:far 1);
        ignore (Tw.add w ~deadline:5 2);
        Alcotest.(check (option int)) "near first" (Some 5) (Tw.next_deadline w);
        Alcotest.check ints "near fires" [ 2 ] (Tw.advance w ~now:1_000_000);
        Alcotest.(check (option int))
          "exact far deadline" (Some far) (Tw.next_deadline w);
        Alcotest.check ints "far fires" [ 1 ] (Tw.advance w ~now:far));
    case "next_deadline is exact across levels" (fun () ->
        let w = Tw.create () in
        List.iter
          (fun d -> ignore (Tw.add w ~deadline:d d))
          [ 17; 300; 70_000; 20_000_000 ];
        let rec drain acc =
          match Tw.next_deadline w with
          | None -> List.rev acc
          | Some d ->
              let fired = Tw.advance w ~now:d in
              drain (List.rev_append fired acc)
        in
        Alcotest.check ints "visited in order" [ 17; 300; 70_000; 20_000_000 ]
          (drain []));
    case "cancel: never fires, live count drops, idempotent" (fun () ->
        let w = Tw.create () in
        let e1 = Tw.add w ~deadline:10 1 in
        let _e2 = Tw.add w ~deadline:10 2 in
        Alcotest.check int_v "live 2" 2 (Tw.live w);
        Tw.cancel w e1;
        Tw.cancel w e1;
        Alcotest.check int_v "live 1" 1 (Tw.live w);
        Alcotest.(check bool) "flagged" false (Tw.pending e1);
        Alcotest.check ints "only survivor" [ 2 ] (Tw.advance w ~now:10);
        Alcotest.check int_v "live 0" 0 (Tw.live w));
    case "cancelling a fired entry does not count it twice" (fun () ->
        let w = Tw.create () in
        let e1 = Tw.add w ~deadline:5 1 in
        ignore (Tw.add w ~deadline:100 2);
        Alcotest.check ints "first fires" [ 1 ] (Tw.advance w ~now:10);
        Alcotest.(check bool) "spent" false (Tw.pending e1);
        Alcotest.check int_v "live 1" 1 (Tw.live w);
        Tw.cancel w e1;
        Alcotest.check int_v "still live 1" 1 (Tw.live w);
        Alcotest.(check (option int))
          "the survivor is still due" (Some 100) (Tw.next_deadline w));
    case "advance_to_next jumps exactly to the earliest instant" (fun () ->
        let w = Tw.create () in
        ignore (Tw.add w ~deadline:400 1);
        ignore (Tw.add w ~deadline:400 2);
        ignore (Tw.add w ~deadline:900 3);
        (match Tw.advance_to_next w with
        | Some (t, fired) ->
            Alcotest.check int_v "instant" 400 t;
            Alcotest.check ints "cohort" [ 2; 1 ] fired
        | None -> Alcotest.fail "expected a cohort");
        (match Tw.advance_to_next w with
        | Some (t, fired) ->
            Alcotest.check int_v "instant" 900 t;
            Alcotest.check ints "cohort" [ 3 ] fired
        | None -> Alcotest.fail "expected a cohort");
        Alcotest.(check (option int)) "empty" None (Tw.next_deadline w));
    slow_case "100k timers: all fire, in model order" (fun () ->
        let n = 100_000 in
        let w = Tw.create () in
        let deadlines = Array.init n (fun i -> (i * 7919 mod 65_521) + 1) in
        Array.iteri (fun i d -> ignore (Tw.add w ~deadline:d i)) deadlines;
        Alcotest.check int_v "live" n (Tw.live w);
        let fired = Tw.advance w ~now:70_000 in
        Alcotest.check int_v "all fired" n (List.length fired);
        let expected =
          List.init n (fun i -> i)
          |> List.stable_sort (fun a b ->
                 match compare deadlines.(a) deadlines.(b) with
                 | 0 -> compare b a
                 | c -> c)
        in
        Alcotest.(check bool) "model order" true (fired = expected));
  ]

(* Model-based: a random batch of (deadline, cancel?) against the naive
   model "sort the survivors by (deadline asc, insertion desc)", fired in
   two advances so mid-flight cascade state is exercised. *)
let qtest name ?(count = 200) gen prop =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~name ~count gen prop)

let wheel_props =
  [
    qtest "wheel ≡ sorted-list model under add/cancel/advance"
      QCheck2.Gen.(
        pair
          (list_size (int_range 0 120)
             (pair (int_range 0 5_000) (int_range 0 9)))
          (int_range 0 5_000))
      (fun (ops, mid) ->
        let w = Tw.create () in
        let entries =
          List.mapi (fun i (d, c) -> (i, d, c = 0, Tw.add w ~deadline:d i)) ops
        in
        List.iter (fun (_, _, cancel, e) -> if cancel then Tw.cancel w e)
          entries;
        let fired = Tw.advance w ~now:mid @ Tw.advance w ~now:6_000 in
        let expected =
          entries
          |> List.filter (fun (_, _, cancel, _) -> not cancel)
          |> List.map (fun (i, d, _, _) -> (i, d))
          |> List.stable_sort (fun (i1, d1) (i2, d2) ->
                 match compare d1 d2 with 0 -> compare i2 i1 | c -> c)
          |> List.map fst
        in
        fired = expected);
  ]

(* ---- Io-level timer semantics ----------------------------------------- *)

let timer_tests =
  [
    case "armed timer delivers its token at an interruptible wait" (fun () ->
        Alcotest.(check string) "signalled" "signalled"
          (value
             (block
                ( arm_timer 0 >>= fun h ->
                  catch
                    (sleep 5 >>= fun () -> return "missed")
                    (fun e ->
                      if Io.is_timer_signal h e then return "signalled"
                      else throw e) ))));
    case "cancel before the deadline: no wakeup" (fun () ->
        Alcotest.(check string) "clean" "clean"
          (value
             (block
                ( arm_timer 50 >>= fun h ->
                  cancel_timer h >>= fun () ->
                  catch
                    (sleep 100 >>= fun () -> return "clean")
                    (fun _ -> return "ghost") ))));
    case "cancel after the token is posted purges it (no ghost wakeup)"
      (fun () ->
        (* arm_timer 0 posts the token immediately; masked, it sits in
           the pending queue until cancel_timer withdraws it *)
        Alcotest.(check string) "clean" "clean"
          (value
             (block
                ( arm_timer 0 >>= fun h ->
                  cancel_timer h >>= fun () ->
                  catch
                    (sleep 5 >>= fun () -> return "clean")
                    (fun _ -> return "ghost") ))));
    case "cancelling a fired-but-undelivered timer keeps sleepers due"
      (fun () ->
        (* the alarm fires at 5 while its thread sleeps uninterruptibly,
           so the token stays pending; cancel_timer then withdraws a
           wheel entry that already fired, and must not take the forked
           sleeper's deadline out of the live count with it *)
        let r =
          run
            ( fork (sleep 100) >>= fun _ ->
              uninterruptibly
                ( arm_timer 5 >>= fun h ->
                  sleep 10 >>= fun () -> cancel_timer h )
              >>= fun () -> sleep 200 )
        in
        match r.Runtime.outcome with
        | Runtime.Value () -> Alcotest.check int_v "clock" 210 r.Runtime.time
        | o ->
            Alcotest.failf "unexpected outcome: %a"
              (Runtime.pp_outcome (fun ppf () -> Fmt.pf ppf "()"))
              o);
    case "tokens are per-timer: nested arms cannot be confused" (fun () ->
        Alcotest.(check string) "outer" "outer"
          (value
             (block
                ( arm_timer 5 >>= fun outer ->
                  arm_timer 3 >>= fun inner ->
                  cancel_timer inner >>= fun () ->
                  catch
                    (sleep 100 >>= fun () -> return "missed")
                    (fun e ->
                      if Io.is_timer_signal outer e then return "outer"
                      else if Io.is_timer_signal inner e then return "inner"
                      else throw e) ))));
    case "throwTo into a timeout interrupts its action and cancels its timer"
      (fun () ->
        let r =
          run
            ( fork
                ( Combinators.timeout 1_000 (sleep 500) >>= fun _ ->
                  return () )
            >>= fun victim ->
              yields 2 >>= fun () ->
              throw_to victim Kill_thread >>= fun () -> yields 10 )
        in
        (match r.Runtime.outcome with
        | Runtime.Value () -> ()
        | o ->
            Alcotest.failf "unexpected outcome: %a"
              (Runtime.pp_outcome (fun ppf () -> Fmt.pf ppf "()"))
              o);
        Alcotest.(check int) "nothing left blocked" 0
          (List.length r.Runtime.blocked_at_exit);
        Alcotest.(check int) "clock never reached the deadline" 0
          r.Runtime.time);
    slow_case "100k concurrent sleepers complete on the virtual clock"
      (fun () ->
        let n = 100_000 in
        let woken = ref 0 in
        let r =
          run
            (let rec spawn i =
               if i = n then return ()
               else
                 fork
                   ( sleep ((i * 7919 mod 997) + 1) >>= fun () ->
                     lift (fun () -> incr woken) )
                 >>= fun _ -> spawn (i + 1)
             in
             spawn 0 >>= fun () -> sleep 1_000)
        in
        (match r.Runtime.outcome with
        | Runtime.Value () -> ()
        | _ -> Alcotest.fail "did not complete");
        Alcotest.check int_v "all woke" n !woken;
        Alcotest.check int_v "virtual time is the last deadline" 1_000
          r.Runtime.time);
  ]

(* ---- backend switch --------------------------------------------------- *)

let handler =
  Hserver.Server.route [ ("/hello", fun _ -> Hserver.Http.ok "hi") ]

let client server path =
  Hserver.Server.connect server >>= fun conn ->
  Hserver.Http.write_request conn
    { Hserver.Http.meth = "GET"; path; headers = []; body = "" }
  >>= fun () ->
  Hserver.Http.read_response conn >>= fun resp ->
  return (resp.Hserver.Http.status, resp.Hserver.Http.body)

let scenario ?backend () =
  Hserver.Server.start ?backend handler >>= fun server ->
  Combinators.parallel
    [ client server "/hello"; client server "/hello"; client server "/miss" ]
  >>= fun replies ->
  Hserver.Server.shutdown server >>= fun stats ->
  return (replies, stats.Hserver.Server.served)

let switch_tests =
  [
    case "explicit sim backend serves identically to the implicit default"
      (fun () ->
        let implicit = value (scenario ()) in
        let explicit = value (scenario ~backend:(Ev.Backend.sim ()) ()) in
        Alcotest.(check (pair (list (pair int string)) int))
          "same replies and stats" implicit explicit;
        let replies, served = implicit in
        Alcotest.check int_v "served" 3 served;
        Alcotest.(check (list (pair int string)))
          "bodies"
          [ (200, "hi"); (200, "hi"); (404, "not found") ]
          replies);
    case "sim listener: dial/accept round-trips bytes" (fun () ->
        Alcotest.(check string) "echoed" "ping"
          (value
             (let b = Ev.Backend.sim () in
              b.Ev.Backend.b_listen ~backlog:4 >>= fun l ->
              fork
                ( l.Ev.Backend.l_accept () >>= fun c ->
                  c.Ev.Backend.c_recv_char () >>= fun ch ->
                  c.Ev.Backend.c_send (String.make 1 ch) )
              >>= fun _ ->
              l.Ev.Backend.l_dial () >>= fun c ->
              c.Ev.Backend.c_send "p" >>= fun () ->
              c.Ev.Backend.c_recv_char () >>= fun ch ->
              Alcotest.(check char) "byte" 'p' ch;
              Hserver.Http.Conn.send_string c "ing" >>= fun () ->
              return ("p" ^ "ing"))));
    case "metrics carry a backend label only when a backend is explicit"
      (fun () ->
        let reg = Obs.Metrics.create () in
        ignore
          (value
             ( Hserver.Server.start ~metrics:reg
                 ~backend:(Ev.Backend.sim ()) handler
             >>= fun server ->
               client server "/hello" >>= fun _ ->
               Hserver.Server.shutdown server ));
        Alcotest.check int_v "labelled series counts the request" 1
          (Obs.Metrics.counter_value
             (Obs.Metrics.counter reg
                ~labels:[ ("outcome", "ok"); ("backend", "sim") ]
                "server_requests_total")));
  ]

(* ---- close semantics, identical on both backends ----------------------
   [c_close] is idempotent, and a peer that closes while we are blocked
   in [c_recv_char] wakes us with [End_of_file] — the sim pipes must
   behave exactly like a TCP FIN through the epoll event source. *)

let close_scenario (b : Ev.Backend.t) =
  b.Ev.Backend.b_listen ~backlog:4 >>= fun l ->
  l.Ev.Backend.l_dial () >>= fun client ->
  l.Ev.Backend.l_accept () >>= fun served ->
  Mvar.new_empty >>= fun res ->
  fork
    (catch
       (served.Ev.Backend.c_recv_char () >>= fun _ -> Mvar.put res "got")
       (fun e ->
         Mvar.put res (if e = End_of_file then "eof" else "other")))
  >>= fun _ ->
  (* give the reader time to block before the close lands *)
  sleep 1_000 >>= fun () ->
  client.Ev.Backend.c_close () >>= fun () ->
  client.Ev.Backend.c_close () >>= fun () ->
  Mvar.take res >>= fun woke ->
  served.Ev.Backend.c_close () >>= fun () ->
  served.Ev.Backend.c_close () >>= fun () ->
  l.Ev.Backend.l_close () >>= fun () -> return woke

let close_tests =
  [
    case "sim: close during a blocked read wakes it with End_of_file"
      (fun () ->
        Alcotest.(check string) "woken" "eof"
          (value (close_scenario (Ev.Backend.sim ()))));
    case "sim pipe: queued bytes drain before the EOF surfaces" (fun () ->
        Alcotest.(check string) "drain then eof" "xy:eof"
          (value
             ( Ev.Backend.sim_pipe () >>= fun (a, b) ->
               a.Ev.Backend.c_send "xy" >>= fun () ->
               a.Ev.Backend.c_close () >>= fun () ->
               a.Ev.Backend.c_close () >>= fun () ->
               b.Ev.Backend.c_recv_char () >>= fun c1 ->
               b.Ev.Backend.c_recv_char () >>= fun c2 ->
               catch
                 (b.Ev.Backend.c_recv_char () >>= fun _ -> return "more")
                 (fun e ->
                   return (if e = End_of_file then "eof" else "other"))
               >>= fun tail ->
               return (Printf.sprintf "%c%c:%s" c1 c2 tail) )));
    case "sim pipe: send after close raises End_of_file" (fun () ->
        Alcotest.(check bool) "raises" true
          (value
             ( Ev.Backend.sim_pipe () >>= fun (a, _b) ->
               a.Ev.Backend.c_close () >>= fun () ->
               catch
                 (a.Ev.Backend.c_send "z" >>= fun () -> return false)
                 (fun e -> return (e = End_of_file)) )));
  ]

(* ---- the real backend (loopback TCP, epoll/select event source) ------- *)

let real_config () =
  {
    Hserver.Server.default_config with
    Hserver.Server.request_timeout = 2_000_000;
    max_concurrent = 64;
    supervised = false;
    keep_alive = true;
  }

let run_real io =
  let backend = Ev.Real.create () in
  let config =
    Ev.Backend.install backend
      { Runtime.Config.default with Runtime.Config.max_steps = 200_000_000 }
  in
  (backend, Runtime.run ~config (io backend))

(* The real-backend smokes ride the host's loopback stack, timers and
   thread scheduler, so a loaded CI machine can occasionally stall a
   request past its timeout or stretch a sleep beyond the generous
   bound. Each smoke gets a bounded number of attempts — a transient
   miss retries silently, a systematic failure still fails (with the
   last attempt's assertion) — and keeps its slow marking. *)
let rec retrying attempts f =
  try f () with _ when attempts > 1 -> retrying (attempts - 1) f

let flaky_slow_case name f = slow_case name (fun () -> retrying 3 f)

let real_tests =
  [
    flaky_slow_case
      "real: close during a blocked read wakes it with End_of_file"
      (fun () ->
        let _, r = run_real (fun backend -> close_scenario backend) in
        match r.Runtime.outcome with
        | Runtime.Value woke ->
            Alcotest.(check string) "woken" "eof" woke
        | Runtime.Uncaught e ->
            Alcotest.failf "uncaught: %s" (Printexc.to_string e)
        | Runtime.Deadlock -> Alcotest.fail "deadlock"
        | Runtime.Out_of_steps -> Alcotest.fail "out of steps");
    flaky_slow_case "sleep is real time under the event source" (fun () ->
        let _, r =
          run_real (fun _ ->
              now >>= fun t0 ->
              sleep 3_000 >>= fun () ->
              now >>= fun t1 -> return (t1 - t0))
        in
        match r.Runtime.outcome with
        | Runtime.Value elapsed ->
            Alcotest.(check bool)
              (Printf.sprintf "slept >= 3ms (got %dus)" elapsed)
              true (elapsed >= 3_000);
            Alcotest.(check bool)
              (Printf.sprintf "slept < 1s (got %dus)" elapsed)
              true
              (elapsed < 1_000_000)
        | _ -> Alcotest.fail "did not complete");
    flaky_slow_case "loopback keep-alive: 8 conns x 3 requests, all 200"
      (fun () ->
        let reg = Obs.Metrics.create () in
        let conns = 8 and reqs = 3 in
        let _, r =
          run_real (fun backend ->
              Hserver.Server.start ~config:(real_config ()) ~metrics:reg
                ~backend handler
              >>= fun server ->
              let one_conn _ =
                Hserver.Server.connect server >>= fun conn ->
                Combinators.repeat reqs
                  ( Hserver.Http.write_request conn
                      {
                        Hserver.Http.meth = "GET";
                        path = "/hello";
                        headers = [];
                        body = "";
                      }
                  >>= fun () ->
                    Hserver.Http.read_response conn >>= fun resp ->
                    if resp.Hserver.Http.status <> 200 then
                      throw (Failure "bad status")
                    else return () )
                >>= fun () -> Hserver.Http.Conn.close conn
              in
              Combinators.parallel (List.init conns one_conn) >>= fun _ ->
              Hserver.Server.shutdown server)
        in
        (match r.Runtime.outcome with
        | Runtime.Value stats ->
            Alcotest.check int_v "served" (conns * reqs)
              stats.Hserver.Server.served
        | Runtime.Uncaught e ->
            Alcotest.failf "uncaught: %s" (Printexc.to_string e)
        | Runtime.Deadlock -> Alcotest.fail "deadlock"
        | Runtime.Out_of_steps -> Alcotest.fail "out of steps");
        Alcotest.check int_v "latency histogram labelled backend=real"
          (conns * reqs)
          (Obs.Metrics.histogram_count
             (Obs.Metrics.histogram reg
                ~labels:[ ("backend", "real") ]
                "server_request_latency_steps")));
  ]

let suites =
  [
    ("ev:wheel", wheel_tests);
    ("ev:wheel-props", wheel_props);
    ("ev:timers", timer_tests);
    ("ev:switch", switch_tests);
    ("ev:close", close_tests);
    ("ev:real", real_tests);
  ]
