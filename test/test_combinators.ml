(* Tests for the §7 combinator library on the runtime, including
   adversarial sweeps that inject a kill at every scheduling point. *)

open Hio
open Hio_std
open Hio.Io
open Helpers

let int_v = Alcotest.int

(* Run [protected ()] as a victim killed after [k] yields, for every k up to
   [points]; after each run check the [invariant] on the runtime result. *)
let sweep ?(points = 30) ~invariant victim =
  for k = 0 to points do
    let prog =
      fork victim >>= fun t ->
      yields k >>= fun () ->
      throw_to t Kill_thread >>= fun () ->
      yields 40 >>= fun () -> return ()
    in
    invariant k (run prog)
  done

let finally_tests =
  [
    case "finally runs the cleanup on success" (fun () ->
        let cleaned = ref false in
        Alcotest.check int_v "result" 3
          (value
             (Combinators.finally (return 3) (lift (fun () -> cleaned := true))));
        Alcotest.(check bool) "cleanup" true !cleaned);
    case "finally runs the cleanup on exception and rethrows" (fun () ->
        let cleaned = ref false in
        (match
           uncaught
             (Combinators.finally (throw Not_found)
                (lift (fun () -> cleaned := true)))
         with
        | Not_found -> ()
        | e -> Alcotest.failf "wrong exn %s" (Printexc.to_string e));
        Alcotest.(check bool) "cleanup" true !cleaned);
    case "later is finally reversed" (fun () ->
        let cleaned = ref false in
        Alcotest.check int_v "result" 4
          (value
             (Combinators.later (lift (fun () -> cleaned := true)) (return 4)));
        Alcotest.(check bool) "cleanup" true !cleaned);
    case "on_exception does not run on success" (fun () ->
        let hit = ref false in
        ignore
          (value
             (Combinators.on_exception (return 0) (lift (fun () -> hit := true))));
        Alcotest.(check bool) "not hit" false !hit);
    case "cleanup always runs under adversarial kills" (fun () ->
        let cleanups = ref 0 and entries = ref 0 in
        sweep
          ~invariant:(fun k r ->
            match r.Runtime.outcome with
            | Runtime.Value () ->
                if !entries <> !cleanups then
                  Alcotest.failf "k=%d: %d entries but %d cleanups" k !entries
                    !cleanups
            | _ -> Alcotest.failf "k=%d: bad outcome" k)
          ( lift (fun () -> incr entries) >>= fun () ->
            Combinators.finally (yields 8) (lift (fun () -> incr cleanups)) ));
    case "finally cleanup is protected from further exceptions" (fun () ->
        (* the cleanup runs inside block: a second kill cannot prevent it *)
        let cleanups = ref 0 in
        let victim =
          Combinators.finally (yields 8)
            (yields 4 >>= fun () -> lift (fun () -> incr cleanups))
        in
        let prog =
          fork victim >>= fun t ->
          yields 3 >>= fun () ->
          throw_to t Kill_thread >>= fun () ->
          yields 1 >>= fun () ->
          throw_to t Kill_thread >>= fun () ->
          yields 40 >>= fun () -> return ()
        in
        ignore (run prog);
        Alcotest.check int_v "cleanup completed" 1 !cleanups);
  ]

let bracket_tests =
  [
    case "bracket threads the resource through" (fun () ->
        Alcotest.check int_v "use" 10
          (value
             (Combinators.bracket (return 5)
                (fun r -> return (r * 2))
                (fun _ -> return ()))));
    case "bracket releases on failure in use" (fun () ->
        let released = ref false in
        (match
           uncaught
             (Combinators.bracket (return ())
                (fun () -> throw Not_found)
                (fun () -> lift (fun () -> released := true)))
         with
        | Not_found -> ()
        | _ -> Alcotest.fail "wrong exn");
        Alcotest.(check bool) "released" true !released);
    case "bracket does not release if acquire fails" (fun () ->
        let released = ref false in
        (match
           uncaught
             (Combinators.bracket (throw Not_found)
                (fun () -> return ())
                (fun () -> lift (fun () -> released := true)))
         with
        | Not_found -> ()
        | _ -> Alcotest.fail "wrong exn");
        Alcotest.(check bool) "not released" false !released);
    case "acquire/release balance under adversarial kills" (fun () ->
        let acquired = ref 0 and released = ref 0 in
        sweep
          ~invariant:(fun k _ ->
            if !acquired <> !released then
              Alcotest.failf "k=%d: %d acquired, %d released" k !acquired
                !released)
          (Combinators.bracket
             (lift (fun () -> incr acquired))
             (fun () -> yields 8)
             (fun () -> lift (fun () -> incr released))));
  ]

let either_both_tests =
  [
    case "either returns the faster side (left)" (fun () ->
        match value (Combinators.either (return 1) (sleep 50 >>= fun () -> return "x")) with
        | Either.Left 1 -> ()
        | _ -> Alcotest.fail "expected Left 1");
    case "either returns the faster side (right)" (fun () ->
        match value (Combinators.either (sleep 50 >>= fun () -> return 1) (return "x")) with
        | Either.Right "x" -> ()
        | _ -> Alcotest.fail "expected Right");
    case "either kills the loser" (fun () ->
        let loser_finished = ref false in
        ignore
          (value
             ( Combinators.either (return 1)
                 (sleep 50 >>= fun () -> lift (fun () -> loser_finished := true))
               >>= fun _ -> sleep 100 ));
        Alcotest.(check bool) "loser killed" false !loser_finished);
    case "either rethrows a child exception" (fun () ->
        match
          uncaught
            (Combinators.either (sleep 10 >>= fun () -> throw Not_found)
               (sleep 50))
        with
        | Not_found -> ()
        | e -> Alcotest.failf "wrong exn %s" (Printexc.to_string e));
    case "either propagates received exceptions to both children" (fun () ->
        let a_got = ref false and b_got = ref false in
        let child flag =
          catch (Combinators.forever yield) (fun _ ->
              lift (fun () -> flag := true) >>= fun () -> throw Exit)
        in
        let prog =
          fork
            (catch
               ( Combinators.either (child a_got) (child b_got) >>= fun _ ->
                 return () )
               (fun _ -> return ()))
          >>= fun t ->
          yields 8 >>= fun () ->
          throw_to t Kill_thread >>= fun () ->
          yields 40 >>= fun () -> return ()
        in
        ignore (run prog);
        Alcotest.(check bool) "a" true !a_got;
        Alcotest.(check bool) "b" true !b_got);
    case "both waits for both and pairs the results" (fun () ->
        Alcotest.check (Alcotest.pair int_v Alcotest.string) "pair" (1, "x")
          (value
             (Combinators.both
                (sleep 20 >>= fun () -> return 1)
                (sleep 10 >>= fun () -> return "x"))));
    case "both kills the sibling if one side throws" (fun () ->
        let sibling_finished = ref false in
        (match
           run
             ( Combinators.both (throw Not_found)
                 (sleep 50 >>= fun () -> lift (fun () -> sibling_finished := true))
               >>= fun _ -> sleep 100 )
         with
        | { Runtime.outcome = Runtime.Uncaught Not_found; _ } -> ()
        | _ -> Alcotest.fail "expected Not_found");
        Alcotest.(check bool) "sibling killed" false !sibling_finished);
    case "either under adversarial kill never deadlocks" (fun () ->
        sweep
          ~invariant:(fun k r ->
            match r.Runtime.outcome with
            | Runtime.Value () -> ()
            | _ -> Alcotest.failf "k=%d: bad outcome" k)
          ( catch
              ( Combinators.either (yields 6) (yields 6) >>= fun _ ->
                return () )
              (fun _ -> return ()) ));
  ]

let timeout_tests =
  [
    case "timeout: fast action wins" (fun () ->
        Alcotest.(check (option int_v)) "some" (Some 5)
          (value (Combinators.timeout 100 (sleep 10 >>= fun () -> return 5))));
    case "timeout: slow action times out" (fun () ->
        Alcotest.(check (option int_v)) "none" None
          (value (Combinators.timeout 10 (sleep 100 >>= fun () -> return 5))));
    case "timeout: zero-delay action wins even against zero budget" (fun () ->
        Alcotest.(check (option int_v)) "some" (Some 1)
          (value (Combinators.timeout 1 (return 1))));
    case "nested timeouts: inner fires first" (fun () ->
        Alcotest.(check (option (option int_v))) "inner timeout" (Some None)
          (value
             (Combinators.timeout 1000
                (Combinators.timeout 10 (sleep 100 >>= fun () -> return 1)))));
    case "nested timeouts: outer fires first" (fun () ->
        Alcotest.(check (option (option int_v))) "outer timeout" None
          (value
             (Combinators.timeout 10
                (Combinators.timeout 1000 (sleep 100 >>= fun () -> return 1)))));
    case "timeouts do not interfere: 3 deep, middle fires" (fun () ->
        Alcotest.(check (option (option (option int_v)))) "middle"
          (Some None)
          (value
             (Combinators.timeout 1000
                (Combinators.timeout 10
                   (Combinators.timeout 500 (sleep 100 >>= fun () -> return 1))))));
    case "timeout composes with exceptions" (fun () ->
        match uncaught (Combinators.timeout 100 (throw Not_found)) with
        | Not_found -> ()
        | e -> Alcotest.failf "wrong exn %s" (Printexc.to_string e));
    case "sequential timeouts are independent" (fun () ->
        Alcotest.check (Alcotest.pair (Alcotest.option int_v) (Alcotest.option int_v))
          "both" (None, Some 2)
          (value
             ( Combinators.timeout 10 (sleep 100 >>= fun () -> return 1)
             >>= fun a ->
               Combinators.timeout 100 (sleep 10 >>= fun () -> return 2)
               >>= fun b -> return (a, b) )));
    case "timeout runs the action in the caller: no fork" (fun () ->
        let r = run (Combinators.timeout 100 (return 1)) in
        (match r.Runtime.outcome with
        | Runtime.Value v ->
            Alcotest.(check (option int_v)) "in time" (Some 1) v
        | _ -> Alcotest.fail "expected a value");
        (* [forks] counts the main thread *)
        Alcotest.check int_v "threads created" 1 r.Runtime.forks);
    case "a kill after an intercepted deadline still propagates" (fun () ->
        (* the universal handler swallows the deadline at 10 and keeps
           sleeping; the kill at 50 must escape the timeout, not be
           mistaken for the deadline it intercepted *)
        let intercepting =
          catch
            (sleep 1_000 >>= fun () -> return "slow")
            (fun _ -> sleep 1_000 >>= fun () -> return "fallback")
        in
        Alcotest.(check string) "victim" "killed"
          (value
             ( Mvar.new_empty >>= fun res ->
               fork
                 (catch
                    ( Combinators.timeout 10 intercepting >>= fun _ ->
                      Mvar.put res "returned" )
                    (function
                      | Kill_thread -> Mvar.put res "killed"
                      | e -> throw e))
               >>= fun victim ->
               sleep 50 >>= fun () ->
               throw_to victim Kill_thread >>= fun () -> Mvar.take res )));
  ]

let suites =
  [
    ("combinators:finally", finally_tests);
    ("combinators:bracket", bracket_tests);
    ("combinators:either-both", either_both_tests);
    ("combinators:timeout", timeout_tests);
  ]
