(* The §9 "two datatypes" design alternative: exceptions vs alerts, with a
   distinct catch for each. The paper's motivating scenario: a universal
   handler [e `catch` \_ -> e'] inside a timed computation "can intercept
   the Timeout exception, which breaks the combinator". [catch_sync] is
   the alert-transparent handler that fixes it. *)

open Hio
open Hio_std
open Hio.Io
open Helpers

let int_v = Alcotest.int

let alerts_tests =
  [
    case "catch_sync handles synchronous throws" (fun () ->
        Alcotest.check int_v "handled" 1
          (value (catch_sync (throw Not_found) (fun _ -> return 1))));
    case "catch_sync passes values through" (fun () ->
        Alcotest.check int_v "value" 5
          (value (catch_sync (return 5) (fun _ -> return 0))));
    case "catch_sync does NOT intercept an asynchronous kill" (fun () ->
        (* the victim's universal handler would loop forever if it caught
           the kill; with catch_sync the kill passes through and the thread
           dies, as the killer intended *)
        Alcotest.(check string) "victim died" "dead"
          (value
             ( fork
                 (catch_sync (Combinators.forever yield) (fun _ ->
                      Combinators.forever yield))
               >>= fun t ->
               yields 2 >>= fun () ->
               throw_to t Kill_thread >>= fun () ->
               yields 4 >>= fun () ->
               Io.thread_status t >>= function
               | Io.Dead -> return "dead"
               | Io.Running -> return "running"
               | Io.Blocked_on w -> return (Io.wait_reason_label w) )));
    case "plain catch DOES intercept the kill (the §9 problem)" (fun () ->
        Alcotest.(check string) "victim survived" "running"
          (value
             ( fork
                 (catch (Combinators.forever yield) (fun _ ->
                      Combinators.forever yield))
               >>= fun t ->
               yields 2 >>= fun () ->
               throw_to t Kill_thread >>= fun () ->
               yields 4 >>= fun () ->
               Io.thread_status t >>= function
               | Io.Dead -> return "dead"
               | Io.Running -> return "running"
               | Io.Blocked_on w -> return (Io.wait_reason_label w) )));
    (* An inline timeout that throws Timeout into the *current* thread —
       the style §9's concern is about. ([Combinators.timeout] also runs
       its action in the caller, but its result stays immune: it notices
       that its own token was delivered, even when a handler inside the
       action swallowed it, and answers [None].) *)
    case "inline timeout survives a universal catch_sync handler" (fun () ->
        let timeout_inline t a =
          my_thread_id >>= fun me ->
          fork (sleep t >>= fun () -> throw_to me Io.Timeout) >>= fun _ ->
          catch
            (a >>= fun r -> return (Some r))
            (function Io.Timeout -> return None | e -> throw e)
        in
        let user_code =
          catch_sync
            (sleep 1_000 >>= fun () -> return "slow result")
            (fun _ -> return "fallback")
        in
        Alcotest.(check (option string)) "timed out" None
          (value (timeout_inline 10 user_code)));
    case "inline timeout IS broken by a universal plain catch (§9)"
      (fun () ->
        let timeout_inline t a =
          my_thread_id >>= fun me ->
          fork (sleep t >>= fun () -> throw_to me Io.Timeout) >>= fun _ ->
          catch
            (a >>= fun r -> return (Some r))
            (function Io.Timeout -> return None | e -> throw e)
        in
        let user_code =
          catch
            (sleep 1_000 >>= fun () -> return "slow result")
            (fun _ -> return "fallback")
        in
        Alcotest.(check (option string)) "intercepted" (Some "fallback")
          (value (timeout_inline 10 user_code)));
    case "Combinators.timeout returns None despite interception, no leak"
      (fun () ->
        let undying =
          catch
            (sleep 1_000 >>= fun () -> return "slow result")
            (fun _ -> return "fallback")
        in
        let r = run (Combinators.timeout 10 undying) in
        (match r.Runtime.outcome with
        | Runtime.Value v ->
            Alcotest.(check (option string)) "result robust" None v
        | _ -> Alcotest.fail "expected a value");
        Alcotest.check int_v "nothing blocked at exit" 0
          (List.length r.Runtime.blocked_at_exit);
        Alcotest.check int_v "no thread beyond main" 1 r.Runtime.forks);
    case "catch_sync still catches pure raises from the inner semantics"
      (fun () ->
        Alcotest.check int_v "caught" 7
          (value
             (catch_sync
                (lift (fun () -> 1) >>= fun _ -> throw Division_by_zero)
                (fun _ -> return 7))));
    case "an alert re-thrown by a plain catch handler becomes synchronous"
      (fun () ->
        (* outer catch_sync sees a *synchronous* rethrow and catches it *)
        Alcotest.check int_v "caught after rethrow" 3
          (value
             ( fork
                 (catch_sync
                    (catch (Combinators.forever yield) (fun e -> throw e))
                    (fun _ -> return ()))
               >>= fun t ->
               yields 2 >>= fun () ->
               throw_to t Kill_thread >>= fun () ->
               yields 4 >>= fun () -> return 3 )));
    case "mask state is still restored through catch_sync frames" (fun () ->
        Alcotest.(check bool) "masked in handler" true
          (value
             (block (catch_sync (unblock (throw Not_found)) (fun _ -> blocked)))));
    case "finally-style cleanup with catch_sync still releases on alerts"
      (fun () ->
        (* on_exception built with plain catch releases on alerts; a
           catch_sync variant would NOT see the alert — verify both *)
        let released = ref 0 in
        let victim =
          catch
            (Combinators.forever yield)
            (fun e -> lift (fun () -> incr released) >>= fun () -> throw e)
        in
        ignore
          (run
             ( fork victim >>= fun t ->
               yields 2 >>= fun () ->
               throw_to t Kill_thread >>= fun () -> yields 4 ));
        Alcotest.check int_v "released via plain catch" 1 !released);
  ]

let suites = [ ("alerts(§9)", alerts_tests) ]
