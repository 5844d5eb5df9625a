(* Tests for the remaining hio_std structures: channels, semaphores, tasks
   and the polling baseline. *)

open Hio
open Hio_std
open Hio.Io
open Helpers

let int_v = Alcotest.int

let chan_tests =
  [
    case "send/recv preserves FIFO order" (fun () ->
        Alcotest.check (Alcotest.list int_v) "order" [ 1; 2; 3 ]
          (value
             ( Chan.create () >>= fun c ->
               Chan.send_list c [ 1; 2; 3 ] >>= fun () ->
               Chan.recv c >>= fun a ->
               Chan.recv c >>= fun b ->
               Chan.recv c >>= fun d -> return [ a; b; d ] )));
    case "recv blocks until data arrives" (fun () ->
        Alcotest.check int_v "value" 9
          (value
             ( Chan.create () >>= fun c ->
               fork (yields 5 >>= fun () -> Chan.send c 9) >>= fun _ ->
               Chan.recv c )));
    case "try_recv is non-blocking" (fun () ->
        Alcotest.check
          (Alcotest.pair (Alcotest.option int_v) (Alcotest.option int_v))
          "pair" (None, Some 1)
          (value
             ( Chan.create () >>= fun c ->
               Chan.try_recv c >>= fun a ->
               Chan.send c 1 >>= fun () ->
               Chan.try_recv c >>= fun b -> return (a, b) )));
    case "multiple producers, one consumer" (fun () ->
        Alcotest.check int_v "sum" 60
          (value
             ( Chan.create () >>= fun c ->
               fork (Chan.send c 10) >>= fun _ ->
               fork (Chan.send c 20) >>= fun _ ->
               fork (Chan.send c 30) >>= fun _ ->
               Chan.recv c >>= fun a ->
               Chan.recv c >>= fun b ->
               Chan.recv c >>= fun d -> return (a + b + d) )));
    case "a killed receiver does not break the channel" (fun () ->
        Alcotest.check int_v "still works" 5
          (value
             ( Chan.create () >>= fun c ->
               fork (Chan.recv c >>= fun _ -> return ()) >>= fun t ->
               yields 3 >>= fun () ->
               throw_to t Kill_thread >>= fun () ->
               Chan.send c 5 >>= fun () -> Chan.recv c )));
    case "two competing receivers each get one value" (fun () ->
        Alcotest.check int_v "sum" 3
          (value
             ( Chan.create () >>= fun c ->
               Mvar.new_empty >>= fun acc ->
               Mvar.put acc 0 >>= fun () ->
               let worker =
                 Chan.recv c >>= fun v ->
                 Mvar.take acc >>= fun s -> Mvar.put acc (s + v)
               in
               fork worker >>= fun _ ->
               fork worker >>= fun _ ->
               Chan.send c 1 >>= fun () ->
               Chan.send c 2 >>= fun () ->
               yields 20 >>= fun () -> Mvar.take acc )));
    case "uninterruptibly (Chan.send ...) is not cut short at the write lock"
      (fun () ->
        (* t1 and t2 send at once; round-robin runs t2's take of the write
           end while t1 holds it, so t2 waits there — with a kill injected
           into t2 at every step *)
        let inject ~step:_ ~running:_ = Some (2, Kill_thread) in
        let r =
          Runtime.run
            ~config:{ (rr_config ()) with Runtime.Config.inject = Some inject }
            ( Chan.create () >>= fun c ->
              block
                ( fork (uninterruptibly (Chan.send c 1)) >>= fun _ ->
                  fork (uninterruptibly (Chan.send c 2)) )
              >>= fun _ ->
              yields 20 >>= fun () ->
              Chan.try_recv c >>= fun x ->
              Chan.try_recv c >>= fun y -> return [ x; y ] )
        in
        (match r.Runtime.outcome with
        | Runtime.Value got ->
            Alcotest.(check (list (option int_v)))
              "both sent" [ Some 1; Some 2 ] got
        | _ -> Alcotest.fail "expected a value");
        let t2 = List.nth r.Runtime.thread_stats 2 in
        Alcotest.(check bool) "t2 waited for the write end" true
          (t2.Runtime.ts_blocked > 0));
  ]

let sem_tests =
  [
    case "wait decrements, signal increments" (fun () ->
        Alcotest.check int_v "avail" 2
          (value
             ( Sem.create 2 >>= fun s ->
               Sem.wait s >>= fun () ->
               Sem.signal s >>= fun () -> Sem.available s )));
    case "wait blocks at zero until signalled" (fun () ->
        Alcotest.check int_v "progressed" 1
          (value
             ( Sem.create 0 >>= fun s ->
               Mvar.new_empty >>= fun out ->
               fork (Sem.wait s >>= fun () -> Mvar.put out 1) >>= fun _ ->
               yields 3 >>= fun () ->
               Sem.signal s >>= fun () -> Mvar.take out )));
    case "capacity bounds concurrency" (fun () ->
        (* 4 workers, capacity 2: the in-flight count never exceeds 2 *)
        let inflight = ref 0 and peak = ref 0 in
        ignore
          (value
             ( Sem.create 2 >>= fun s ->
               let worker =
                 Sem.with_unit s
                   ( lift (fun () ->
                         incr inflight;
                         peak := max !peak !inflight)
                   >>= fun () ->
                     yields 3 >>= fun () -> lift (fun () -> decr inflight) )
               in
               Task.spawn worker >>= fun t1 ->
               Task.spawn worker >>= fun t2 ->
               Task.spawn worker >>= fun t3 ->
               Task.spawn worker >>= fun t4 ->
               Task.await t1 >>= fun _ ->
               Task.await t2 >>= fun _ ->
               Task.await t3 >>= fun _ -> Task.await t4 ));
        Alcotest.(check bool) "peak <= 2" true (!peak <= 2));
    case "killed waiter does not lose capacity" (fun () ->
        Alcotest.check int_v "avail restored" 1
          (value
             ( Sem.create 0 >>= fun s ->
               fork (Sem.wait s) >>= fun t ->
               yields 3 >>= fun () ->
               throw_to t Kill_thread >>= fun () ->
               yields 3 >>= fun () ->
               Sem.signal s >>= fun () ->
               yields 3 >>= fun () -> Sem.available s )));
    case "signal racing a killed waiter passes the unit on" (fun () ->
        (* waiter A is killed in the same breath as a signal; waiter B must
           still obtain the unit eventually *)
        Alcotest.check int_v "B acquired" 1
          (value
             ( Sem.create 0 >>= fun s ->
               Mvar.new_empty >>= fun out ->
               fork (Sem.wait s) >>= fun a ->
               yields 2 >>= fun () ->
               fork (Sem.wait s >>= fun () -> Mvar.put out 1) >>= fun _ ->
               yields 2 >>= fun () ->
               throw_to a Kill_thread >>= fun () ->
               Sem.signal s >>= fun () -> Mvar.take out )));
  ]

let task_tests =
  [
    case "await returns the task's value" (fun () ->
        Alcotest.check int_v "v" 6
          (value
             ( Task.spawn (sleep 5 >>= fun () -> return 6) >>= fun t ->
               Task.await t )));
    case "await rethrows the task's exception" (fun () ->
        match
          uncaught (Task.spawn (throw Not_found) >>= fun t -> Task.await t)
        with
        | Not_found -> ()
        | e -> Alcotest.failf "wrong exn %s" (Printexc.to_string e));
    case "poll observes completion" (fun () ->
        Alcotest.check
          (Alcotest.pair Alcotest.bool Alcotest.bool)
          "pending then done" (true, true)
          (value
             ( Task.spawn (yields 4) >>= fun t ->
               Task.poll t >>= fun before ->
               yields 10 >>= fun () ->
               Task.poll t >>= fun after ->
               return (before = None, after <> None) )));
    case "two awaiters both receive the result" (fun () ->
        Alcotest.check (Alcotest.pair int_v int_v) "both" (5, 5)
          (value
             ( Task.spawn (sleep 5 >>= fun () -> return 5) >>= fun t ->
               Task.spawn (Task.await t) >>= fun w1 ->
               Task.spawn (Task.await t) >>= fun w2 ->
               Task.await w1 >>= fun a ->
               Task.await w2 >>= fun b -> return (a, b) )));
    case "cancel makes await rethrow Kill_thread" (fun () ->
        match
          uncaught
            ( Task.spawn (sleep 1_000_000 >>= fun () -> return 0) >>= fun t ->
              Task.cancel t >>= fun () -> Task.await t )
        with
        | Io.Kill_thread -> ()
        | e -> Alcotest.failf "wrong exn %s" (Printexc.to_string e));
    case "speculative pattern: cancel the loser" (fun () ->
        Alcotest.check int_v "winner" 1
          (value
             ( Task.spawn (sleep 10 >>= fun () -> return 1) >>= fun fast ->
               Task.spawn (sleep 1000 >>= fun () -> return 2) >>= fun slow ->
               Task.await fast >>= fun v ->
               Task.cancel slow >>= fun () -> return v )));
  ]

let polling_tests =
  [
    case "worker completes when never cancelled" (fun () ->
        Alcotest.check int_v "all units" 100
          (value
             ( Polling.create >>= fun tok ->
               Polling.polling_worker tok ~every:10 ~units:100 )));
    case "cancellation is detected at the next poll point" (fun () ->
        let completed =
          value
            ( Polling.create >>= fun tok ->
              Task.spawn (Polling.polling_worker tok ~every:10 ~units:1000)
              >>= fun t ->
              yields 50 >>= fun () ->
              Polling.request_cancel tok >>= fun () -> Task.await t )
        in
        Alcotest.(check bool) "stopped early" true (completed < 1000);
        Alcotest.check int_v "at a poll point" 0 (completed mod 10));
    case "never polling means never cancelled (the §2 point)" (fun () ->
        Alcotest.check int_v "ran to completion" 200
          (value
             ( Polling.create >>= fun tok ->
               Task.spawn (Polling.polling_worker tok ~every:0 ~units:200)
               >>= fun t ->
               yields 5 >>= fun () ->
               Polling.request_cancel tok >>= fun () -> Task.await t )));
    case "is_requested reflects the flag" (fun () ->
        Alcotest.(check (pair bool bool)) "flag" (false, true)
          (value
             ( Polling.create >>= fun tok ->
               Polling.is_requested tok >>= fun a ->
               Polling.request_cancel tok >>= fun () ->
               Polling.is_requested tok >>= fun b -> return (a, b) )));
  ]

let suites =
  [
    ("std:chan", chan_tests);
    ("std:sem", sem_tests);
    ("std:task", task_tests);
    ("std:polling", polling_tests);
  ]
