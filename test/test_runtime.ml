(* Tests for the hio runtime (§8): scheduling, MVars, virtual time,
   deadlock detection, and basic monadic behaviour. *)

open Hio
open Hio_std
open Hio.Io
open Helpers

let int_v = Alcotest.int
let str_v = Alcotest.string

let monad_tests =
  [
    case "return delivers the value" (fun () ->
        Alcotest.check int_v "v" 42 (value (return 42)));
    case "left identity" (fun () ->
        let f x = return (x * 2) in
        Alcotest.check int_v "law" (value (f 21)) (value (return 21 >>= f)));
    case "right identity" (fun () ->
        Alcotest.check int_v "law" 7 (value (return 7 >>= return)));
    case "associativity" (fun () ->
        let f x = return (x + 1) and g x = return (x * 2) in
        Alcotest.check int_v "law"
          (value (return 3 >>= f >>= g))
          (value (return 3 >>= fun x -> f x >>= g)));
    case "map" (fun () ->
        Alcotest.check str_v "map" "5" (value (map string_of_int (return 5))));
    case "syntax: let*, let+, and+" (fun () ->
        let open Io.Syntax in
        let prog =
          let* a = return 2 in
          let+ b = return 3
          and+ c = return 4 in
          (a * b) + c
        in
        Alcotest.check int_v "10" 10 (value prog));
    case "deep binds do not overflow the OCaml stack" (fun () ->
        let rec loop n acc =
          if n = 0 then return acc else return (acc + 1) >>= loop (n - 1)
        in
        Alcotest.check int_v "big" 200_000 (value (loop 200_000 0)));
    case "exceptions from lift propagate as OCaml exceptions" (fun () ->
        (* lift is an escape hatch: an OCaml exception inside it is a bug in
           the embedded code, not an object-level throw; it escapes run *)
        match run (lift (fun () -> raise Exit)) with
        | exception Exit -> ()
        | _ -> Alcotest.fail "expected Exit to escape");
  ]

let exception_tests =
  [
    case "throw escapes as Uncaught" (fun () ->
        match uncaught (throw Not_found >>= fun _ -> return 0) with
        | Not_found -> ()
        | e -> Alcotest.failf "wrong exn %s" (Printexc.to_string e));
    case "catch handles a synchronous throw" (fun () ->
        Alcotest.check int_v "handled" 9
          (value (catch (throw Not_found) (fun _ -> return 9))));
    case "catch passes values through" (fun () ->
        Alcotest.check int_v "passthrough" 5
          (value (catch (return 5) (fun _ -> return 0))));
    case "handler exceptions propagate" (fun () ->
        match uncaught (catch (throw Not_found) (fun _ -> throw Exit)) with
        | Exit -> ()
        | e -> Alcotest.failf "wrong exn %s" (Printexc.to_string e));
    case "nested catch: inner handles first" (fun () ->
        Alcotest.check int_v "inner" 1
          (value
             (catch
                (catch (throw Not_found) (fun _ -> return 1))
                (fun _ -> return 2))));
    case "rethrow reaches the outer handler" (fun () ->
        Alcotest.check int_v "outer" 2
          (value
             (catch
                (catch (throw Not_found) (fun e -> throw e))
                (fun _ -> return 2))));
  ]

let fork_tests =
  [
    case "forked thread runs" (fun () ->
        let hit = ref false in
        ignore
          (value
             ( fork (lift (fun () -> hit := true)) >>= fun _ ->
               yields 3 >>= fun () -> return 0 ));
        Alcotest.(check bool) "ran" true !hit);
    case "fork returns a distinct thread id" (fun () ->
        Alcotest.(check bool) "distinct" false
          (value
             ( fork (return ()) >>= fun child ->
               my_thread_id >>= fun me -> return (Io.same_thread child me) )));
    case "thread names are recorded" (fun () ->
        Alcotest.(check (option string)) "name" (Some "worker")
          (value
             ( fork ~name:"worker" (return ()) >>= fun t ->
               return (Io.thread_name t) )));
    case "main exit abandons children (Proc GC)" (fun () ->
        (* the child would deadlock, but main finishes first *)
        Alcotest.check int_v "main wins" 1
          (value
             ( Mvar.new_empty >>= fun m ->
               fork (Mvar.take m >>= fun _ -> return ()) >>= fun _ ->
               return 1 )));
    case "child uncaught exceptions do not kill the program" (fun () ->
        Alcotest.check int_v "survives" 3
          (value
             ( fork (throw Not_found) >>= fun _ ->
               yields 3 >>= fun () -> return 3 )));
    case "thread_status observes blocking" (fun () ->
        Alcotest.(check string) "blocked on take" "takeMVar"
          (value
             ( Mvar.new_empty >>= fun m ->
               fork (Mvar.take m >>= fun _ -> return ()) >>= fun t ->
               yields 2 >>= fun () ->
               Io.thread_status t >>= function
               | Io.Blocked_on why -> return (Io.wait_reason_label why)
               | Io.Running -> return "running"
               | Io.Dead -> return "dead" )));
    case "run result counts forks and steps" (fun () ->
        let r = run (fork (return ()) >>= fun _ -> return 0) in
        Alcotest.check int_v "forks" 2 r.Runtime.forks;
        Alcotest.(check bool) "steps counted" true (r.Runtime.steps > 0));
  ]

let mvar_tests =
  [
    case "put then take" (fun () ->
        Alcotest.check int_v "roundtrip" 5
          (value
             ( Mvar.new_empty >>= fun m ->
               Mvar.put m 5 >>= fun () -> Mvar.take m )));
    case "new_filled starts full" (fun () ->
        Alcotest.check int_v "filled" 8
          (value (Mvar.new_filled 8 >>= fun m -> Mvar.take m)));
    case "take blocks until another thread puts" (fun () ->
        Alcotest.check int_v "handoff" 7
          (value
             ( Mvar.new_empty >>= fun m ->
               fork (yields 5 >>= fun () -> Mvar.put m 7) >>= fun _ ->
               Mvar.take m )));
    case "put blocks on a full mvar until taken" (fun () ->
        Alcotest.check (Alcotest.pair int_v int_v) "both" (1, 2)
          (value
             ( Mvar.new_filled 1 >>= fun m ->
               fork (Mvar.put m 2) >>= fun _ ->
               yields 3 >>= fun () ->
               Mvar.take m >>= fun a ->
               Mvar.take m >>= fun b -> return (a, b) )));
    case "takers are served FIFO" (fun () ->
        Alcotest.check (Alcotest.list int_v) "order" [ 1; 2 ]
          (value
             ( Mvar.new_empty >>= fun m ->
               Chan.create () >>= fun out ->
               fork (Mvar.take m >>= fun v -> Chan.send out v) >>= fun _ ->
               yields 2 >>= fun () ->
               fork (Mvar.take m >>= fun v -> Chan.send out v) >>= fun _ ->
               yields 2 >>= fun () ->
               Mvar.put m 1 >>= fun () ->
               Mvar.put m 2 >>= fun () ->
               Chan.recv out >>= fun a ->
               Chan.recv out >>= fun b -> return [ a; b ] )));
    case "try_take on empty and full" (fun () ->
        Alcotest.check
          (Alcotest.pair (Alcotest.option int_v) (Alcotest.option int_v))
          "both" (None, Some 3)
          (value
             ( Mvar.new_empty >>= fun m ->
               Mvar.try_take m >>= fun a ->
               Mvar.put m 3 >>= fun () ->
               Mvar.try_take m >>= fun b -> return (a, b) )));
    case "try_put respects fullness" (fun () ->
        Alcotest.check (Alcotest.pair Alcotest.bool Alcotest.bool) "both"
          (true, false)
          (value
             ( Mvar.new_empty >>= fun m ->
               Mvar.try_put m 1 >>= fun a ->
               Mvar.try_put m 2 >>= fun b -> return (a, b) )));
    case "try_put hands off to a waiting taker" (fun () ->
        Alcotest.check int_v "handoff" 9
          (value
             ( Mvar.new_empty >>= fun m ->
               Mvar.new_empty >>= fun out ->
               fork (Mvar.take m >>= fun v -> Mvar.put out v) >>= fun _ ->
               yields 2 >>= fun () ->
               Mvar.try_put m 9 >>= fun ok ->
               Alcotest.(check bool) "accepted" true ok |> ignore;
               Mvar.take out )));
    case "read leaves the mvar full" (fun () ->
        Alcotest.check (Alcotest.pair int_v int_v) "both" (4, 4)
          (value
             ( Mvar.new_filled 4 >>= fun m ->
               Mvar.read m >>= fun a ->
               Mvar.take m >>= fun b -> return (a, b) )));
    case "modify applies the update protocol" (fun () ->
        Alcotest.check int_v "updated" 11
          (value
             ( Mvar.new_filled 10 >>= fun m ->
               Mvar.modify m (fun x -> return (x + 1)) >>= fun () ->
               Mvar.take m )));
    case "modify restores the old value if the update throws" (fun () ->
        Alcotest.check int_v "restored" 10
          (value
             ( Mvar.new_filled 10 >>= fun m ->
               catch
                 (Mvar.modify m (fun _ -> throw Not_found))
                 (fun _ -> return ())
               >>= fun () -> Mvar.take m )));
    case "with_mvar returns the body's result and restores" (fun () ->
        Alcotest.check (Alcotest.pair int_v int_v) "both" (20, 10)
          (value
             ( Mvar.new_filled 10 >>= fun m ->
               Mvar.with_mvar m (fun x -> return (x * 2)) >>= fun r ->
               Mvar.take m >>= fun v -> return (r, v) )));
  ]

let time_tests =
  [
    case "sleep advances the virtual clock" (fun () ->
        let r = run (sleep 250 >>= fun () -> now) in
        (match r.Runtime.outcome with
        | Runtime.Value t -> Alcotest.check int_v "time" 250 t
        | _ -> Alcotest.fail "no value");
        Alcotest.check int_v "clock" 250 r.Runtime.time);
    case "sleeps run concurrently, not additively" (fun () ->
        let r =
          run
            ( fork (sleep 100) >>= fun _ ->
              fork (sleep 80) >>= fun _ -> sleep 100 )
        in
        Alcotest.check int_v "max not sum" 100 r.Runtime.time);
    case "timers wake in deadline order" (fun () ->
        Alcotest.check (Alcotest.list int_v) "order" [ 1; 2; 3 ]
          (value
             ( Chan.create () >>= fun c ->
               fork (sleep 30 >>= fun () -> Chan.send c 3) >>= fun _ ->
               fork (sleep 10 >>= fun () -> Chan.send c 1) >>= fun _ ->
               fork (sleep 20 >>= fun () -> Chan.send c 2) >>= fun _ ->
               Chan.recv c >>= fun a ->
               Chan.recv c >>= fun b ->
               Chan.recv c >>= fun d -> return [ a; b; d ] )));
    case "sleep 0 does not block" (fun () ->
        Alcotest.check int_v "instant" 0
          ((run (sleep 0)).Runtime.time));
    case "now starts at zero" (fun () ->
        Alcotest.check int_v "zero" 0 (value now));
  ]

let io_tests =
  [
    case "put_char and put_string collect output" (fun () ->
        let r = run (put_char 'a' >>= fun () -> put_string "bc") in
        Alcotest.check str_v "output" "abc" r.Runtime.output);
    case "get_char reads configured input" (fun () ->
        Alcotest.check str_v "read" "xy"
          (value ~input:"xy"
             ( get_char >>= fun a ->
               get_char >>= fun b ->
               return (Printf.sprintf "%c%c" a b) )));
    case "get_char deadlocks on exhausted input" (fun () ->
        expect_deadlock (get_char >>= fun _ -> return ()));
    case "deadlock on circular take" (fun () ->
        expect_deadlock
          ( Mvar.new_empty >>= fun (m : int Mvar.t) ->
            Mvar.take m >>= fun _ -> return () ));
    case "out of steps on a spinning program" (fun () ->
        let config =
          { (rr_config ()) with Runtime.Config.max_steps = 1000 }
        in
        let rec spin () = yield >>= spin in
        match (Runtime.run ~config (spin ())).Runtime.outcome with
        | Runtime.Out_of_steps -> ()
        | _ -> Alcotest.fail "expected Out_of_steps");
    case "random policy produces correct results across seeds" (fun () ->
        for seed = 1 to 20 do
          let prog =
            Mvar.new_empty >>= fun m ->
            fork (Mvar.put m 1) >>= fun _ ->
            fork (Mvar.put m 2) >>= fun _ ->
            Mvar.take m >>= fun a ->
            Mvar.take m >>= fun b -> return (a + b)
          in
          match (run_seed seed prog).Runtime.outcome with
          | Runtime.Value 3 -> ()
          | _ -> Alcotest.failf "seed %d wrong" seed
        done);
  ]

(* --- determinism ---------------------------------------------------------- *)

(* A fork/join tree: 2^depth leaves, each subtree joined through its own
   pair of MVars. *)
let rec tree depth =
  let open Io.Syntax in
  if depth = 0 then Io.return 1
  else
    let* m1 = Mvar.new_empty in
    let* m2 = Mvar.new_empty in
    let* _ = Io.fork (Io.bind (tree (depth - 1)) (Mvar.put m1)) in
    let* _ = Io.fork (Io.bind (tree (depth - 1)) (Mvar.put m2)) in
    let* a = Mvar.take m1 in
    let* b = Mvar.take m2 in
    Io.return (a + b + 1)

(* Spinners that only die by asynchronous kill; main waits until every
   one is dead. *)
let kill_the_spinners n =
  let open Io.Syntax in
  let rec spin () = Io.bind Io.yield spin in
  let rec forks i acc =
    if i = 0 then Io.return acc
    else
      let* t = Io.fork (spin ()) in
      forks (i - 1) (t :: acc)
  in
  let* ts = forks n [] in
  let* () = yields 50 in
  let rec kill = function
    | [] -> Io.return ()
    | t :: rest -> Io.bind (Io.throw_to t Io.Kill_thread) (fun () -> kill rest)
  in
  let* () = kill ts in
  let rec wait = function
    | [] -> Io.return ()
    | t :: rest ->
        let* s = Io.thread_status t in
        if s = Io.Dead then wait rest
        else Io.bind Io.yield (fun () -> wait (t :: rest))
  in
  wait ts

(* A tiny structured-program AST, interpreted into [Io]. Programs fork
   children, exchange MVar tokens, kill their own children, sleep, mask
   and print — every scheduler feature a run's result depends on. *)
type op =
  | P_yield
  | P_put of char
  | P_compute of int
  | P_sleep of int
  | P_mask of op list
  | P_fork of op list
  | P_kill_child of op list
  | P_pingpong of int

let rec interp_ops ops =
  match ops with
  | [] -> Io.return ()
  | op :: rest -> Io.bind (interp_op op) (fun () -> interp_ops rest)

and interp_op =
  let open Io.Syntax in
  function
  | P_yield -> Io.yield
  | P_put c -> Io.put_char c
  | P_compute n ->
      let rec go i = if i = 0 then Io.return () else go (i - 1) in
      go n
  | P_sleep d -> Io.sleep d
  | P_mask ops -> Io.mask_ (interp_ops ops)
  | P_fork ops -> Io.ignore_result (Io.fork (interp_ops ops))
  | P_kill_child ops ->
      let* t = Io.fork (Io.catch (interp_ops ops) (fun _ -> Io.return ())) in
      let* () = Io.yield in
      Io.throw_to t Io.Kill_thread
  | P_pingpong n ->
      let* m = Mvar.new_empty in
      let* _ =
        Io.fork
          (let rec pong i =
             if i = 0 then Io.return ()
             else Io.bind (Mvar.take m) (fun _ -> pong (i - 1))
           in
           pong n)
      in
      let rec ping i =
        if i = 0 then Io.return ()
        else Io.bind (Mvar.put m i) (fun () -> ping (i - 1))
      in
      ping n

let gen_ops : op list QCheck2.Gen.t =
  QCheck2.Gen.(
    let gen_op =
      fix (fun self n ->
          let leaf =
            oneof
              [
                return P_yield;
                map (fun c -> P_put c) (char_range 'a' 'z');
                map (fun i -> P_compute i) (int_range 1 30);
                map (fun d -> P_sleep d) (int_range 1 50);
                map (fun n -> P_pingpong n) (int_range 1 4);
              ]
          in
          if n <= 0 then leaf
          else
            let sub = list_size (int_range 1 3) (self (n / 2)) in
            oneof
              [
                leaf;
                map (fun ops -> P_mask ops) sub;
                map (fun ops -> P_fork ops) sub;
                map (fun ops -> P_kill_child ops) sub;
              ])
    in
    sized_size (int_range 1 8) (fun n -> list_size (int_range 1 4) (gen_op n)))

let gen_policy =
  QCheck2.Gen.(
    oneof
      [
        return Runtime.Config.Round_robin;
        map (fun s -> Runtime.Config.Random s) (int_bound 10_000);
      ])

(* A program mixing every scheduler feature a result depends on: MVar
   ping-pong, an asynchronous kill, a masked stretch, a sleep. *)
let mixed () =
  let open Io.Syntax in
  let* box = Mvar.new_empty in
  let* done_ = Mvar.new_empty in
  let* _ =
    Io.fork
      (let rec pong i =
         if i = 0 then Mvar.put done_ ()
         else
           let* v = Mvar.take box in
           let* () = Io.put_char (Char.chr (Char.code 'a' + (v mod 26))) in
           pong (i - 1)
       in
       pong 8)
  in
  let rec ping i =
    if i = 0 then Io.return ()
    else
      let* () = Mvar.put box i in
      let* () = Io.yield in
      ping (i - 1)
  in
  let* () = ping 8 in
  let* victim =
    Io.fork
      (Io.catch
         (let rec spin () = Io.bind Io.yield (fun () -> spin ()) in
          spin ())
         (fun _ -> Io.put_string "killed"))
  in
  let* () = yields 20 in
  let* () = Io.throw_to victim Io.Kill_thread in
  let* () = Io.mask_ (yields 5) in
  let* () = Io.sleep 100 in
  Mvar.take done_

(* Everything a run reports that a sweep compares: outcome, output, step
   count, per-thread accounting, and the step journal. *)
let signature ?(policy = Runtime.Config.Round_robin) ?inject pp io =
  let journal = Step_journal.create () in
  let config =
    {
      Runtime.Config.default with
      Runtime.Config.policy;
      inject;
      journal = Some journal;
      max_steps = 2_000_000;
    }
  in
  let r = Runtime.run ~config io in
  ( ( Fmt.str "%a" (Runtime.pp_outcome pp) r.Runtime.outcome,
      r.Runtime.output,
      r.Runtime.steps,
      r.Runtime.thread_stats,
      Step_journal.entries journal ),
    r.Runtime.injections )

let run_signature policy ops =
  fst (signature ~policy (Fmt.any "()") (interp_ops ops))

let check_twice name ?policy ?inject pp io =
  let a, ia = signature ?policy ?inject pp (io ()) in
  let b, ib = signature ?policy ?inject pp (io ()) in
  Alcotest.check Alcotest.bool (name ^ ": identical") true (a = b);
  Alcotest.check int_v (name ^ ": injections") ia ib;
  a

let determinism_tests =
  [
    case "fork/join tree computes the right sum" (fun () ->
        let r = run (tree 6) in
        (match r.Runtime.outcome with
        | Runtime.Value v -> Alcotest.check int_v "sum" 127 v
        | _ -> Alcotest.fail "expected a value");
        Alcotest.check int_v "forks" 127 r.Runtime.forks);
    case "throwTo kills spinners" (fun () ->
        match (run (kill_the_spinners 8)).Runtime.outcome with
        | Runtime.Value () -> ()
        | _ -> Alcotest.fail "expected every spinner killed");
    case "deadlock reports both blocked takers" (fun () ->
        let io =
          Mvar.new_empty >>= fun (m : int Mvar.t) ->
          fork (Mvar.take m >>= fun _ -> return ()) >>= fun _ ->
          Mvar.take m
        in
        let r = run io in
        (match r.Runtime.outcome with
        | Runtime.Deadlock -> ()
        | _ -> Alcotest.fail "expected deadlock");
        Alcotest.check (Alcotest.list int_v) "blocked tids" [ 0; 1 ]
          (List.map (fun b -> b.Runtime.bt_tid) r.Runtime.blocked_at_exit);
        List.iter
          (fun b ->
            Alcotest.check Alcotest.bool "waits on takeMVar" true
              (b.Runtime.bt_why = Runtime.W_take_mvar);
            Alcotest.check Alcotest.bool "on the shared empty box" true
              (b.Runtime.bt_mvar <> None
              && b.Runtime.bt_mvar_full = Some false))
          r.Runtime.blocked_at_exit);
    case "mixed workload: two runs are byte-identical" (fun () ->
        let outcome, output, _, _, _ =
          check_twice "mixed" (Fmt.any "()") mixed
        in
        Alcotest.check str_v "outcome" "Value ()" outcome;
        Alcotest.check str_v "output" "ihgfedcbkilled" output);
    case "fork/join tree: two random-policy runs are byte-identical"
      (fun () ->
        let outcome, _, _, _, _ =
          check_twice "tree" ~policy:(Runtime.Config.Random 7) Fmt.int
            (fun () -> tree 5)
        in
        Alcotest.check str_v "outcome" "Value 63" outcome);
    case "spinner kills: two runs are byte-identical" (fun () ->
        ignore
          (check_twice "kills" (Fmt.any "()") (fun () -> kill_the_spinners 6)));
    case "an injected kill repeats identically" (fun () ->
        (* kill the first spinner at step 40, mid-run *)
        let inject ~step ~running:_ =
          if step = 40 then Some (1, Io.Kill_thread) else None
        in
        let _, injections =
          signature ~inject (Fmt.any "()") (kill_the_spinners 4)
        in
        Alcotest.check int_v "one live target" 1 injections;
        ignore
          (check_twice "inject" ~inject (Fmt.any "()") (fun () ->
               kill_the_spinners 4)));
    (* Every sweep's jobs-invariance rests on this: a run is a pure
       function of its program and config. *)
    QCheck_alcotest.to_alcotest
      (QCheck2.Test.make ~count:60
         ~name:"random programs: two runs under one config are byte-identical"
         (QCheck2.Gen.pair gen_policy gen_ops)
         (fun (policy, ops) ->
           run_signature policy ops = run_signature policy ops));
  ]

(* --- step journal --------------------------------------------------------- *)

let entries_v = Alcotest.(list (pair int int))

let journalled ?(window = 65536) io =
  let j = Step_journal.create ~window () in
  let config = { (rr_config ()) with Runtime.Config.journal = Some j } in
  (Runtime.run ~config io, j)

let journal_tests =
  let module J = Step_journal in
  [
    case "window rounds up to a power of two" (fun () ->
        List.iter
          (fun (asked, got) ->
            Alcotest.check int_v (string_of_int asked) got
              (J.window (J.create ~window:asked ())))
          [ (1, 1); (3, 4); (64, 64); (1000, 1024) ];
        Alcotest.check int_v "default" 65536 (J.window (J.create ())));
    case "a non-positive window is rejected" (fun () ->
        List.iter
          (fun w ->
            match J.create ~window:w () with
            | exception Invalid_argument _ -> ()
            | _ -> Alcotest.failf "window %d accepted" w)
          [ 0; -4 ]);
    case "read gives the noted tid, -1 where nothing was noted" (fun () ->
        let j = J.create ~window:8 () in
        J.note j ~step:1 ~running:3;
        J.note j ~step:2 ~running:0;
        J.note j ~step:4 ~running:7;
        Alcotest.check (Alcotest.list int_v) "reads" [ -1; 3; 0; -1; 7; -1 ]
          (List.init 6 (J.read j));
        Alcotest.check int_v "last" 4 (J.last j);
        Alcotest.check entries_v "entries" [ (1, 3); (2, 0); (4, 7) ]
          (J.entries j));
    case "a lapped slot reads as stale" (fun () ->
        let j = J.create ~window:4 () in
        for s = 0 to 9 do
          J.note j ~step:s ~running:(s mod 3)
        done;
        Alcotest.check int_v "lo" 6 (J.lo j);
        Alcotest.check int_v "step 5 was overwritten by step 9" (-1)
          (J.read j 5);
        Alcotest.check int_v "step 2 was overwritten by step 6" (-1)
          (J.read j 2);
        Alcotest.check entries_v "the last window"
          [ (6, 0); (7, 1); (8, 2); (9, 0) ]
          (J.entries j));
    case "lo is the oldest step inside the window" (fun () ->
        let j = J.create ~window:8 () in
        Alcotest.check int_v "empty" 0 (J.lo j);
        for s = 0 to 7 do
          J.note j ~step:s ~running:1
        done;
        Alcotest.check int_v "full, no lap" 0 (J.lo j);
        J.note j ~step:8 ~running:1;
        Alcotest.check int_v "one lap" 1 (J.lo j);
        J.advance j 20;
        Alcotest.check int_v "after advance" 13 (J.lo j));
    case "advance moves the clock forward only and records nothing"
      (fun () ->
        let j = J.create ~window:16 () in
        J.note j ~step:3 ~running:2;
        J.advance j 10;
        Alcotest.check int_v "last" 10 (J.last j);
        Alcotest.check int_v "no run at the advanced step" (-1) (J.read j 10);
        J.advance j 5;
        Alcotest.check int_v "never backwards" 10 (J.last j);
        Alcotest.check entries_v "entries" [ (3, 2) ] (J.entries j));
    case "clear forgets every step" (fun () ->
        let j = J.create ~window:4 () in
        for s = 0 to 5 do
          J.note j ~step:s ~running:1
        done;
        J.clear j;
        Alcotest.check int_v "last" 0 (J.last j);
        Alcotest.check int_v "read 5" (-1) (J.read j 5);
        Alcotest.check int_v "read 0" (-1) (J.read j 0);
        Alcotest.check entries_v "entries" [] (J.entries j));
    case "thread ids are kept modulo 2^22" (fun () ->
        let j = J.create ~window:4 () in
        J.note j ~step:1 ~running:((1 lsl 22) + 5);
        Alcotest.check int_v "tid" 5 (J.read j 1));
    case "a run notes one entry per scheduler step" (fun () ->
        let r, j = journalled (tree 4) in
        Alcotest.check (Alcotest.list int_v) "steps 0..steps-1"
          (List.init r.Runtime.steps Fun.id)
          (List.map fst (J.entries j));
        Alcotest.check int_v "main runs step 0" 0 (J.read j 0));
    case "per-thread journal counts equal thread_stats" (fun () ->
        let r, j = journalled (kill_the_spinners 5) in
        let es = J.entries j in
        List.iter
          (fun s ->
            Alcotest.check int_v
              (Printf.sprintf "t%d" s.Runtime.ts_id)
              s.Runtime.ts_steps
              (List.length
                 (List.filter (fun (_, t) -> t = s.Runtime.ts_id) es)))
          r.Runtime.thread_stats);
    case "a small window keeps exactly the run's last steps" (fun () ->
        let full, jf = journalled (tree 5) in
        let _, js = journalled ~window:32 (tree 5) in
        Alcotest.check Alcotest.bool "run outlasts the window" true
          (full.Runtime.steps > 32);
        let all = J.entries jf in
        let tail = List.filteri (fun i _ -> i >= List.length all - 32) all in
        Alcotest.check entries_v "last 32 steps" tail (J.entries js));
  ]

(* --- the injection hook and the run queue --------------------------------- *)

let with_inject inject io =
  Runtime.run ~config:{ (rr_config ()) with Runtime.Config.inject } io

let inject_tests =
  [
    case "inject into a dead or unknown thread is ignored" (fun () ->
        (* the child finishes long before step 30; tid 99 never exists *)
        let inject ~step ~running:_ =
          if step = 30 then Some (1, Io.Kill_thread)
          else if step = 31 then Some (99, Io.Kill_thread)
          else None
        in
        let r =
          with_inject (Some inject)
            (fork (put_char 'c') >>= fun _ -> yields 40)
        in
        (match r.Runtime.outcome with
        | Runtime.Value () -> ()
        | _ -> Alcotest.fail "expected a value");
        Alcotest.check int_v "injections" 0 r.Runtime.injections;
        Alcotest.check str_v "child ran to completion" "c" r.Runtime.output);
    case "inject wakes a thread blocked on takeMVar" (fun () ->
        let inject ~step ~running:_ =
          if step = 30 then Some (1, Io.Kill_thread) else None
        in
        let io =
          Mvar.new_empty >>= fun (m : unit Mvar.t) ->
          Mvar.new_empty >>= fun done_ ->
          fork
            (catch (Mvar.take m) (fun _ -> put_string "woken")
            >>= fun () -> Mvar.put done_ ())
          >>= fun _ ->
          yields 20 >>= fun () -> Mvar.take done_
        in
        let r = with_inject (Some inject) io in
        Alcotest.check str_v "outcome" "Value ()"
          (Fmt.str "%a" (Runtime.pp_outcome (Fmt.any "()")) r.Runtime.outcome);
        Alcotest.check str_v "output" "woken" r.Runtime.output;
        Alcotest.check int_v "injections" 1 r.Runtime.injections;
        Alcotest.check int_v "delivered to the taker" 1
          (List.nth r.Runtime.thread_stats 1).Runtime.ts_delivered);
    case "inject into a masked thread waits for the unmask" (fun () ->
        (* fire at the child's 8th step: inside its 20 masked yields *)
        let child_steps = ref 0 in
        let inject ~step:_ ~running =
          if running = 1 then incr child_steps;
          if running = 1 && !child_steps = 8 then Some (1, Io.Kill_thread)
          else None
        in
        let io =
          Mvar.new_empty >>= fun done_ ->
          fork
            (catch
               ( mask_ (yields 20 >>= fun () -> put_char 'a') >>= fun () ->
                 put_char 'b' )
               (fun _ -> put_char 'k')
            >>= fun () -> Mvar.put done_ ())
          >>= fun _ ->
          yields 5 >>= fun () -> Mvar.take done_
        in
        let r = with_inject (Some inject) io in
        Alcotest.check str_v "masked work finished, then killed" "ak"
          r.Runtime.output;
        Alcotest.check int_v "injections" 1 r.Runtime.injections);
    case "round-robin runs forked threads in fork order" (fun () ->
        let r =
          run
            ( fork (put_char 'a') >>= fun _ ->
              fork (put_char 'b') >>= fun _ ->
              fork (put_char 'c') >>= fun _ -> yields 10 )
        in
        Alcotest.check str_v "output" "abc" r.Runtime.output);
  ]

let suites =
  [
    ("runtime:monad", monad_tests);
    ("runtime:exceptions", exception_tests);
    ("runtime:fork", fork_tests);
    ("runtime:mvar", mvar_tests);
    ("runtime:time", time_tests);
    ("runtime:io", io_tests);
    ("runtime:determinism", determinism_tests);
    ("runtime:journal", journal_tests);
    ("runtime:inject", inject_tests);
  ]
