(* sim-shard and sim-overload: the serving stack on an explicit
   [Ev.Backend.sim ()], one domain, one OS thread. Clients are green
   threads over in-memory pipes, so every count (steps, forks, outcomes,
   virtual latency) is exact for a given seed and size. *)

open Hio
open Hio.Io
open Hio_std
module Server = Hserver.Server
module Shard = Hserver.Shard
module Http = Hserver.Http

let request = { Http.meth = "GET"; path = "/hello"; headers = []; body = "" }

(* Samples and counters the clients write while the round runs. *)
type tally = {
  mutable lat : float list;
  mutable vlat : float list;
  mutable lag : float list;
  mutable attempted : int;
  mutable answered : int;
  mutable ok : int;
  mutable shed : int;
  mutable late : int;
  mutable failed : int;
  mutable errors : string list;
  mutable issued : int;  (** requests sent, warm-up included *)
}

let tally () =
  {
    lat = [];
    vlat = [];
    lag = [];
    attempted = 0;
    answered = 0;
    ok = 0;
    shed = 0;
    late = 0;
    failed = 0;
    errors = [];
    issued = 0;
  }

let fail t e =
  t.failed <- t.failed + 1;
  if List.length t.errors < 5 then t.errors <- e :: t.errors

let config () =
  { Runtime.Config.default with Runtime.Config.max_steps = max_int }

(* Run one round's program and turn it into a [Round.t]. The program
   returns the server's final stats and the first-timed-request and
   end-of-window wall times. *)
let finish ~t0 ~tally:t ~reg ~probe (r, run_s, cpu_s, words) =
  let errs = Round.outcome_errors r in
  List.iter (fail t) errs;
  let first, last, stats =
    match r.Runtime.outcome with
    | Runtime.Value v -> v
    | _ -> (t0, t0, None)
  in
  (match stats with
  | Some s when s.Server.restarts > 0 ->
      fail t (Printf.sprintf "%d supervisor restarts" s.Server.restarts)
  | _ -> ());
  {
    Round.setup_s = first -. t0;
    window_s = last -. first;
    attempted = t.attempted;
    answered = t.answered;
    failed = t.failed;
    errors = List.rev t.errors;
    lat = Common.pct (Array.of_list t.lat);
    vlat = Common.pct (Array.of_list t.vlat);
    ok = t.ok;
    lag = Common.pct (Array.of_list t.lag);
    gen_cpu_ratio = 0.;
    total_reqs = max 1 t.issued;
    run_s;
    cpu_s;
    restarts =
      (match stats with Some s -> s.Server.restarts | None -> 0);
    steps = r.Runtime.steps;
    forks = r.Runtime.forks;
    blocks = Round.blocks r;
    minor_words = words;
    thread_steps = Round.thread_steps r;
    reg;
    probe;
  }

let timed_request t ~record conn =
  lift (fun () ->
      t.issued <- t.issued + 1;
      if record then t.attempted <- t.attempted + 1;
      Common.now_ns ())
  >>= fun w0 ->
  now >>= fun v0 ->
  Http.write_request conn request >>= fun () ->
  Http.read_response conn >>= fun resp ->
  now >>= fun v1 ->
  lift (fun () ->
      let w = float_of_int (Common.now_ns () - w0) /. 1e3 in
      if resp.Http.status = 200 && resp.Http.body = "hi" then begin
        if record then begin
          t.answered <- t.answered + 1;
          t.ok <- t.ok + 1;
          t.lat <- w :: t.lat;
          t.vlat <- float_of_int (v1 - v0) :: t.vlat
        end
      end
      else fail t (Printf.sprintf "wrong answer (status %d)" resp.Http.status))

(* --- sim-shard -------------------------------------------------------------

   Four shards, a closed loop of 32 clients in short keep-alive
   sessions; the handler sleeps a fixed virtual time. Within capacity:
   nothing sheds. *)

let shards = 4
let clients = 32
let handler_sleep = 20
let shard_warmup = 32

type shard_plan = { sessions : int array array  (** per client, cycled *) }

let shard_plan ~seed =
  let st = Common.rng ~seed ~salt:2 in
  {
    sessions =
      Array.init clients (fun _ ->
          Array.init 64 (fun _ -> 1 + Random.State.int st 6));
  }

(* A keep-alive connection holds a bulkhead slot while it waits for its
   next request, and a closed one holds its queue place until it gets a
   slot to read the end of stream: each shard admits every client at
   once, so the load stays within capacity and nothing sheds. *)
let shard_config =
  {
    Server.default_config with
    Server.keep_alive = true;
    max_concurrent = clients;
    max_waiting = clients;
  }

(* One round: [count] timed requests per client. *)
let shard_round ~plan ~count ~traced =
  let probe = Probe.create () in
  let sim = Ev.Backend.sim () in
  let backend = if traced then Probe.backend probe sim else sim in
  let reg = Obs.Metrics.create () in
  let config = if traced then Probe.attach probe (config ()) else config () in
  let t = tally () in
  let handler _req =
    sleep handler_sleep >>= fun () -> Probe.timed probe (fun () -> Http.ok "hi")
  in
  let t0 = Common.wall_s () in
  let session sh ~record n =
    catch
      ( Shard.connect sh >>= fun conn ->
        (* a fresh request action each time: see Cells.measure *)
        let rec go i =
          if i = 0 then return ()
          else timed_request t ~record conn >>= fun () -> go (i - 1)
        in
        go n >>= fun () ->
        Http.Conn.close conn )
      (fun e -> lift (fun () -> fail t ("client: " ^ Printexc.to_string e)))
  in
  let program =
    Shard.start ~config:shard_config ~metrics:reg ~backend ~shards handler
    >>= fun sh ->
    session sh ~record:false shard_warmup >>= fun () ->
    lift Common.wall_s >>= fun first ->
    let client c =
      let lens = plan.sessions.(c) in
      let rec loop k =
        lift (fun () -> t.attempted >= count * clients) >>= fun stop ->
        if stop then return ()
        else
          session sh ~record:true lens.(k mod Array.length lens) >>= fun () ->
          loop (k + 1)
      in
      loop 0
    in
    let rec spawn c acc =
      if c = clients then return acc
      else
        Task.spawn ~name:"client" (client c) >>= fun tk ->
        spawn (c + 1) (tk :: acc)
    in
    spawn 0 [] >>= fun tasks ->
    let rec join = function
      | [] -> return ()
      | tk :: rest -> Task.await tk >>= fun () -> join rest
    in
    join tasks >>= fun () ->
    lift Common.wall_s >>= fun last ->
    Shard.shutdown sh >>= fun stats ->
    lift (fun () ->
        if stats.Server.served <> t.issued then
          fail t
            (Printf.sprintf "served %d of %d requests sent" stats.Server.served
               t.issued);
        if stats.Server.shed + stats.Server.timeouts + stats.Server.rejected > 0
        then fail t "a request was shed, timed out or rejected")
    >>= fun () -> return (first, last, Some stats)
  in
  finish ~t0 ~tally:t ~reg ~probe (Round.run ~config program)

(* --- sim-overload -----------------------------------------------------------

   The supervised server with a CoDel queue target; one-shot connections
   arrive on the virtual clock at 10x capacity (2 slots x 30 µs handler
   = one request per 15 µs; arrivals every 1.5 µs on average, seeded
   jitter), each timed from when it was due. *)

let overload_sleep = 30
let overload_warmup = 16

let overload_config =
  {
    Server.default_config with
    Server.max_concurrent = 2;
    max_waiting = 4;
    queue_target = Some 60;
    dial_timeout = 2_000;
    restart_intensity = { Hsup.Sup.max_restarts = 16; window = 1_000_000 };
  }

(* Inter-arrival gaps in virtual µs, uniform over 0..3: mean 1.5. *)
let overload_plan ~seed =
  let st = Common.rng ~seed ~salt:3 in
  Array.init 4096 (fun _ -> Random.State.int st 4)

(* One round: [count] timed arrivals. *)
let overload_round ~plan ~count ~traced =
  let probe = Probe.create () in
  let sim = Ev.Backend.sim () in
  let backend = if traced then Probe.backend probe sim else sim in
  let reg = Obs.Metrics.create () in
  let config = if traced then Probe.attach probe (config ()) else config () in
  let t = tally () in
  let handler _req =
    sleep overload_sleep >>= fun () ->
    Probe.timed probe (fun () -> Http.ok "hi")
  in
  let t0 = Common.wall_s () in
  let outstanding = ref 0 and arrived = ref false in
  let client server ~due ~record =
    lift (fun () ->
        t.issued <- t.issued + 1;
        if record then t.attempted <- t.attempted + 1;
        Common.now_ns ())
    >>= fun w0 ->
    catch
      ( Server.connect server >>= fun conn ->
        Http.write_request conn request >>= fun () ->
        Combinators.timeout 1_000 (Http.read_response conn) >>= fun resp ->
        Http.Conn.close conn >>= fun () ->
        now >>= fun v1 ->
        lift (fun () ->
            let w = float_of_int (Common.now_ns () - w0) /. 1e3 in
            let answered kind =
              if record then begin
                t.answered <- t.answered + 1;
                t.lat <- w :: t.lat;
                t.vlat <- float_of_int (v1 - due) :: t.vlat;
                match kind with
                | `Ok -> t.ok <- t.ok + 1
                | `Shed -> t.shed <- t.shed + 1
                | `Late -> t.late <- t.late + 1
              end
            in
            match resp with
            | None -> answered `Late
            | Some { Http.status = 200; body = "hi"; _ } -> answered `Ok
            | Some { Http.status = 503; _ } -> answered `Shed
            | Some { Http.status = 504; _ } -> answered `Late
            | Some r ->
                fail t (Printf.sprintf "unlawful status %d" r.Http.status))
      )
      (fun e -> lift (fun () -> fail t ("client: " ^ Printexc.to_string e)))
  in
  let program =
    Server.start ~config:overload_config ~metrics:reg ~backend handler
    >>= fun server ->
    (* warm-up: one request at a time, well within capacity *)
    let rec warm n =
      if n = 0 then return ()
      else
        now >>= fun due ->
        client server ~due ~record:false >>= fun () -> warm (n - 1)
    in
    warm overload_warmup >>= fun () ->
    lift Common.wall_s >>= fun first ->
    Mvar.new_empty >>= fun drained ->
    let rec arrivals due i =
      if i >= count then return ()
      else
        let due = due + plan.(i mod Array.length plan) in
        now >>= fun v ->
        (if due > v then sleep (due - v) else return ()) >>= fun () ->
        now >>= fun v ->
        lift (fun () ->
            t.lag <- float_of_int (v - due) :: t.lag;
            incr outstanding)
        >>= fun () ->
        fork ~name:"client"
          (Combinators.finally
             (client server ~due ~record:true)
             ( lift (fun () ->
                   decr outstanding;
                   !arrived && !outstanding = 0)
             >>= fun last ->
               if last then ignore_result (Mvar.try_put drained ())
               else return () ))
        >>= fun _ -> arrivals due (i + 1)
    in
    now >>= fun start ->
    arrivals start 0 >>= fun () ->
    lift (fun () -> arrived := true) >>= fun () ->
    (if !outstanding = 0 then return () else Mvar.take drained) >>= fun () ->
    lift Common.wall_s >>= fun last ->
    Server.shutdown server >>= fun stats ->
    lift (fun () ->
        if t.ok + t.shed + t.late <> t.attempted then
          fail t
            (Printf.sprintf "ok %d + shed %d + late %d <> offered %d" t.ok
               t.shed t.late t.attempted))
    >>= fun () -> return (first, last, Some stats)
  in
  finish ~t0 ~tally:t ~reg ~probe (Round.run ~config program)
