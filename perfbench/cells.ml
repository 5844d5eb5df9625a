(* The isolated cells of the ledger: one public call of one layer, timed
   in a loop on its own runtime, in wall ns, minor words and scheduler
   steps per call. Each cell is measured three times and the median
   kept. *)

open Hio
open Hio.Io
open Hio_std
module Http = Hserver.Http

type cost = { ns : float; words : float; steps : float }

(* [setup] builds the cell's fixture (untimed); [op] is the call. The
   loop runs inside the runtime, so runtime start-up is not counted. *)
let measure ?(config = Runtime.Config.default) ~n setup op =
  let once () =
    let prog =
      setup >>= fun (x, teardown) ->
      steps >>= fun s0 ->
      lift (fun () -> (Common.now_ns (), Gc.minor_words ())) >>= fun (t0, w0) ->
      (* [op x] is rebuilt every iteration: an Io value such as
         [Http.read_request conn] captures its line buffer when built,
         so running one value twice would share that buffer *)
      let rec loop i =
        if i = 0 then return () else op x >>= fun () -> loop (i - 1)
      in
      loop n >>= fun () ->
      steps >>= fun s1 ->
      lift (fun () ->
          let w = Gc.minor_words () -. w0 and ns = Common.now_ns () - t0 in
          let per x = x /. float_of_int n in
          {
            ns = per (float_of_int ns);
            words = per w;
            steps = per (float_of_int (s1 - s0));
          })
      >>= fun c -> teardown >>= fun () -> return c
    in
    Runtime.run_value
      ~config:{ config with Runtime.Config.max_steps = max_int }
      prog
  in
  let runs = List.init 3 (fun _ -> once ()) in
  let med f = Common.median (List.map f runs) in
  {
    ns = med (fun c -> c.ns);
    words = med (fun c -> c.words);
    steps = med (fun c -> c.steps);
  }

let none x = return (x, return ())

(* The scale of every loop; the self-test shrinks it. *)
let scale = ref 1

let n k = max 10 (k / !scale)

(* Reported per scheduler step rather than per call. *)
let step () =
  let c = measure ~n:(n 200_000) (none ()) (fun () -> lift ignore) in
  { ns = c.ns /. c.steps; words = c.words /. c.steps; steps = 1. }

let mvar () =
  measure ~n:(n 50_000) (Mvar.new_empty >>= fun m -> none m) (fun m ->
      Mvar.put m () >>= fun () -> Mvar.take m)

let fork_ () =
  measure ~n:(n 20_000) (none ()) (fun () ->
      ignore_result (fork (return ())))

let timeout () =
  measure ~n:(n 20_000) (none ()) (fun () ->
      ignore_result (Combinators.timeout 1_000_000 (return ())))

let chan () =
  measure ~n:(n 50_000) (Chan.create () >>= none) (fun c ->
      Chan.send c () >>= fun () -> Chan.recv c)

let sem () =
  measure ~n:(n 50_000) (Sem.create 1 >>= none) (fun s ->
      Sem.with_unit s (return ()))

(* Two mailboxes and a thread bouncing every message back: one op is
   two hops, reported per hop. *)
let mailbox_hop () =
  let c =
    measure ~n:(n 20_000)
      ( Hactor.Mailbox.create () >>= fun a ->
        Hactor.Mailbox.create () >>= fun b ->
        fork
          (Combinators.forever
             (Hactor.Mailbox.next b >>= fun () -> Hactor.Mailbox.push a ()))
        >>= fun tid -> return ((a, b), throw_to tid Kill_thread) )
      (fun (a, b) -> Hactor.Mailbox.push b () >>= fun () -> Hactor.Mailbox.next a)
  in
  { ns = c.ns /. 2.; words = c.words /. 2.; steps = c.steps /. 2. }

let call () =
  measure ~n:(n 10_000)
    ( Hactor.Actor.spawn ~name:"echo" (fun self ->
          Combinators.forever
            ( Hactor.Actor.receive self (fun (`Call r) -> Some r) >>= fun r ->
              Hactor.Actor.reply r () ))
    >>= fun a -> return (a, Hactor.Actor.kill a) )
    (fun a -> Hactor.Actor.call a (fun r -> `Call r))

let bulkhead () =
  measure ~n:(n 20_000) (Hsup.Bulkhead.create ~capacity:4 () >>= none)
    (fun b -> ignore_result (Hsup.Bulkhead.run b (return ())))

let breaker () =
  measure ~n:(n 50_000)
    (Hsup.Breaker.create () >>= none)
    Hsup.Breaker.note_success

let deadline_timeout () =
  measure ~n:(n 20_000) (none ()) (fun () ->
      Hsup.Deadline.mint 1_000_000 >>= fun d ->
      ignore_result (Hsup.Deadline.timeout d (return ())))

(* [count] requests pre-written into one large in-memory pipe, then
   parsed one by one. *)
let read_request ~body ~count =
  let req =
    if body = 0 then "GET /hello HTTP/1.0\r\n\r\n"
    else
      Printf.sprintf "POST /echo HTTP/1.0\r\ncontent-length: %d\r\n\r\n%s" body
        (String.make body 'b')
  in
  let count = n count in
  measure ~n:count
    ( Ev.Backend.sim_pipe ~capacity:((String.length req * count) + 1) ()
    >>= fun (client, server) ->
      Http.Conn.send_string client
        (String.concat "" (List.init count (fun _ -> req)))
      >>= fun () -> none server )
    (fun server -> ignore_result (Http.read_request server))

let write_response () =
  let count = n 10_000 in
  let resp = Http.ok "hi" in
  measure ~n:count
    ( Ev.Backend.sim_pipe ~capacity:(64 * count) () >>= fun (_client, server) ->
      none server )
    (fun server -> Http.write_response server resp)

(* Body bytes cost: the slope of [read_request] between a 1 KiB and a
   16 KiB body. *)
let body_slope () =
  let small = read_request ~body:1024 ~count:400 in
  let large = read_request ~body:16384 ~count:40 in
  let d = float_of_int (16384 - 1024) in
  let slope f = (f large -. f small) /. d in
  {
    ns = slope (fun c -> c.ns);
    words = slope (fun c -> c.words);
    steps = slope (fun c -> c.steps);
  }

(* One byte out and back over a real loopback connection, both ends
   green threads on one epoll runtime. *)
let real_roundtrip () =
  let b = Ev.Real.create () in
  measure
    ~config:(Ev.Backend.install b Runtime.Config.default)
    ~n:(n 5_000)
    ( b.Ev.Backend.b_listen ~backlog:4 >>= fun l ->
      l.Ev.Backend.l_dial () >>= fun near ->
      l.Ev.Backend.l_accept () >>= fun far ->
      fork
        (Combinators.forever
           (far.Ev.Backend.c_recv_char () >>= fun c ->
            far.Ev.Backend.c_send (String.make 1 c)))
      >>= fun tid ->
      return
        ( near,
          throw_to tid Kill_thread >>= fun () ->
          near.Ev.Backend.c_close () >>= fun () ->
          far.Ev.Backend.c_close () >>= fun () -> l.Ev.Backend.l_close () ) )
    (fun near ->
      near.Ev.Backend.c_send "x" >>= fun () ->
      ignore_result (near.Ev.Backend.c_recv_char ()))

(* Every cell, by metric stem. *)
let all () =
  [
    ("core.step", step ());
    ("core.mvar", mvar ());
    ("core.fork", fork_ ());
    ("std.timeout", timeout ());
    ("std.chan", chan ());
    ("std.sem", sem ());
    ("actor.mailbox_hop", mailbox_hop ());
    ("actor.call", call ());
    ("sup.bulkhead", bulkhead ());
    ("sup.breaker", breaker ());
    ("sup.deadline_timeout", deadline_timeout ());
    ("server.read_request", read_request ~body:0 ~count:5_000);
    ("server.write_response", write_response ());
    ("server.body", body_slope ());
    ("ev.real_roundtrip", real_roundtrip ());
  ]
