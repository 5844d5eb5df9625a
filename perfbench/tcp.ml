(* tcp-small and tcp-bulk: the plain keep-alive [Hserver.Server] on
   [Ev.Real] (epoll, one domain), driven over loopback by a closed-loop
   generator in a separate process that uses plain blocking Unix
   sockets — the load never shares the scheduler it measures. Both
   processes keep to one CPU ([Speed.pin]). *)

open Hio
open Hio.Io
module Server = Hserver.Server
module Http = Hserver.Http

external fd_int : Unix.file_descr -> int = "%identity"

(* --- the generator process ----------------------------------------------- *)

type job = {
  port : int;
  conns : int;
  warmup : int;  (** untimed requests per connection *)
  count : int;  (** timed requests per connection *)
}

type report = {
  g_first : float;  (** wall time of the first timed request *)
  g_window : float;
  g_lat : float array;
  g_attempted : int;
  g_answered : int;
  g_failed : int;
  g_errors : string list;
  g_sent : int;  (** requests sent, warm-up included *)
  g_cpu : float;  (** CPU seconds over the timed window *)
}

type msg = Run of job | Quit

(* One connection's receive side: bytes until a whole response. *)
type rx = {
  fd : Unix.file_descr;
  mutable data : Bytes.t;
  mutable len : int;
  mutable hdr : int;  (** index past "\r\n\r\n", or -1 *)
  mutable need : int;  (** total response length once the header is in *)
  mutable status : int;
  mutable sent_ns : int;
  mutable req : int;  (** index of the input in flight *)
  mutable busy : bool;
  mutable done_ : int;
}

let rx fd =
  {
    fd;
    data = Bytes.create 65536;
    len = 0;
    hdr = -1;
    need = -1;
    status = 0;
    sent_ns = 0;
    req = 0;
    busy = false;
    done_ = 0;
  }

let find_crlf2 b len from =
  let rec go i =
    if i + 3 >= len then -1
    else if
      Bytes.get b i = '\r'
      && Bytes.get b (i + 1) = '\n'
      && Bytes.get b (i + 2) = '\r'
      && Bytes.get b (i + 3) = '\n'
    then i + 4
    else go (i + 1)
  in
  go (max 0 from)

let parse_header s =
  let lines = String.split_on_char '\n' s in
  let status =
    match lines with
    | l :: _ -> (
        match String.split_on_char ' ' (String.trim l) with
        | _ :: code :: _ -> Option.value ~default:0 (int_of_string_opt code)
        | _ -> 0)
    | [] -> 0
  in
  let clen =
    List.fold_left
      (fun acc l ->
        match String.index_opt l ':' with
        | Some i
          when String.lowercase_ascii (String.trim (String.sub l 0 i))
               = "content-length" ->
            Option.value ~default:0
              (int_of_string_opt
                 (String.trim (String.sub l (i + 1) (String.length l - i - 1))))
        | _ -> acc)
      0 lines
  in
  (status, clen)

(* Feed newly read bytes; [Some (status, body)] once complete. *)
let feed c =
  if c.hdr < 0 then begin
    let h = find_crlf2 c.data c.len 0 in
    if h > 0 then begin
      let status, clen = parse_header (Bytes.sub_string c.data 0 h) in
      c.hdr <- h;
      c.status <- status;
      c.need <- h + clen
    end
  end;
  if c.hdr >= 0 && c.len >= c.need then begin
    let body = Bytes.sub_string c.data c.hdr (c.need - c.hdr) in
    let extra = c.len - c.need in
    c.hdr <- -1;
    c.len <- 0;
    c.need <- -1;
    Some (c.status, body, extra)
  end
  else None

let read_some c =
  if c.len = Bytes.length c.data then begin
    let d = Bytes.create (2 * Bytes.length c.data) in
    Bytes.blit c.data 0 d 0 c.len;
    c.data <- d
  end;
  let n = Unix.read c.fd c.data c.len (Bytes.length c.data - c.len) in
  if n = 0 then raise End_of_file;
  c.len <- c.len + n

let request_of body =
  if body = "" then "GET /hello HTTP/1.0\r\n\r\n"
  else
    Printf.sprintf "POST /echo HTTP/1.0\r\ncontent-length: %d\r\n\r\n%s"
      (String.length body) body

let expected_of body = if body = "" then "hi" else body

(* The closed loop: every connection has at most one request in flight;
   each answer is checked, timed and followed by the next request until
   [more] says stop. A connection that stays silent for [stall] seconds
   fails the round. *)
let stall = 10.

let drive ~inputs ~requests conns ~next ~more ~on_answer =
  let send c =
    c.req <- next ();
    c.sent_ns <- Common.now_ns ();
    c.busy <- true;
    let r = requests.(c.req) in
    ignore (Unix.write_substring c.fd r 0 (String.length r))
  in
  Array.iter (fun c -> if more c then send c) conns;
  let rec loop () =
    let busy = List.filter (fun c -> c.busy) (Array.to_list conns) in
    if busy <> [] then begin
      let ready, _, _ =
        Unix.select (List.map (fun c -> c.fd) busy) [] [] stall
      in
      if ready = [] then failwith "generator: a request never finished";
      List.iter
        (fun c ->
          if List.mem c.fd ready then begin
            read_some c;
            match feed c with
            | None -> ()
            | Some (status, body, extra) ->
                let lat = Common.now_ns () - c.sent_ns in
                c.busy <- false;
                c.done_ <- c.done_ + 1;
                on_answer ~lat
                  ~ok:
                    (status = 200 && extra = 0
                    && String.equal body (expected_of inputs.(c.req)))
                  ~status;
                if more c then send c
          end)
        busy;
      loop ()
    end
  in
  loop ()

let run_job ~inputs ~requests job =
  let sent = ref 0 and failed = ref 0 and errors = ref [] in
  let lat = ref [] and attempted = ref 0 and answered = ref 0 in
  let first = ref 0. and window = ref 0. and cpu = ref 0. in
  let note e =
    incr failed;
    if List.length !errors < 5 then errors := e :: !errors
  in
  let socks = ref [] in
  (try
     let conns =
       Array.init job.conns (fun _ ->
           let fd = Unix.socket ~cloexec:true Unix.PF_INET Unix.SOCK_STREAM 0 in
           socks := fd :: !socks;
           Unix.setsockopt fd Unix.TCP_NODELAY true;
           Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, job.port));
           rx fd)
     in
     let n = Array.length inputs in
     let next () =
       let i = !sent mod n in
       incr sent;
       i
     in
     let check ~ok ~status =
       if not ok then note (Printf.sprintf "wrong answer (status %d)" status)
     in
     (* warm-up: the first requests of every connection, untimed *)
     drive ~inputs ~requests conns ~next
       ~more:(fun c -> c.done_ < job.warmup)
       ~on_answer:(fun ~lat:_ ~ok ~status -> check ~ok ~status);
     Array.iter (fun c -> c.done_ <- 0) conns;
     first := Common.wall_s ();
     let cpu0 = Round.cpu_now () in
     let sent0 = !sent in
     drive ~inputs ~requests conns ~next
       ~more:(fun c -> c.done_ < job.count)
       ~on_answer:(fun ~lat:l ~ok ~status ->
         check ~ok ~status;
         if ok then begin
           incr answered;
           lat := (float_of_int l /. 1e3) :: !lat
         end);
     window := Common.wall_s () -. !first;
     cpu := Round.cpu_now () -. cpu0;
     attempted := !sent - sent0
   with e -> note ("generator: " ^ Printexc.to_string e));
  List.iter (fun fd -> try Unix.close fd with Unix.Unix_error _ -> ()) !socks;
  {
    g_first = !first;
    g_window = !window;
    g_lat = Array.of_list (List.rev !lat);
    g_attempted = !attempted;
    g_answered = !answered;
    g_failed = !failed;
    g_errors = List.rev !errors;
    g_sent = !sent;
    g_cpu = !cpu;
  }

type gen = {
  pid : int;
  ctl : out_channel;
  res_fd : Unix.file_descr;
  res : in_channel;
}

(* Fork the generator before any runtime exists. It serves jobs until
   told to quit (or its control pipe closes). *)
let spawn ~inputs =
  let requests = Array.map request_of inputs in
  let ctl_r, ctl_w = Unix.pipe ~cloexec:true () in
  let res_r, res_w = Unix.pipe ~cloexec:true () in
  flush_all ();
  match Unix.fork () with
  | 0 ->
      Unix.close ctl_w;
      Unix.close res_r;
      let ic = Unix.in_channel_of_descr ctl_r
      and oc = Unix.out_channel_of_descr res_w in
      let rec serve () =
        match (Marshal.from_channel ic : msg) with
        | Run job ->
            Marshal.to_channel oc (run_job ~inputs ~requests job) [];
            flush oc;
            serve ()
        | Quit -> ()
        | exception End_of_file -> ()
      in
      (try serve () with _ -> ());
      Unix._exit 0
  | pid ->
      Unix.close ctl_r;
      Unix.close res_w;
      {
        pid;
        ctl = Unix.out_channel_of_descr ctl_w;
        res_fd = res_r;
        res = Unix.in_channel_of_descr res_r;
      }

let stop g =
  (try
     Marshal.to_channel g.ctl Quit [];
     close_out g.ctl
   with Sys_error _ -> ());
  let rec reap () =
    match Unix.waitpid [] g.pid with
    | _ -> ()
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> reap ()
    | exception Unix.Unix_error (_, _, _) -> ()
  in
  reap ();
  close_in_noerr g.res

let kill g =
  (try Unix.kill g.pid Sys.sigkill with Unix.Unix_error _ -> ());
  stop g

(* --- the server side ------------------------------------------------------ *)

let server_config conns =
  {
    Server.default_config with
    Server.request_timeout = 5_000_000;
    max_concurrent = conns;
    accept_queue = 64;
    supervised = false;
    keep_alive = true;
  }

let handler probe (req : Http.request) =
  Probe.timed probe (fun () ->
      match req.Http.path with
      | "/hello" -> Http.ok "hi"
      | "/echo" -> Http.ok req.Http.body
      | _ -> Http.not_found)

(* One round: [count] timed requests spread over [conns] connections. *)
let round ~gen ~conns ~warmup ~count ~traced =
  let probe = Probe.create () in
  let real = Ev.Real.create () in
  let backend =
    if traced then Probe.backend probe real else Probe.capture_port probe real
  in
  let reg = Obs.Metrics.create () in
  let config =
    Ev.Backend.install backend
      { Runtime.Config.default with Runtime.Config.max_steps = max_int }
  in
  let config = if traced then Probe.attach probe config else config in
  let t0 = Common.wall_s () in
  let program =
    Server.start ~config:(server_config conns) ~metrics:reg ~backend
      (handler probe)
    >>= fun server ->
    lift (fun () ->
        match probe.Probe.port with
        | None -> failwith "server bound no listener"
        | Some port ->
            Marshal.to_channel gen.ctl
              (Run { port; conns; warmup; count = max 1 (count / conns) })
              [];
            flush gen.ctl)
    >>= fun () ->
    wait_readable (fd_int gen.res_fd) >>= fun () -> Server.shutdown server
  in
  let r, run_s, cpu_s, words = Round.run ~config program in
  let errs = Round.outcome_errors r in
  if errs <> [] then begin
    kill gen;
    failwith (String.concat "; " errs)
  end;
  let g : report = Marshal.from_channel gen.res in
  let stats =
    match r.Runtime.outcome with Runtime.Value s -> s | _ -> assert false
  in
  let served = stats.Server.served in
  let server_errors =
    (if served <> g.g_sent then
         [ Printf.sprintf "served %d of %d requests sent" served g.g_sent ]
       else [])
    @
    if stats.Server.timeouts + stats.Server.bad_requests + stats.Server.shed > 0
    then [ "server timed out, rejected or shed a request" ]
    else []
  in
  {
    Round.setup_s = g.g_first -. t0;
    window_s = g.g_window;
    attempted = g.g_attempted;
    answered = g.g_answered;
    failed = g.g_failed + List.length server_errors;
    errors = g.g_errors @ server_errors;
    lat = Common.pct g.g_lat;
    vlat = Common.pct [||];
    ok = g.g_answered;
    lag = Common.pct [||];
    gen_cpu_ratio = (if g.g_window > 0. then g.g_cpu /. g.g_window else 0.);
    total_reqs = max 1 served;
    run_s;
    cpu_s;
    restarts = stats.Server.restarts;
    steps = r.Runtime.steps;
    forks = r.Runtime.forks;
    blocks = Round.blocks r;
    minor_words = words;
    thread_steps = Round.thread_steps r;
    reg;
    probe;
  }

(* Inputs: tcp-small sends one fixed GET; tcp-bulk echoes a pool of 64
   bodies of 1 KiB to 16 KiB. Sizes are stratified (one per 1/64th of the
   range, jittered within it) so every seed sends the same mean body;
   the order and the bytes come from the seed. *)
let pool = 64

let inputs ~bulk ~seed =
  if not bulk then [| "" |]
  else
    let st = Common.rng ~seed ~salt:1 in
    let lo = 1024 and hi = 16384 in
    let sizes =
      Array.init pool (fun i ->
          lo + (((i * (hi - lo)) + Random.State.int st (hi - lo)) / pool))
    in
    for i = pool - 1 downto 1 do
      let j = Random.State.int st (i + 1) in
      let t = sizes.(i) in
      sizes.(i) <- sizes.(j);
      sizes.(j) <- t
    done;
    Array.map
      (fun n -> String.init n (fun _ -> Char.chr (33 + Random.State.int st 94)))
      sizes
