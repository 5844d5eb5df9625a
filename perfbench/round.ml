(* What one round of a workload measured. A run is several rounds, each
   with its own set-up; the report takes medians across rounds and pools
   the latency samples. *)

type t = {
  setup_s : float;  (** workload start to the first timed request *)
  window_s : float;  (** wall seconds of the timed phase *)
  attempted : int;  (** timed requests sent or offered *)
  answered : int;  (** timed requests lawfully answered *)
  failed : int;  (** every violated output check, whole round *)
  errors : string list;  (** the first few violations, for the log *)
  lat : Common.pct;  (** client wall latency (µs), send to parsed response *)
  vlat : Common.pct;
      (** runtime-clock latency (sim only): from send on the closed loop,
          from when the request was due on the open loop *)
  ok : int;  (** timed 200s *)
  lag : Common.pct;  (** open-loop generator lateness, runtime clock *)
  gen_cpu_ratio : float;  (** out-of-process generator CPU / wall *)
  total_reqs : int;  (** requests the runtime handled, warm-up included *)
  run_s : float;  (** wall seconds of the whole [Runtime.run] *)
  cpu_s : float;  (** CPU seconds of this process over the same run *)
  restarts : int;  (** supervisor restarts *)
  steps : int;
  forks : int;
  blocks : int;
  minor_words : float;  (** allocated by the process that runs hio *)
  thread_steps : (string * int) list;  (** steps per thread group *)
  reg : Obs.Metrics.t;  (** the server's registry *)
  probe : Probe.t;  (** decorator and hook tallies (traced rounds) *)
}

let thread_steps (r : _ Hio.Runtime.result) =
  let tbl = Hashtbl.create 8 in
  List.iter
    (fun ts ->
      let g = Probe.thread_group ts.Hio.Runtime.ts_name in
      let prev = Option.value ~default:0 (Hashtbl.find_opt tbl g) in
      Hashtbl.replace tbl g (prev + ts.Hio.Runtime.ts_steps))
    r.Hio.Runtime.thread_stats;
  List.map
    (fun g -> (g, Option.value ~default:0 (Hashtbl.find_opt tbl g)))
    Probe.thread_groups

let blocks (r : _ Hio.Runtime.result) =
  List.fold_left
    (fun acc ts -> acc + ts.Hio.Runtime.ts_blocked)
    0 r.Hio.Runtime.thread_stats

(* The §5 guarantee every round is checked against: the run returned a
   value and left no thread stranded. *)
let outcome_errors (r : _ Hio.Runtime.result) =
  (match r.Hio.Runtime.outcome with
  | Hio.Runtime.Value _ -> []
  | Hio.Runtime.Uncaught e -> [ "run ended Uncaught " ^ Printexc.to_string e ]
  | Hio.Runtime.Deadlock -> [ "run ended in Deadlock" ]
  | Hio.Runtime.Out_of_steps -> [ "run ran out of steps" ])
  @
  match r.Hio.Runtime.blocked_at_exit with
  | [] -> []
  | l -> [ Printf.sprintf "%d thread(s) stranded at exit" (List.length l) ]

let counter reg labels name =
  Obs.Metrics.counter_value (Obs.Metrics.counter reg ~labels name)

let cpu_now () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime

(* Run [program], measuring wall time, CPU time and minor words. *)
let run ~config program =
  let t0 = Common.wall_s () and c0 = cpu_now () and w0 = Gc.minor_words () in
  let r = Hio.Runtime.run ~config program in
  let words = Gc.minor_words () -. w0 in
  (r, Common.wall_s () -. t0, cpu_now () -. c0, words)
