(** The fault-injection engine for hio programs.

    A {!case} is a program built for adversarial testing: it does its
    concurrent work while the sweep is {e armed}, then calls {!disarm}
    (and {!Ev.Chaos.disarm} on its transport) and checks its own
    invariants with {!require} (probe threads, unit counts, cleanup
    flags). Its body is a function of the run's {!env}, so one case
    serves every adversary: a {!fault} names the kills, the transport
    faults, the resource budgets and the load multiplier of one run,
    and the engine builds the env from it on the OCaml side before the
    run starts.

    Three enumerators generate the faults — the paper's §5.2/§7 claims
    are universally quantified over where the exception lands, and so
    are the runs:
    - {!kills}: {!Hio.Io.Kill_thread} at every armed scheduler step;
    - {!io}: every transport fault at every armed I/O operation site,
      with kills layered on each clean point's faulted schedule;
    - {!load}: open-loop ramps at each of {!multipliers} and under each
      resource plan, with kills layered on every ramp, plus two gates
      judged across runs.

    Verdict per faulted run:
    - the injection victim resolved to the main thread: the whole program
      was killed, so [Value _] and [Uncaught Kill_thread] are both fine
      and quiescence is not judged (the scheduler stops the instant main
      dies, abandoning well-behaved children mid-step);
    - otherwise the run must end in [Value _] — every [require] held —
      with {e no thread blocked at exit} ({!Hio.Runtime.blocked_at_exit},
      the deadlock watchdog's wait graph, must be empty).

    Any other outcome is a failure; its fault is shrunk (kills over armed
    steps only, so a counterexample never names the disarmed probe
    phase; a transport rule to its earliest failing site) and reported.
    A faulted run is a pure function of case and fault, so the fault is
    its own replay: {!run} it against the same {!recording}. *)

exception Violation of string
(** What {!require} throws; uncaught it fails the run with the message. *)

val require : string -> bool -> unit Hio.Io.t
(** [require what ok]: assert an invariant from inside a case. *)

val disarm : unit Hio.Io.t
(** End the armed window: steps after this (probes, final checks) are
    not kill points. Runs as a single [lift] step. *)

type env = {
  ctl : Ev.Chaos.ctl;
      (** this run's chaos control: wrap the transport through it so
          transport faults and resource budgets bite *)
  mult : int;  (** this run's load multiplier; [1] outside load sweeps *)
}

type 'a case = { name : string; max_steps : int; body : env -> 'a Hio.Io.t }
(** A named program prepared for sweeping. A faulted run that exceeds
    [max_steps] counts as a livelock failure. *)

val case : ?max_steps:int -> string -> (env -> 'a Hio.Io.t) -> 'a case
(** Default [max_steps] is [200_000]. *)

type fault = {
  kill : Plan.t;  (** kills to inject, by scheduler step *)
  chaos : Ev.Chaos.plan;  (** transport faults, by I/O site *)
  resources : Ev.Chaos.resources;  (** resource-exhaustion budgets *)
  mult : int;  (** the load multiplier handed to the body *)
}
(** Everything one run is exposed to. *)

val clean : fault
(** No kills, no transport faults, no budgets, multiplier [1]. *)

type 'a recording = {
  steps : int;  (** scheduler steps to completion *)
  armed : (int * int) array;  (** (step index, acting tid), armed only *)
  names : (int * string) list;  (** forked thread names, in fork order *)
  sites : (Ev.Chaos.op * int) list;
      (** armed I/O sites per op, {!Ev.Chaos.all_ops} order *)
  value : 'a;  (** what the body returned *)
}

val record : 'a case -> fault -> 'a recording
(** Run the case once under the fault's transport, budgets and
    multiplier, with the injection hook as a pure observer ([fault.kill]
    is not injected).
    @raise Failure if the run does not end in [Value _] with no blocked
    threads — a case must be correct before it is swept. *)

val run :
  'a case ->
  'a recording ->
  fault ->
  string option * 'a Hio.Runtime.result
(** One faulted run; [None] means all invariants held. [Named] kill
    targets resolve through the recording's thread names. *)

type tally = {
  lt_offered : int;  (** arrivals the ramp issued *)
  lt_ok : int;  (** 200s — goodput *)
  lt_shed : int;  (** 503s: bulkhead/queue/deadline/brownout sheds *)
  lt_late : int;  (** 504s and client-side timeouts *)
  lt_transport : int;
      (** transport-level degradation: resets, refusals, dial failures,
          resource exhaustion *)
  lt_max_qdelay : int;
      (** worst bulkhead queue sojourn observed (virtual µs) *)
}
(** What a load case returns: one ramp's measurements.
    [lt_ok + lt_shed + lt_late + lt_transport] accounts for every client
    that survived the run. *)

type ramp = { ramp_mult : int; tally : tally; ramp_steps : int }
(** One clean ramp's result. *)

type kind = Kills | Io | Load  (** Which enumerator made a report. *)

type failure = {
  fault : fault;  (** the failing fault *)
  shrunk : fault;  (** its shrunk form, which still fails *)
  reason : string;
}

type report = {
  kind : kind;
  case : string;
  target : Plan.target;  (** where kills land *)
  baseline_steps : int;  (** the clean recording's steps (1x for loads) *)
  sites : (Ev.Chaos.op * int) list;  (** {!Io}: armed sites per op *)
  points : int;
      (** faulted runs enumerated: kill points, (site, fault) pairs, or
          resource ramps *)
  applied : int;  (** kill runs whose injection found a live target *)
  kill_runs : int;  (** kills layered on top of the points *)
  faulted_steps : int;
      (** total steps across all faulted runs and re-recordings *)
  fault_kinds : (string * int) list;
      (** runs per fault kind — ["kill"], {!Ev.Chaos.fault_label}s or
          resource-plan names — with ["kill"] last for layered kills *)
  ramps : ramp list;  (** {!Load}: clean ramps, multiplier order *)
  capacity : int;  (** {!Load}: goodput of the lowest clean ramp *)
  failures : failure list;
}

val sample : int -> 'a list -> 'a list
(** [sample n l] keeps at most [n] entries of [l], evenly spaced and
    including the first and last — the down-sampling every sweep uses
    for its kill points, sites and armed steps. *)

val kills :
  ?max_points:int ->
  ?target:Plan.target ->
  ?shrink:bool ->
  ?jobs:int ->
  'a case ->
  report
(** Kill every armed step (down-sampled evenly to [max_points] if
    given), injecting into [target] (default {!Plan.Acting}). [shrink]
    (default [true]) shrinks failing plans.

    [jobs] (default 1) farms the faulted runs to that many worker
    domains via {!Par}, as every enumerator does. The report is
    identical for every [jobs] value: workers return per-point partial
    results indexed by position, and the driver merges them in point
    order. Safe because each [Hio.Runtime.run] builds its entire
    scheduler state per call and the armed flag is domain-local. *)

val io :
  ?max_sites_per_op:int ->
  ?kills_per_point:int ->
  ?jobs:int ->
  'a case ->
  report
(** Run the case once per (op, site, fault) point — sites down-sampled
    evenly per op to [max_sites_per_op] if given, faults from
    {!Ev.Chaos.default_faults}. [kills_per_point] (default [0])
    additionally re-records each clean point's faulted schedule and
    layers a kill at that many of its armed steps, evenly sampled. *)

val multipliers : int list
(** The load multipliers, ascending: [[1; 2; 5; 10]]. *)

val load :
  qdelay_bound:int ->
  ?kills_per_ramp:int ->
  ?resources:(string * Ev.Chaos.resources) list ->
  ?jobs:int ->
  tally case ->
  report
(** Record one clean ramp per multiplier and judge two gates across
    them: goodput at the top multiplier holds at least half of capacity
    (the lowest ramp's goodput), and no ramp's [lt_max_qdelay] exceeds
    [qdelay_bound] (the bulkhead's CoDel target plus scheduling slop).
    Then compose: [kills_per_ramp] (default 0) kills at that many
    evenly-sampled armed steps of every clean and resource-faulted
    ramp; [resources] re-records the ramp per named resource plan at
    every multiplier. *)

val pp_report : Format.formatter -> report -> unit
(** One line per report, plus one block per failure. *)
