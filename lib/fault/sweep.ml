open Hio

exception Violation of string

let () =
  Printexc.register_printer (function
    | Violation m -> Some (Printf.sprintf "Violation(%S)" m)
    | _ -> None)

let require what ok =
  if ok then Io.return () else Io.throw (Violation what)

(* The armed window. The flag lives outside the runtime and is toggled by
   a [lift] step inside the case program; the injection hook reads it on
   the OCaml side of the same single-threaded scheduler, so recording and
   replay see identical windows. It is domain-local (not a plain global)
   because the enumerators re-run cases on worker domains: each domain's
   runs are sequential, so a per-domain flag keeps the window exact
   without any cross-domain traffic. *)
let armed_key = Domain.DLS.new_key (fun () -> ref true)
let armed () = Domain.DLS.get armed_key
let disarm = Io.lift (fun () -> armed () := false)

type env = { ctl : Ev.Chaos.ctl; mult : int }
type 'a case = { name : string; max_steps : int; body : env -> 'a Io.t }

let case ?(max_steps = 200_000) name body = { name; max_steps; body }

type fault = {
  kill : Plan.t;
  chaos : Ev.Chaos.plan;
  resources : Ev.Chaos.resources;
  mult : int;
}

let clean =
  { kill = []; chaos = []; resources = Ev.Chaos.no_resources; mult = 1 }

(* The program one run executes: a fresh ctl per run (site counters are
   per-run state, like a metrics registry), built here on the OCaml side
   and handed to the body with the run's multiplier. *)
let program c (fault : fault) =
  let ctl = Ev.Chaos.create ~resources:fault.resources fault.chaos in
  (ctl, c.body { ctl; mult = fault.mult })

type 'a recording = {
  steps : int;
  armed : (int * int) array;
  names : (int * string) list;
  sites : (Ev.Chaos.op * int) list;
  value : 'a;
}

let baseline_value c (r : 'a Runtime.result) =
  match r.Runtime.outcome with
  | Runtime.Value v when r.Runtime.blocked_at_exit = [] -> v
  | Runtime.Value _ ->
      Fmt.failwith "fault: case %s: baseline strands blocked threads:@.%a"
        c.name Runtime.pp_wait_graph r.Runtime.blocked_at_exit
  | o ->
      Fmt.failwith "fault: case %s: baseline did not complete: %a" c.name
        (Runtime.pp_outcome (Fmt.any "_"))
        o

let record c fault =
  let armed = armed () in
  armed := true;
  let acts = ref [] and names = ref [] in
  let tracer = function
    | Runtime.Ev_fork { child; name = Some n; _ } ->
        names := (child, n) :: !names
    | _ -> ()
  in
  let observe ~step ~running =
    if !armed then acts := (step, running) :: !acts;
    None
  in
  let config =
    {
      Runtime.Config.default with
      Runtime.Config.max_steps = c.max_steps;
      tracer = Some tracer;
      inject = Some observe;
    }
  in
  let ctl, io = program c fault in
  let r = Runtime.run ~config io in
  let value = baseline_value c r in
  {
    steps = r.Runtime.steps;
    armed = Array.of_list (List.rev !acts);
    names = List.rev !names;
    sites = Ev.Chaos.site_counts ctl;
    value;
  }

let armed_steps recording =
  List.sort_uniq compare (List.map fst (Array.to_list recording.armed))

let resolve recording target ~acting =
  match target with
  | Plan.Acting -> Some acting
  | Plan.Tid t -> Some t
  | Plan.Named n -> (
      match List.find_opt (fun (_, nm) -> nm = n) recording.names with
      | Some (tid, _) -> Some tid
      | None -> None)

(* Judge one faulted run; [main_hit] is whether the injection resolved to
   the main thread (see the .mli on why that relaxes the checks). *)
let classify ~main_hit (r : 'a Runtime.result) =
  let graph () =
    Fmt.str "@[<v>%a@]" Runtime.pp_wait_graph r.Runtime.blocked_at_exit
  in
  match r.Runtime.outcome with
  | Runtime.Value _ ->
      if main_hit || r.Runtime.blocked_at_exit = [] then None
      else Some ("main returned but threads are wedged:\n" ^ graph ())
  | Runtime.Uncaught Io.Kill_thread when main_hit -> None
  | Runtime.Uncaught (Violation what) -> Some ("invariant violated: " ^ what)
  | Runtime.Uncaught e -> Some ("uncaught: " ^ Printexc.to_string e)
  | Runtime.Deadlock -> Some ("deadlock:\n" ^ graph ())
  | Runtime.Out_of_steps -> Some "out of steps (livelock or leak)"

let run c recording fault =
  armed () := true;
  let main_hit = ref false in
  let hook ~step ~running =
    match List.find_opt (fun i -> i.Plan.at_step = step) fault.kill with
    | None -> None
    | Some i -> (
        match resolve recording i.Plan.target ~acting:running with
        | None -> None
        | Some tid ->
            if tid = 0 then main_hit := true;
            Some (tid, i.Plan.exn))
  in
  let config =
    {
      Runtime.Config.default with
      Runtime.Config.max_steps = c.max_steps;
      inject = Some hook;
    }
  in
  let r = Runtime.run ~config (snd (program c fault)) in
  (classify ~main_hit:!main_hit r, r)

(* The shrinker. A fault with kills keeps its transport and load fixed
   and minimises the kill plan — only over armed steps, so a
   counterexample never names the disarmed probe phase. A fault without
   kills moves each chaos rule's site as early as it will go: earlier
   sites make shorter, more readable counterexamples. *)
let minimize c recording fault =
  let fails f = fst (run c recording f) <> None in
  if fault.kill <> [] then
    let armed = armed_steps recording in
    let kill =
      Shrink.minimize
        (fun p ->
          List.for_all (fun i -> List.mem i.Plan.at_step armed) p
          && fails { fault with kill = p })
        fault.kill
    in
    { fault with kill }
  else
    let moves f =
      List.concat
        (List.mapi
           (fun i (rule : Ev.Chaos.rule) ->
             List.map
               (fun at ->
                 {
                   f with
                   chaos =
                     List.mapi
                       (fun j r -> if j = i then { rule with r_at = at } else r)
                       f.chaos;
                 })
               (Shrink.earlier rule.r_at))
           f.chaos)
    in
    Shrink.greedy moves fails fault

type tally = {
  lt_offered : int;
  lt_ok : int;
  lt_shed : int;
  lt_late : int;
  lt_transport : int;
  lt_max_qdelay : int;
}

type ramp = { ramp_mult : int; tally : tally; ramp_steps : int }
type kind = Kills | Io | Load
type failure = { fault : fault; shrunk : fault; reason : string }

type report = {
  kind : kind;
  case : string;
  target : Plan.target;
  baseline_steps : int;
  sites : (Ev.Chaos.op * int) list;
  points : int;
  applied : int;
  kill_runs : int;
  faulted_steps : int;
  fault_kinds : (string * int) list;
  ramps : ramp list;
  capacity : int;
  failures : failure list;
}

(* Down-sample [l] to at most [n] entries, evenly spaced, keeping the
   first and last — a bounded sweep still probes both ends of the run. *)
let sample n l =
  let arr = Array.of_list l in
  let len = Array.length arr in
  if len <= n then l
  else
    List.init n (fun i -> arr.(if n = 1 then 0 else i * (len - 1) / (n - 1)))

(* What one farmed evaluation contributes to its report row. *)
type part = {
  p_points : int;
  p_applied : int;
  p_kill_runs : int;
  p_steps : int;
  p_failures : failure list;
}

let nothing =
  { p_points = 0; p_applied = 0; p_kill_runs = 0; p_steps = 0; p_failures = [] }

let ( ++ ) a b =
  {
    p_points = a.p_points + b.p_points;
    p_applied = a.p_applied + b.p_applied;
    p_kill_runs = a.p_kill_runs + b.p_kill_runs;
    p_steps = a.p_steps + b.p_steps;
    p_failures = a.p_failures @ b.p_failures;
  }

(* The farm: each evaluation builds all its state per run and the armed
   flag is domain-local, so items go to worker domains; [Par.map]
   returns results indexed by item and the fold merges them in item
   order — every report is identical whatever [jobs] is. *)
let farm ~jobs eval items =
  Array.fold_left ( ++ ) nothing (Par.map ~jobs eval (Array.of_list items))

(* One faulted run against [recording]; a failure is shrunk unless
   [shrink] is off. *)
let point ?(shrink = true) c recording fault =
  let verdict, r = run c recording fault in
  {
    nothing with
    p_applied = (if r.Runtime.injections > 0 then 1 else 0);
    p_steps = r.Runtime.steps;
    p_failures =
      (match verdict with
      | None -> []
      | Some reason ->
          let shrunk = if shrink then minimize c recording fault else fault in
          [ { fault; shrunk; reason } ]);
  }

(* Kills layered on [recording] (made under [fault]) at [n] evenly
   sampled armed steps: asynchronous exceptions landing while the
   transport or the load is misbehaving. *)
let layer_kills c recording fault n =
  List.fold_left
    (fun acc step ->
      let p = point c recording { fault with kill = [ Plan.kill step ] } in
      acc ++ { p with p_kill_runs = 1 })
    nothing
    (sample n (armed_steps recording))

let row kind c ?(target = Plan.Acting) ?(sites = []) ?(ramps = [])
    ?(capacity = 0) ~baseline_steps ~fault_kinds part =
  {
    kind;
    case = c.name;
    target;
    baseline_steps;
    sites;
    points = part.p_points;
    applied = part.p_applied;
    kill_runs = part.p_kill_runs;
    faulted_steps = part.p_steps;
    fault_kinds =
      (if part.p_kill_runs > 0 then fault_kinds @ [ ("kill", part.p_kill_runs) ]
       else fault_kinds);
    ramps;
    capacity;
    failures = part.p_failures;
  }

let count_by label l =
  List.fold_left
    (fun acc x ->
      let k = label x in
      (k, 1 + Option.value ~default:0 (List.assoc_opt k acc))
      :: List.remove_assoc k acc)
    [] l
  |> List.sort compare

(* --- the three enumerators --------------------------------------------- *)

let kills ?max_points ?(target = Plan.Acting) ?(shrink = true) ?(jobs = 1) c =
  let recording = record c clean in
  let steps = List.map fst (Array.to_list recording.armed) in
  let steps = match max_points with None -> steps | Some n -> sample n steps in
  let eval at_step =
    let kill = [ { Plan.at_step; target; exn = Io.Kill_thread } ] in
    { (point ~shrink c recording { clean with kill }) with p_points = 1 }
  in
  let part = farm ~jobs eval steps in
  row Kills c ~target ~baseline_steps:recording.steps
    ~fault_kinds:[ ("kill", part.p_points) ]
    part

let io ?max_sites_per_op ?(kills_per_point = 0) ?(jobs = 1) c =
  let recording = record c clean in
  let rules =
    List.concat_map
      (fun (op, n) ->
        let sites = List.init n Fun.id in
        let sites =
          match max_sites_per_op with None -> sites | Some m -> sample m sites
        in
        List.concat_map
          (fun at ->
            List.map
              (fun f -> { Ev.Chaos.r_op = op; r_at = at; r_fault = f })
              (Ev.Chaos.default_faults op))
          sites)
      recording.sites
  in
  (* A clean point's faulted schedule is re-recorded (the clean verdict
     certifies it meets [record]'s baseline criteria) and kills are
     layered on it. *)
  let eval rule =
    let fault = { clean with chaos = [ rule ] } in
    let p = { (point c recording fault) with p_points = 1 } in
    if p.p_failures = [] && kills_per_point > 0 then
      let faulted = record c fault in
      p ++ { nothing with p_steps = faulted.steps }
      ++ layer_kills c faulted fault kills_per_point
    else p
  in
  row Io c ~sites:recording.sites ~baseline_steps:recording.steps
    ~fault_kinds:
      (count_by (fun r -> Ev.Chaos.fault_label r.Ev.Chaos.r_fault) rules)
    (farm ~jobs eval rules)

let multipliers = [ 1; 2; 5; 10 ]

let load ~qdelay_bound ?(kills_per_ramp = 0) ?(resources = []) ?(jobs = 1) c =
  (* Phase 1 — one clean ramp per multiplier, on the driver domain: these
     define capacity and the goodput curve. *)
  let clean_ramps =
    List.map
      (fun mult ->
        let fault = { clean with mult } in
        match record c fault with
        | recording -> (fault, Ok recording)
        | exception Failure msg -> (fault, Error msg))
      multipliers
  in
  let fail fault reason = { fault; shrunk = fault; reason } in
  let ramps =
    List.filter_map
      (function
        | f, Ok r ->
            Some { ramp_mult = f.mult; tally = r.value; ramp_steps = r.steps }
        | _, Error _ -> None)
      clean_ramps
  in
  let capacity = match ramps with [] -> 0 | r :: _ -> r.tally.lt_ok in
  (* The cross-run gates no single run can see: goodput at the top of the
     ramp holds at least half of capacity (overload degrades service, it
     must not collapse it), and no admitted request sat in a bulkhead
     queue past the declared CoDel bound. *)
  let gates =
    List.filter_map
      (function
        | f, Error msg -> Some (fail f msg) | _, Ok _ -> None)
      clean_ramps
    @ (match List.rev ramps with
      | top :: _ :: _ when 2 * top.tally.lt_ok < capacity ->
          [
            fail { clean with mult = top.ramp_mult }
              (Printf.sprintf
                 "goodput collapsed under overload: %d ok at %dx < half of \
                  capacity %d"
                 top.tally.lt_ok top.ramp_mult capacity);
          ]
      | _ -> [])
    @ List.filter_map
        (fun r ->
          if r.tally.lt_max_qdelay <= qdelay_bound then None
          else
            Some
              (fail { clean with mult = r.ramp_mult }
                 (Printf.sprintf "queue delay %d exceeds the CoDel bound %d"
                    r.tally.lt_max_qdelay qdelay_bound)))
        ramps
  in
  (* Phase 2 — kills over each clean ramp, and each resource plan's ramp
     recorded afresh with kills layered on it. *)
  let items =
    List.concat_map
      (function
        | _, Error _ -> []
        | fault, Ok recording ->
            (if kills_per_ramp > 0 then [ `Kills (fault, recording) ] else [])
            @ List.map
                (fun (_, resources) -> `Ramp { fault with resources })
                resources)
      clean_ramps
  in
  let eval = function
    | `Kills (fault, recording) -> layer_kills c recording fault kills_per_ramp
    | `Ramp fault -> (
        match record c fault with
        | exception Failure msg ->
            { nothing with p_points = 1; p_failures = [ fail fault msg ] }
        | recording ->
            { nothing with p_points = 1; p_steps = recording.steps }
            ++ layer_kills c recording fault kills_per_ramp)
  in
  let part = farm ~jobs eval items in
  row Load c ~ramps ~capacity
    ~baseline_steps:(match ramps with [] -> 0 | r :: _ -> r.ramp_steps)
    ~fault_kinds:
      (List.map (fun (name, _) -> (name, List.length ramps)) resources)
    { part with p_failures = gates @ part.p_failures }

(* --- reports ------------------------------------------------------------ *)

let pp_resources ppf (r : Ev.Chaos.resources) =
  let budget name = Option.map (Printf.sprintf "%s=%d" name) in
  Fmt.string ppf
    (String.concat " "
       (List.filter_map Fun.id
          [
            budget "fd_budget" r.fd_budget;
            budget "backlog_cap" r.backlog_cap;
            budget "send_cap" r.send_cap;
          ]))

(* A fault as its non-clean components, joined with "+"; a load fault
   always names its multiplier. *)
let pp_fault kind ppf f =
  let parts =
    (if kind = Load then [ Fmt.str "at %dx" f.mult ] else [])
    @ (if f.chaos = [] then [] else [ Fmt.str "%a" Ev.Chaos.pp_plan f.chaos ])
    @ (if f.resources = Ev.Chaos.no_resources then []
       else [ Fmt.str "resources %a" pp_resources f.resources ])
    @ if f.kill = [] then [] else [ Fmt.str "%a" Plan.pp f.kill ]
  in
  Fmt.string ppf (String.concat " + " parts)

let pp_tally ppf t =
  Fmt.pf ppf "ok=%d shed=%d late=%d" t.lt_ok t.lt_shed t.lt_late;
  if t.lt_transport > 0 then Fmt.pf ppf " tr=%d" t.lt_transport

let pp_report ppf r =
  let failures =
    Printf.sprintf "%d failure%s" (List.length r.failures)
      (if List.length r.failures = 1 then "" else "s")
  in
  (match r.kind with
  | Kills ->
      Fmt.pf ppf "%-18s target=%a: %d kill points (%d applied), baseline %d \
                  steps, %s"
        r.case Plan.pp_target r.target r.points r.applied r.baseline_steps
        failures
  | Io ->
      let sites =
        List.filter_map
          (fun (op, n) ->
            if n = 0 then None
            else Some (Printf.sprintf "%s=%d" (Ev.Chaos.op_label op) n))
          r.sites
      in
      Fmt.pf ppf
        "%-18s io: sites {%s}, %d fault points, %d kill runs, baseline %d \
         steps, %s"
        r.case (String.concat " " sites) r.points r.kill_runs
        r.baseline_steps failures
  | Load ->
      let curve =
        List.map
          (fun p -> Fmt.str "%dx %a" p.ramp_mult pp_tally p.tally)
          r.ramps
      in
      let qdelay =
        List.fold_left (fun acc p -> max acc p.tally.lt_max_qdelay) 0 r.ramps
      in
      Fmt.pf ppf
        "%-18s load: capacity %d, %s, max qdelay %d, %d kill runs, %d \
         resource ramps, %s"
        r.case r.capacity (String.concat ", " curve) qdelay r.kill_runs
        r.points failures);
  List.iter
    (fun f ->
      Fmt.pf ppf "@.  FAIL %a@.    shrunk to %a@.    %s" (pp_fault r.kind)
        f.fault (pp_fault r.kind) f.shrunk
        (String.concat "\n    " (String.split_on_char '\n' f.reason)))
    r.failures
