open Hio_types

type event =
  | Ev_fork of { parent : int; child : int; name : string option }
  | Ev_exit of { tid : int; uncaught : exn option }
  | Ev_throw_to of { source : int; target : int; exn : exn }
  | Ev_deliver of { tid : int; exn : exn }
  | Ev_blocked of { tid : int; why : wait_reason; mvar : int option }
  | Ev_wakeup of { tid : int }
  | Ev_mask of { tid : int; masked : bool }
  | Ev_clock of { now : int }

type wait_reason = Hio_types.wait_reason =
  | W_take_mvar
  | W_put_mvar
  | W_sleep
  | W_get_char
  | W_throw_to
  | W_fd_read
  | W_fd_write

let wait_reason_label = Hio_types.wait_reason_label

type fd_event = { fde_fd : int; fde_readable : bool; fde_writable : bool }

(* The pluggable clock-and-readiness substrate (lib/ev provides the
   epoll-backed one). When absent the scheduler is the seed's simulated
   runtime: virtual clock, no fds. When present:
   - idle waits go through [es_wait] with the timer wheel's exact next
     deadline as the timeout, instead of jumping the virtual clock;
   - [es_now] drives [Io.now] (monotonic microseconds);
   - [es_modify] keeps the poller's interest set in sync with the
     [Wait_fd] waiter tables. *)
type event_source = {
  es_now : unit -> int;
  es_modify : fd:int -> read:bool -> write:bool -> unit;
  es_wait : timeout_us:int option -> fd_event list;
}

module Config = struct
  type policy = Round_robin | Random of int

  type t = {
    policy : policy;
    input : string;
    collapse_mask_frames : bool;
    fork_inherits_mask : bool;
    sync_throw_to : bool;
    max_steps : int;
    tracer : (event -> unit) option;
    inject : (step:int -> running:int -> (int * exn) option) option;
    journal : Step_journal.t option;
    event_source : event_source option;
  }

  let default =
    {
      policy = Round_robin;
      input = "";
      collapse_mask_frames = true;
      fork_inherits_mask = true;
      sync_throw_to = false;
      max_steps = 50_000_000;
      tracer = None;
      inject = None;
      journal = None;
      event_source = None;
    }
end

let pp_event ppf = function
  | Ev_fork { parent; child; name } ->
      Fmt.pf ppf "fork t%d -> t%d%a" parent child
        Fmt.(option (fmt " (%s)"))
        name
  | Ev_exit { tid; uncaught = None } -> Fmt.pf ppf "exit t%d" tid
  | Ev_exit { tid; uncaught = Some e } ->
      Fmt.pf ppf "exit t%d (uncaught %s)" tid (Printexc.to_string e)
  | Ev_throw_to { source; target; exn } ->
      Fmt.pf ppf "throwTo t%d -> t%d (%s)" source target
        (Printexc.to_string exn)
  | Ev_deliver { tid; exn } ->
      Fmt.pf ppf "deliver %s at t%d" (Printexc.to_string exn) tid
  | Ev_blocked { tid; why; mvar } ->
      Fmt.pf ppf "t%d blocked on %s%a" tid (wait_reason_label why)
        Fmt.(option (fmt " m%d"))
        mvar
  | Ev_wakeup { tid } -> Fmt.pf ppf "t%d woken" tid
  | Ev_mask { tid; masked } ->
      Fmt.pf ppf "t%d %s" tid (if masked then "masked" else "unmasked")
  | Ev_clock { now } -> Fmt.pf ppf "clock -> %dus" now

let default_log_src = Logs.Src.create "hio.runtime" ~doc:"hio scheduler events"

let logs_tracer ?(src = default_log_src) () event =
  Logs.debug ~src (fun m -> m "%a" pp_event event)

type 'a outcome = Value of 'a | Uncaught of exn | Deadlock | Out_of_steps

type thread_stat = {
  ts_id : int;
  ts_name : string option;
  ts_steps : int;
  ts_blocked : int;
  ts_delivered : int;
}

type blocked_thread = {
  bt_tid : int;
  bt_name : string option;
  bt_why : wait_reason;
  bt_mvar : int option;
  bt_mvar_full : bool option;
  bt_last_taker : int option;
  bt_fd : int option;
}

type 'a result = {
  outcome : 'a outcome;
  output : string;
  steps : int;
  time : int;
  forks : int;
  max_frame_depth : int;
  thread_stats : thread_stat list;
  blocked_at_exit : blocked_thread list;
  injections : int;
}

let pp_thread_stat ppf ts =
  Fmt.pf ppf "t%d%a: steps %d, blocked %d, delivered %d" ts.ts_id
    Fmt.(option (fmt " (%s)"))
    ts.ts_name ts.ts_steps ts.ts_blocked ts.ts_delivered

let pp_blocked_thread ppf bt =
  Fmt.pf ppf "t%d%a blocked on %s" bt.bt_tid
    Fmt.(option (fmt " (%s)"))
    bt.bt_name
    (wait_reason_label bt.bt_why);
  (match bt.bt_fd with None -> () | Some fd -> Fmt.pf ppf " fd %d" fd);
  match bt.bt_mvar with
  | None -> ()
  | Some m ->
      Fmt.pf ppf " m%d [%s%a]" m
        (match bt.bt_mvar_full with
        | Some true -> "full"
        | Some false -> "empty"
        | None -> "?")
        Fmt.(option (fmt ", last held by t%d"))
        bt.bt_last_taker

(* The deadlock watchdog's report: every blocked thread, its reason, and —
   when it waits on an MVar — the box's state, its last holder, and the
   other threads queued on the same box (tid → MVar → holder/waiters). *)
let pp_wait_graph ppf blocked =
  List.iter
    (fun bt ->
      pp_blocked_thread ppf bt;
      (match bt.bt_mvar with
      | None -> ()
      | Some m -> (
          match
            List.filter_map
              (fun o ->
                if o.bt_tid <> bt.bt_tid && o.bt_mvar = Some m then
                  Some o.bt_tid
                else None)
              blocked
          with
          | [] -> ()
          | others ->
              Fmt.pf ppf " (co-waiters:%a)"
                Fmt.(list ~sep:nop (fmt " t%d"))
                others));
      Fmt.pf ppf "@.")
    blocked

(* A timer-wheel payload: either a sleeping thread to wake normally, or
   an armed [Arm_timer] deadline whose token is posted asynchronously. *)
type timer_kind =
  | Tk_sleep of { tm_thread : thread; tm_wake : unit -> packed }
  | Tk_alarm of { al_thread : thread; al_timer : timer_handle }

(* One thread parked in [Wait_fd], queued FIFO per (fd, direction). *)
type fd_waiter = {
  fw_thread : thread;
  fw_wake : unit -> packed;
  mutable fw_cancelled : bool;
}

type state = {
  config : Config.t;
  rng : Random.State.t option;
  mutable now : int;
  runq : thread Runq.t;  (* FIFO ring deque: head runs next *)
  mutable all_threads : thread list;  (* newest first *)
  wheel : timer_kind Timer_wheel.t;  (* all sleep/alarm deadlines *)
  fd_readers : (int, fd_waiter Queue.t) Hashtbl.t;
  fd_writers : (int, fd_waiter Queue.t) Hashtbl.t;
  mutable fd_live : int;  (* live (uncancelled) fd waiters, both tables *)
  mutable next_timer : int;  (* Arm_timer handle ids *)
  mutable input : char list;
  output : Buffer.t;
  mutable steps : int;
  mutable next_tid : int;
  mutable next_mv : int;
  mutable forks : int;
  mutable injections : int;  (* fault-injection hook deliveries applied *)
  mutable finished : bool;  (* main thread done *)
}

let enqueue st t = Runq.push st.runq t

let emit st event =
  match st.config.Config.tracer with Some f -> f event | None -> ()

let bump_depth t k =
  t.t_frame_depth <- t.t_frame_depth + k;
  if t.t_frame_depth > t.t_max_frame_depth then
    t.t_max_frame_depth <- t.t_frame_depth

let set_run t packed = t.t_state <- T_run packed

(* Pop the head of the pending queue and raise it at the thread's current
   evaluation point — rules (Receive)/(Interrupt). *)
let deliver_pending st t frames_of =
  match t.t_pending with
  | [] -> assert false
  | p :: rest ->
      t.t_pending <- rest;
      t.t_delivered <- t.t_delivered + 1;
      emit st (Ev_deliver { tid = t.t_id; exn = p.p_exn });
      (match p.p_on_delivered with Some f -> f () | None -> ());
      frames_of p.p_exn

(* Wake a blocked target by raising the head pending exception into it —
   rule (Interrupt): applies in any masking context, because a blocked
   thread is by definition waiting on an unavailable resource (§5.3). *)
let interrupt_if_blocked st target =
  match (target.t_state, target.t_pending) with
  | T_blocked _, _ :: _ when target.t_mask = Mask_uninterruptible -> ()
  | T_blocked b, _ :: _ ->
      b.b_cancel ();
      let packed = deliver_pending st target (fun e -> b.b_interrupt e) in
      set_run target packed;
      enqueue st target
  | (T_run _ | T_dead _ | T_blocked _), _ -> ()

(* Append [entry] to [target]'s pending queue and apply rule (Interrupt)
   if it is blocked. *)
let post_now st target entry =
  target.t_pending <- target.t_pending @ [ entry ];
  interrupt_if_blocked st target

(* The pending entry an armed timer posts when it fires: raising it marks
   the handle delivered. *)
let timer_token h =
  {
    p_exn = Timer_signal h.th_id;
    p_on_delivered = Some (fun () -> h.th_delivered <- true);
  }

(* --- MVar plumbing ------------------------------------------------------ *)

let rec pop_taker q =
  match Queue.take_opt q with
  | None -> None
  | Some tk -> if tk.tk_cancelled then pop_taker q else Some tk

let rec pop_putter q =
  match Queue.take_opt q with
  | None -> None
  | Some pt -> if pt.pt_cancelled then pop_putter q else Some pt

(* A waiter that would be woken but has a pending asynchronous exception
   receives the exception instead (it is still at an interruptible wait, so
   rule (Interrupt) applies in any masking context). This mirrors GHC: a
   racing throwTo beats the wakeup, so the MVar value is never handed to a
   resumption that an exception is about to discard. *)
let wake_with_pending st thread raise_into =
  let packed = deliver_pending st thread raise_into in
  set_run thread packed;
  enqueue st thread

(* Remove a value from a full MVar; if a putter is waiting, its value fills
   the box in the same atomic step (no barging past the queue). *)
let rec mvar_remove st (m : _ mvar) v_now =
  (match pop_putter m.mv_putters with
  | Some pt
    when pt.pt_thread.t_pending <> []
         && pt.pt_thread.t_mask <> Mask_uninterruptible ->
      wake_with_pending st pt.pt_thread pt.pt_raise;
      ignore (mvar_remove st m v_now)
  | Some pt ->
      m.mv_contents <- Some pt.pt_value;
      emit st (Ev_wakeup { tid = pt.pt_thread.t_id });
      set_run pt.pt_thread (pt.pt_wake ());
      enqueue st pt.pt_thread
  | None -> m.mv_contents <- None);
  v_now

(* Insert into an empty MVar; a waiting taker receives the value directly
   and the box stays empty. *)
let rec mvar_insert st (m : _ mvar) v =
  match pop_taker m.mv_takers with
  | Some tk
    when tk.tk_thread.t_pending <> []
         && tk.tk_thread.t_mask <> Mask_uninterruptible ->
      wake_with_pending st tk.tk_thread tk.tk_raise;
      mvar_insert st m v
  | Some tk ->
      m.mv_last_taker <- Some tk.tk_thread.t_id;
      emit st (Ev_wakeup { tid = tk.tk_thread.t_id });
      set_run tk.tk_thread (tk.tk_wake v);
      enqueue st tk.tk_thread
  | None -> m.mv_contents <- Some v

(* --- fd waiter plumbing -------------------------------------------------- *)

let fd_queue tbl fd =
  match Hashtbl.find_opt tbl fd with
  | Some q -> q
  | None ->
      let q = Queue.create () in
      Hashtbl.add tbl fd q;
      q

let queue_has_live q =
  Queue.fold (fun acc w -> acc || not w.fw_cancelled) false q

(* Keep the poller's interest set in step with the waiter tables: called
   after every registration, cancellation, and wakeup. *)
let update_interest st fd =
  match st.config.Config.event_source with
  | None -> ()
  | Some es ->
      let has tbl =
        match Hashtbl.find_opt tbl fd with
        | Some q -> queue_has_live q
        | None -> false
      in
      es.es_modify ~fd ~read:(has st.fd_readers) ~write:(has st.fd_writers)

(* --- One scheduler step -------------------------------------------------- *)

let exec_prim : type a. state -> thread -> a prim -> a frames -> unit =
 fun st t prim frames ->
  let continue v = set_run t (Pack (Pure v, frames)) in
  let raise_now e = set_run t (Pack (Throw_async e, frames)) in
  (* An interruptible operation about to wait: pending exceptions are
     delivered even inside [block] (§5.3). *)
  let block_interruptibly ?on ?fd ~why ~cancel () =
    if t.t_pending <> [] && t.t_mask <> Mask_uninterruptible then
      set_run t (deliver_pending st t (fun e -> Pack (Throw_async e, frames)))
    else begin
      emit st
        (Ev_blocked
           {
             tid = t.t_id;
             why;
             mvar = (match on with Some (Ex_mvar m) -> Some m.mv_id | None -> None);
           });
      t.t_blocked_count <- t.t_blocked_count + 1;
      t.t_state <-
        T_blocked
          {
            b_why = why;
            b_interrupt = (fun e -> Pack (Throw_async e, frames));
            b_cancel = cancel;
            b_on = on;
            b_fd = fd;
          }
    end
  in
  match prim with
  | Fork (name, body) ->
      let child =
        {
          t_id = st.next_tid;
          t_name = name;
          t_mask = (if st.config.fork_inherits_mask then t.t_mask else Mask_none);
          t_pending = [];
          t_state = T_run (Pack (body, F_stop (fun _ -> ())));
          t_frame_depth = 1;
          t_max_frame_depth = 1;
          t_steps = 0;
          t_blocked_count = 0;
          t_delivered = 0;
        }
      in
      st.next_tid <- st.next_tid + 1;
      st.forks <- st.forks + 1;
      st.all_threads <- child :: st.all_threads;
      enqueue st child;
      emit st
        (Ev_fork { parent = t.t_id; child = child.t_id; name });
      continue child
  | My_tid -> continue t
  | New_mvar contents ->
      let m =
        {
          mv_id = st.next_mv;
          mv_contents = contents;
          mv_takers = Queue.create ();
          mv_putters = Queue.create ();
          mv_last_taker = None;
        }
      in
      st.next_mv <- st.next_mv + 1;
      continue m
  | Take_mvar m -> (
      match m.mv_contents with
      | Some v ->
          m.mv_last_taker <- Some t.t_id;
          continue (mvar_remove st m v)
      | None ->
          let tk =
            {
              tk_thread = t;
              tk_wake = (fun v -> Pack (Pure v, frames));
              tk_raise = (fun e -> Pack (Throw_async e, frames));
              tk_cancelled = false;
            }
          in
          block_interruptibly ~on:(Ex_mvar m) ~why:W_take_mvar
            ~cancel:(fun () -> tk.tk_cancelled <- true)
            ();
          (* Register only if we actually blocked. *)
          (match t.t_state with
          | T_blocked _ -> Queue.add tk m.mv_takers
          | T_run _ | T_dead _ -> ()))
  | Put_mvar (m, v) -> (
      match m.mv_contents with
      | None ->
          mvar_insert st m v;
          continue ()
      | Some _ ->
          let pt =
            {
              pt_thread = t;
              pt_value = v;
              pt_wake = (fun () -> Pack (Pure (), frames));
              pt_raise = (fun e -> Pack (Throw_async e, frames));
              pt_cancelled = false;
            }
          in
          block_interruptibly ~on:(Ex_mvar m) ~why:W_put_mvar
            ~cancel:(fun () -> pt.pt_cancelled <- true)
            ();
          (match t.t_state with
          | T_blocked _ -> Queue.add pt m.mv_putters
          | T_run _ | T_dead _ -> ()))
  | Try_take_mvar m -> (
      match m.mv_contents with
      | Some v ->
          m.mv_last_taker <- Some t.t_id;
          continue (Some (mvar_remove st m v))
      | None -> continue None)
  | Try_put_mvar (m, v) -> (
      match m.mv_contents with
      | None ->
          mvar_insert st m v;
          continue true
      | Some _ -> continue false)
  | Throw_to (target, e) -> (
      match target.t_state with
      | T_dead _ -> continue () (* trivially succeeds (§5) *)
      | T_run _ | T_blocked _ ->
          emit st (Ev_throw_to { source = t.t_id; target = target.t_id; exn = e });
          if st.config.sync_throw_to then
            if target == t then
              (* §9: the synchronous version needs a special case for a
                 thread throwing to itself: raise immediately. *)
              raise_now e
            else begin
              (* Block first, then register, so that an immediate delivery
                 (blocked target) finds the sender already waiting. *)
              let entry = { p_exn = e; p_on_delivered = None } in
              emit st (Ev_blocked { tid = t.t_id; why = W_throw_to; mvar = None });
              t.t_blocked_count <- t.t_blocked_count + 1;
              t.t_state <-
                T_blocked
                  {
                    b_why = W_throw_to;
                    b_interrupt = (fun ex -> Pack (Throw_async ex, frames));
                    b_cancel = (fun () -> entry.p_on_delivered <- None);
                    b_on = None;
                    b_fd = None;
                  };
              let sender = t in
              entry.p_on_delivered <-
                Some
                  (fun () ->
                    match sender.t_state with
                    | T_blocked _ ->
                        emit st (Ev_wakeup { tid = sender.t_id });
                        set_run sender (Pack (Pure (), frames));
                        enqueue st sender
                    | T_run _ | T_dead _ -> ());
              post_now st target entry
            end
          else begin
            (* §8.2: place the exception on the target's pending queue and
               return immediately. *)
            post_now st target { p_exn = e; p_on_delivered = None };
            continue ()
          end)
  | Sleep d ->
      if d <= 0 then continue ()
      else begin
        let entry = ref None in
        block_interruptibly ~why:W_sleep
          ~cancel:(fun () ->
            match !entry with
            | Some e -> Timer_wheel.cancel st.wheel e
            | None -> ())
          ();
        match t.t_state with
        | T_blocked _ ->
            entry :=
              Some
                (Timer_wheel.add st.wheel ~deadline:(st.now + d)
                   (Tk_sleep
                      {
                        tm_thread = t;
                        tm_wake = (fun () -> Pack (Pure (), frames));
                      }))
        | T_run _ | T_dead _ -> ()
      end
  | Arm_timer d ->
      let h =
        { th_id = st.next_timer; th_cancel = ignore; th_delivered = false }
      in
      st.next_timer <- st.next_timer + 1;
      if d <= 0 then
        (* an expired deadline: the token is pending before the thread
           takes another interruptible step, exactly as if the wheel had
           fired at this instant *)
        t.t_pending <- t.t_pending @ [ timer_token h ]
      else begin
        let entry =
          Timer_wheel.add st.wheel ~deadline:(st.now + d)
            (Tk_alarm { al_thread = t; al_timer = h })
        in
        h.th_cancel <- (fun () -> Timer_wheel.cancel st.wheel entry)
      end;
      continue h
  | Cancel_timer h ->
      h.th_cancel ();
      (* purge an already-fired-but-undelivered token: cancellation means
         "this deadline may no longer be observed", even if the wheel beat
         us to the pending queue *)
      t.t_pending <-
        List.filter
          (fun p ->
            match p.p_exn with
            | Timer_signal id -> id <> h.th_id
            | _ -> true)
          t.t_pending;
      continue ()
  | Wait_fd (fd, dir) ->
      let w =
        {
          fw_thread = t;
          fw_wake = (fun () -> Pack (Pure (), frames));
          fw_cancelled = false;
        }
      in
      let why, tbl =
        match dir with
        | Fd_read -> (W_fd_read, st.fd_readers)
        | Fd_write -> (W_fd_write, st.fd_writers)
      in
      block_interruptibly ~why ~fd
        ~cancel:(fun () ->
          if not w.fw_cancelled then begin
            w.fw_cancelled <- true;
            st.fd_live <- st.fd_live - 1;
            update_interest st fd
          end)
        ();
      (match t.t_state with
      | T_blocked _ ->
          Queue.add w (fd_queue tbl fd);
          st.fd_live <- st.fd_live + 1;
          update_interest st fd
      | T_run _ | T_dead _ -> ())
  | Yield -> continue ()
  | Now -> continue st.now
  | Put_char c ->
      Buffer.add_char st.output c;
      continue ()
  | Put_string s ->
      Buffer.add_string st.output s;
      continue ()
  | Get_char -> (
      match st.input with
      | c :: rest ->
          st.input <- rest;
          continue c
      | [] -> block_interruptibly ~why:W_get_char ~cancel:(fun () -> ()) ())
  | Lift f -> continue (f ())
  | Masked -> continue (t.t_mask <> Mask_none)
  | Mask_state -> continue t.t_mask
  | Steps -> continue st.steps
  | Status_of u ->
      continue
        (match u.t_state with
        | T_run _ -> Status_running
        | T_blocked b -> Status_blocked b.b_why
        | T_dead _ -> Status_dead)
  | Frame_depth -> continue t.t_frame_depth

let enter_mask st t new_mask body frames =
  if t.t_mask = new_mask then set_run t (Pack (body, frames))
  else begin
    let old_mask = t.t_mask in
    t.t_mask <- new_mask;
    emit st (Ev_mask { tid = t.t_id; masked = new_mask <> Mask_none });
    match frames with
    | F_mask (b, rest) when st.config.Config.collapse_mask_frames && b = new_mask ->
        (* §8.1: the frame on top would restore exactly the state we just
           set — remove it instead of pushing its cancelling twin, so
           patterns like [let rec f = block (unblock f)] run in constant
           stack space. *)
        bump_depth t (-1);
        set_run t (Pack (body, rest))
    | _ ->
        bump_depth t 1;
        set_run t (Pack (body, F_mask (old_mask, frames)))
  end

let exec_step : state -> thread -> packed -> unit =
 fun st t (Pack (io, frames)) ->
  match io with
  | Pure v -> (
      match frames with
      | F_stop sink ->
          t.t_state <- T_dead None;
          emit st (Ev_exit { tid = t.t_id; uncaught = None });
          sink (Ok v)
      | F_bind (k, rest) ->
          bump_depth t (-1);
          set_run t (Pack (k v, rest))
      | F_catch (_, _, rest) | F_catch_sync (_, _, rest) ->
          (* rule (Handle) *)
          bump_depth t (-1);
          set_run t (Pack (Pure v, rest))
      | F_mask (b, rest) ->
          (* rules (Block Return)/(Unblock Return) *)
          bump_depth t (-1);
          if t.t_mask <> b then
            emit st (Ev_mask { tid = t.t_id; masked = b <> Mask_none });
          t.t_mask <- b;
          set_run t (Pack (Pure v, rest)))
  | Throw e -> (
      match frames with
      | F_stop sink ->
          t.t_state <- T_dead (Some e);
          emit st (Ev_exit { tid = t.t_id; uncaught = Some e });
          sink (Error e)
      | F_bind (_, rest) ->
          (* rule (Propagate) *)
          bump_depth t (-1);
          set_run t (Pack (Throw e, rest))
      | F_catch (h, saved_mask, rest) | F_catch_sync (h, saved_mask, rest) ->
          (* rule (Catch): the handler runs with the mask state saved when
             the catch frame was pushed (§8.1) *)
          bump_depth t (-1);
          if t.t_mask <> saved_mask then
            emit st (Ev_mask { tid = t.t_id; masked = saved_mask <> Mask_none });
          t.t_mask <- saved_mask;
          set_run t (Pack (h e, rest))
      | F_mask (b, rest) ->
          (* rules (Block Throw)/(Unblock Throw) *)
          bump_depth t (-1);
          if t.t_mask <> b then
            emit st (Ev_mask { tid = t.t_id; masked = b <> Mask_none });
          t.t_mask <- b;
          set_run t (Pack (Throw e, rest)))
  | Throw_async e -> (
      (* an asynchronously delivered exception: the §9 "alerts" reading —
         plain [Catch] intercepts it, [Catch_sync] does not *)
      match frames with
      | F_stop sink ->
          t.t_state <- T_dead (Some e);
          emit st (Ev_exit { tid = t.t_id; uncaught = Some e });
          sink (Error e)
      | F_bind (_, rest) ->
          bump_depth t (-1);
          set_run t (Pack (Throw_async e, rest))
      | F_catch (h, saved_mask, rest) ->
          bump_depth t (-1);
          if t.t_mask <> saved_mask then
            emit st (Ev_mask { tid = t.t_id; masked = saved_mask <> Mask_none });
          t.t_mask <- saved_mask;
          set_run t (Pack (h e, rest))
      | F_catch_sync (_, _, rest) ->
          (* alerts pass through synchronous-only handlers *)
          bump_depth t (-1);
          set_run t (Pack (Throw_async e, rest))
      | F_mask (b, rest) ->
          bump_depth t (-1);
          if t.t_mask <> b then
            emit st (Ev_mask { tid = t.t_id; masked = b <> Mask_none });
          t.t_mask <- b;
          set_run t (Pack (Throw_async e, rest)))
  | Bind (m, k) ->
      bump_depth t 1;
      set_run t (Pack (m, F_bind (k, frames)))
  | Catch (m, h) ->
      bump_depth t 1;
      set_run t (Pack (m, F_catch (h, t.t_mask, frames)))
  | Catch_sync (m, h) ->
      bump_depth t 1;
      set_run t (Pack (m, F_catch_sync (h, t.t_mask, frames)))
  | Mask (level, m) -> enter_mask st t level m frames
  | Mask_restore f ->
      let saved = t.t_mask in
      let level =
        match saved with
        | Mask_uninterruptible -> Mask_uninterruptible
        | Mask_none | Mask_block -> Mask_block
      in
      enter_mask st t level (f (fun m -> Mask (saved, m))) frames
  | Prim p -> exec_prim st t p frames

(* The fault-injection hook: consulted once per scheduler step (before the
   step executes) with the global step index and the thread about to run.
   Returning [Some (tid, e)] posts [e] on thread [tid]'s pending queue at
   exactly this step boundary — as if a [throw_to] from outside the program
   had landed here — so a sweep can place a kill at every program point. *)
let apply_injection st t =
  match st.config.Config.inject with
  | None -> ()
  | Some hook -> (
      match hook ~step:st.steps ~running:t.t_id with
      | None -> ()
      | Some (tid, e) -> (
          match
            List.find_opt (fun u -> u.t_id = tid) st.all_threads
          with
          | None -> ()
          | Some target -> (
              match target.t_state with
              | T_dead _ -> ()
              | T_run _ | T_blocked _ ->
                  st.injections <- st.injections + 1;
                  post_now st target { p_exn = e; p_on_delivered = None })))

(* Run one scheduling slice of [t]: the step-boundary delivery check of
   §8.1 ("at regular intervals during execution inside unblock, the pending
   exceptions queue must be checked"), then one step. *)
let run_slice st t =
  match t.t_state with
  | T_blocked _ | T_dead _ -> () (* stale queue entry *)
  | T_run packed ->
      (match st.config.Config.journal with
      | None -> ()
      | Some j -> Step_journal.note j ~step:st.steps ~running:t.t_id);
      apply_injection st t;
      let packed =
        if t.t_mask = Mask_none && t.t_pending <> [] then
          deliver_pending st t (fun e ->
              let (Pack (_, frames)) = packed in
              Pack (Throw_async e, frames))
        else packed
      in
      st.steps <- st.steps + 1;
      t.t_steps <- t.t_steps + 1;
      exec_step st t packed;
      (match t.t_state with
      | T_run _ -> enqueue st t
      | T_blocked _ | T_dead _ -> ())

(* Dequeue the next thread; the queue is known non-empty. Round-robin pops
   the head in O(1); the random policy draws a uniform index (O(1) length,
   no List.length walk) and removes it preserving the order of the rest,
   so the picked sequence for a given seed is exactly the seed runtime's. *)
let pick_nonempty st =
  match st.rng with
  | None -> Runq.pop st.runq
  | Some rng -> Runq.remove st.runq (Random.State.int rng (Runq.length st.runq))

(* One fired wheel entry: a sleeper wakes normally; an armed alarm posts
   its token to the arming thread (rule (Interrupt) if it is blocked). *)
let fire_timer st = function
  | Tk_sleep { tm_thread; tm_wake } ->
      emit st (Ev_wakeup { tid = tm_thread.t_id });
      set_run tm_thread (tm_wake ());
      enqueue st tm_thread
  | Tk_alarm { al_thread; al_timer } -> (
      match al_thread.t_state with
      | T_dead _ -> ()
      | T_run _ | T_blocked _ -> post_now st al_thread (timer_token al_timer))

(* Advance the virtual clock to the earliest live deadline and wake every
   timer due at that instant. Returns false if no timer is pending. The
   wheel reproduces the seed's wake order (same-deadline cohorts in
   reverse insertion order), so the golden traces are unchanged. *)
let advance_clock st =
  match Timer_wheel.next_deadline st.wheel with
  | None -> false
  | Some earliest ->
      st.now <- max st.now earliest;
      emit st (Ev_clock { now = st.now });
      let fired = Timer_wheel.advance st.wheel ~now:st.now in
      List.iter (fire_timer st) fired;
      true

(* Readiness arrived for [fd]: wake every live waiter in FIFO order
   (level-triggered — a waiter that still cannot make progress re-arms). *)
let wake_fd_waiters st tbl fd =
  match Hashtbl.find_opt tbl fd with
  | None -> ()
  | Some q ->
      let woke = ref false in
      while not (Queue.is_empty q) do
        let w = Queue.pop q in
        if not w.fw_cancelled then begin
          st.fd_live <- st.fd_live - 1;
          woke := true;
          emit st (Ev_wakeup { tid = w.fw_thread.t_id });
          set_run w.fw_thread (w.fw_wake ());
          enqueue st w.fw_thread
        end
      done;
      if !woke then update_interest st fd

(* One pass over the event source: collect readiness (blocking until the
   wheel's next deadline when [blocking]), refresh the monotonic clock,
   and fire whatever became due. *)
let poll_event_source st es ~blocking =
  let timeout_us =
    if not blocking then Some 0
    else
      match Timer_wheel.next_deadline st.wheel with
      | Some nd -> Some (max 0 (nd - st.now))
      | None -> None
  in
  let evs = es.es_wait ~timeout_us in
  st.now <- max st.now (es.es_now ());
  List.iter
    (fun { fde_fd; fde_readable; fde_writable } ->
      if fde_readable then wake_fd_waiters st st.fd_readers fde_fd;
      if fde_writable then wake_fd_waiters st st.fd_writers fde_fd)
    evs;
  match Timer_wheel.advance st.wheel ~now:st.now with
  | [] -> ()
  | fired ->
      emit st (Ev_clock { now = st.now });
      List.iter (fire_timer st) fired

(* --- the run ------------------------------------------------------------- *)

let make_state config =
  let start_now =
    match config.Config.event_source with None -> 0 | Some es -> es.es_now ()
  in
  {
    config;
    rng =
      (match config.Config.policy with
      | Config.Round_robin -> None
      | Config.Random seed -> Some (Random.State.make [| seed |]));
    now = start_now;
    runq = Runq.create ();
    all_threads = [];
    wheel = Timer_wheel.create ~start:start_now ();
    fd_readers = Hashtbl.create 16;
    fd_writers = Hashtbl.create 16;
    fd_live = 0;
    next_timer = 0;
    input =
      List.init (String.length config.Config.input)
        (String.get config.Config.input);
    output = Buffer.create 64;
    steps = 0;
    next_tid = 1;
    next_mv = 0;
    forks = 1;
    injections = 0;
    finished = false;
  }

let make_main st main_io result =
  let main_thread =
    {
      t_id = 0;
      t_name = Some "main";
      t_mask = Mask_none;
      t_pending = [];
      t_state =
        T_run
          (Pack
             ( main_io,
               F_stop
                 (fun r ->
                   result := Some r;
                   st.finished <- true) ));
      t_frame_depth = 1;
      t_max_frame_depth = 1;
      t_steps = 0;
      t_blocked_count = 0;
      t_delivered = 0;
    }
  in
  st.all_threads <- [ main_thread ];
  main_thread

(* The scheduling loop: run slices until main finishes, the step budget
   runs out, or no thread is runnable and no timer or fd can wake one. *)
let main_loop st config result =
  let outcome = ref Out_of_steps in
  let running = ref true in
  while !running do
    if st.finished then begin
      running := false;
      outcome :=
        (match !result with
        | Some (Ok v) -> Value v
        | Some (Error e) -> Uncaught e
        | None -> assert false)
    end
    else if st.steps >= config.Config.max_steps then begin
      running := false;
      outcome := Out_of_steps
    end
    else if not (Runq.is_empty st.runq) then begin
      run_slice st (pick_nonempty st);
      (* Under a real event source a busy scheduler must still notice
         readiness and due deadlines: a cheap non-blocking poll every
         1024 steps. Absent (the simulated runtime), this is free. *)
      match st.config.Config.event_source with
      | Some es when st.steps land 1023 = 0 ->
          poll_event_source st es ~blocking:false
      | Some _ | None -> ()
    end
    else begin
      match st.config.Config.event_source with
      | None ->
          if not (advance_clock st) then begin
            running := false;
            outcome := Deadlock
          end
      | Some es ->
          if st.fd_live = 0 && Timer_wheel.live st.wheel = 0 then begin
            running := false;
            outcome := Deadlock
          end
          else poll_event_source st es ~blocking:true
    end
  done;
  !outcome

let finish st outcome =
  {
    outcome;
    output = Buffer.contents st.output;
    steps = st.steps;
    time = st.now;
    forks = st.forks;
    max_frame_depth =
      List.fold_left
        (fun acc t -> max acc t.t_max_frame_depth)
        0 st.all_threads;
    thread_stats =
      (* all_threads is newest-first; report in ascending thread id *)
      List.rev_map
        (fun t ->
          {
            ts_id = t.t_id;
            ts_name = t.t_name;
            ts_steps = t.t_steps;
            ts_blocked = t.t_blocked_count;
            ts_delivered = t.t_delivered;
          })
        st.all_threads;
    blocked_at_exit =
      (* the watchdog's wait graph: threads still blocked when the
         scheduler stopped, in ascending thread id. Under the [Deadlock]
         outcome this is every live thread (no one runnable, no timer
         pending); under the other outcomes it lists the threads a
         finished main left stranded. *)
      List.rev
        (List.filter_map
           (fun t ->
             match t.t_state with
             | T_run _ | T_dead _ -> None
             | T_blocked b ->
                 let mvar, full, last =
                   match b.b_on with
                   | None -> (None, None, None)
                   | Some (Ex_mvar m) ->
                       ( Some m.mv_id,
                         Some (m.mv_contents <> None),
                         m.mv_last_taker )
                 in
                 Some
                   {
                     bt_tid = t.t_id;
                     bt_name = t.t_name;
                     bt_why = b.b_why;
                     bt_mvar = mvar;
                     bt_mvar_full = full;
                     bt_last_taker = last;
                     bt_fd = b.b_fd;
                   })
           st.all_threads);
    injections = st.injections;
  }

let run ?(config = Config.default) main_io =
  let result = ref None in
  let st = make_state config in
  enqueue st (make_main st main_io result);
  finish st (main_loop st config result)

let run_value ?config io =
  match (run ?config io).outcome with
  | Value v -> v
  | Uncaught e -> raise e
  | Deadlock -> failwith "hio: deadlock"
  | Out_of_steps -> failwith "hio: out of steps"

let pp_outcome pp_value ppf = function
  | Value v -> Fmt.pf ppf "Value %a" pp_value v
  | Uncaught e -> Fmt.pf ppf "Uncaught %s" (Printexc.to_string e)
  | Deadlock -> Fmt.string ppf "Deadlock"
  | Out_of_steps -> Fmt.string ppf "Out_of_steps"
