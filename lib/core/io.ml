open Hio_types

type 'a t = 'a Hio_types.io
type thread_id = Hio_types.thread

exception Kill_thread
exception Timeout
exception Thread_not_found
exception Timer_signal = Hio_types.Timer_signal

let return v = Pure v
let bind m k = Bind (m, k)
let map f m = Bind (m, fun v -> Pure (f v))
let ( >>= ) = bind
let ( >> ) a b = Bind (a, fun _ -> b)

module Syntax = struct
  let ( let* ) = bind
  let ( let+ ) m f = map f m
  let ( and+ ) a b = Bind (a, fun x -> Bind (b, fun y -> Pure (x, y)))
end

let ignore_result m = Bind (m, fun _ -> Pure ())
let throw e = Throw e
let catch m h = Catch (m, h)
let catch_sync m h = Catch_sync (m, h)
let throw_to t e = Prim (Throw_to (t, e))
let block m = Mask (Mask_block, m)
let unblock m = Mask (Mask_none, m)
let uninterruptibly m = Mask (Mask_uninterruptible, m)

let mask f = Mask_restore f
let mask_ m = Mask_restore (fun _restore -> m)
let blocked = Prim Masked

type mask_level = Unmasked | Masked | Uninterruptible

let mask_level =
  Bind
    ( Prim Mask_state,
      fun l ->
        Pure
          (match l with
          | Mask_none -> Unmasked
          | Mask_block -> Masked
          | Mask_uninterruptible -> Uninterruptible) )
let fork ?name body = Prim (Fork (name, body))
let my_thread_id = Prim My_tid
let same_thread (a : thread_id) b = a.t_id = b.t_id
let thread_name (t : thread_id) = t.t_name

type wait_reason = Hio_types.wait_reason =
  | W_take_mvar
  | W_put_mvar
  | W_sleep
  | W_get_char
  | W_throw_to
  | W_fd_read
  | W_fd_write

let wait_reason_label = Hio_types.wait_reason_label

type thread_status = Running | Blocked_on of wait_reason | Dead

let thread_status t =
  Bind
    ( Prim (Status_of t),
      fun s ->
        Pure
          (match s with
          | Status_running -> Running
          | Status_blocked why -> Blocked_on why
          | Status_dead -> Dead) )

let sleep d = Prim (Sleep d)

type timer = Hio_types.timer_handle

let arm_timer d = Prim (Arm_timer d)
let cancel_timer h = Prim (Cancel_timer h)
let timer_id (h : timer) = h.th_id
let timer_delivered (h : timer) = h.th_delivered

let is_timer_signal (h : timer) = function
  | Timer_signal id -> id = h.th_id
  | _ -> false

let wait_readable fd = Prim (Wait_fd (fd, Fd_read))
let wait_writable fd = Prim (Wait_fd (fd, Fd_write))
let yield = Prim Yield
let now = Prim Now
let steps = Prim Steps
let put_char c = Prim (Put_char c)
let put_string s = Prim (Put_string s)
let get_char = Prim Get_char
let lift f = Prim (Lift f)
let frame_depth = Prim Frame_depth
