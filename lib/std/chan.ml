open Hio
open Io

(* The classic Concurrent Haskell channel: a stream of items terminated by
   an empty hole; [read] and [write] point at the first full cell and the
   hole respectively. *)
type 'a item = Item of 'a * 'a stream
and 'a stream = 'a item Mvar.t

type 'a t = { read : 'a stream Mvar.t; write : 'a stream Mvar.t }

let create () =
  Mvar.new_empty >>= fun hole ->
  Mvar.new_filled hole >>= fun read ->
  Mvar.new_filled hole >>= fun write -> return { read; write }

(* [mask_], not [block]: a caller that must not lose its message (a
   supervised child's exit notice) sends under [uninterruptibly], and
   [block] would downgrade that to an interruptible wait at the contended
   [take c.write]. *)
let send c v =
  mask_
    ( Mvar.new_empty >>= fun new_hole ->
      Mvar.take c.write >>= fun old_hole ->
      Mvar.put old_hole (Item (v, new_hole)) >>= fun () ->
      Mvar.put c.write new_hole )

(* No [unblock] around the inner take: under [block] a waiting take is
   already interruptible (§5.3), and wrapping it in [unblock] opens a
   window AFTER the item has been transferred but before the mask is
   restored — a kill landing there makes the handler put back a cursor
   whose item is gone, losing it. The [catch] only ever fires while the
   take is still waiting, when restoring [c.read] is correct. *)
let recv c =
  block
    ( Mvar.take c.read >>= fun stream ->
      catch
        (Mvar.take stream)
        (fun e -> Mvar.put c.read stream >>= fun () -> throw e)
      >>= fun (Item (v, rest)) ->
      Mvar.put c.read rest >>= fun () -> return v )

let try_recv c =
  block
    ( Mvar.take c.read >>= fun stream ->
      Mvar.try_take stream >>= function
      | Some (Item (v, rest)) ->
          Mvar.put c.read rest >>= fun () -> return (Some v)
      | None -> Mvar.put c.read stream >>= fun () -> return None )

let rec send_list c = function
  | [] -> return ()
  | v :: rest -> send c v >>= fun () -> send_list c rest
