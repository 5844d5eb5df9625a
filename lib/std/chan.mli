(** Unbounded FIFO channels, built from MVars exactly as in Concurrent
    Haskell (§4: "using only MVars, many complex datatypes for concurrent
    communication can be built, including typed channels").

    A channel is a linked list of MVar-holes; the read and write ends are
    MVars holding pointers into the list, so concurrent readers and
    concurrent writers each serialize on their own end without blocking
    the other end. All operations are safe in the presence of asynchronous
    exceptions: the end-pointer MVars are restored on interruption. *)

open Hio

type 'a t

val create : unit -> 'a t Io.t

val send : 'a t -> 'a -> unit Io.t
(** Never waits for a reader (the channel is unbounded), only for the
    write end while another sender holds it; interruptible there, unless
    the caller runs under {!Io.uninterruptibly}, which [send] keeps in
    force. *)

val recv : 'a t -> 'a Io.t
(** Waits until a value is available; interruptible while waiting. *)

val try_recv : 'a t -> 'a option Io.t
(** [None] if the channel is currently empty. *)

val send_list : 'a t -> 'a list -> unit Io.t
