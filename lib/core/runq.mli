(** The scheduler's run queue: a growable ring deque with O(1) push and
    pop, replacing the seed's [thread list] whose tail-append made every
    enqueue O(n) — quadratic once thousands of threads are runnable.

    Exact round-robin FIFO order is preserved: [pop] returns elements in
    push order. For the seeded-random policy, [remove] deletes the i-th
    oldest element {e preserving the order of the rest} (shifting from
    the nearer end), so a run under [Random seed] picks exactly the same
    thread sequence as the seed runtime's order-preserving [List.filteri]
    did — determinism for a fixed seed is unchanged, with [length] O(1)
    instead of a [List.length] walk per step. *)

type 'a t

val create : unit -> 'a t
(** An empty queue. No backing store is allocated until the first
    {!push}. *)

val length : 'a t -> int
(** O(1). *)

val is_empty : 'a t -> bool

val push : 'a t -> 'a -> unit
(** Append at the tail. Amortised O(1); the ring doubles when full. *)

val pop : 'a t -> 'a
(** Remove and return the head (oldest element). O(1).
    @raise Invalid_argument when empty — guard with {!is_empty}. *)

val remove : 'a t -> int -> 'a
(** [remove q i] removes and returns the i-th oldest element (0 is the
    head), keeping the remaining elements in order. O(min(i, n-i)).
    @raise Invalid_argument when [i] is out of bounds. *)

val to_list : 'a t -> 'a list
(** Head-first snapshot, for tests and debugging. O(n). *)
