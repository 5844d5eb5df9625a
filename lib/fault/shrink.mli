(** Greedy shrinking: reduce a failing fault to a (locally) minimal one
    that still fails, for readable counterexamples. *)

val earlier : int -> int list
(** Where a shrink step moves a fault placed at [n]: step or site [0],
    [n / 2] and [n - 1], ascending and without repeats; none from [0]. *)

val candidates : Plan.t -> Plan.t list
(** One-step reductions of a kill plan: drop one injection, or move one
    injection to an {!earlier} step. *)

val greedy : ('a -> 'a list) -> ('a -> bool) -> 'a -> 'a
(** [greedy candidates fails x] repeatedly replaces [x] with the first
    of its [candidates] for which [fails] still holds, until none does.
    Each probe is a full re-run, so the caller bounds cost by what it
    shrinks (the sweep only ever shrinks single-fault points). If
    [fails x] is false, [x] is returned unchanged. *)

val minimize : (Plan.t -> bool) -> Plan.t -> Plan.t
(** [greedy candidates]: shrink a kill plan. *)
