(** A bounded per-step thread journal: which thread ran at each of the
    last [window] scheduler steps.

    This is the runtime's cheapest form of execution history. Maintaining
    run slices (thread t ran steps [a..b]) online costs a dozen
    loads/stores per context switch, and with many runnable threads a
    round-robin scheduler switches on {e every} step — too expensive for
    an always-affordable recorder (a scheduler step is ~40ns). Instead the
    runtime writes one packed word per step — [(step lsl 22) lor tid] —
    into a power-of-two ring indexed by [step land mask], and readers
    reconstruct slices afterwards. Because step indices are contiguous,
    the journal is a complete record of the last [window] steps; a slot
    whose decoded step does not match the index asked for is stale (an
    older lap, or a stamp the writer skipped) and reads as "no data".

    Thread ids are recorded modulo 2^22; runs are bounded well below
    [max_steps = 5e7 < 2^26] steps so the packed word never overflows. *)

type t

val create : ?window:int -> unit -> t
(** [window] (default 65536) is rounded up to a power of two: the number
    of trailing steps the journal retains. *)

val window : t -> int

val note : t -> step:int -> running:int -> unit
(** Record that thread [running] executed scheduler step [step]. O(1),
    two stores. Steps must be noted in increasing order for [lo]/[read]
    to report a meaningful window. *)

val advance : t -> int -> unit
(** Move the clock to step [n] (if beyond it) without recording a run —
    for stamping events at points where no thread ran, e.g. the
    semantics layer's delivery transitions. *)

val last : t -> int
(** The most recent step observed ([note] or [advance]); 0 initially. *)

val lo : t -> int
(** The oldest step index still inside the retained window. *)

val read : t -> int -> int
(** [read j step] is the tid that ran at [step], or [-1] if the journal
    has no record of it (never noted, or older than the window). *)

val clear : t -> unit

val entries : t -> (int * int) list
(** The retained window as [(step, tid)] pairs in ascending step order —
    for comparing two journals (e.g. two runs of one program under one
    config). *)
