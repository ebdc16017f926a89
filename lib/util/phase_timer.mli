(** Per-phase wall-clock and allocation accounting, for the paper's §2.2
    phase-breakdown experiment (PERF-PHASE).

    Built on the telemetry span layer: every timed frame is also recorded
    as a telemetry span (category ["phase"]) from the same clock reads, and
    nested frames charge only their self time, so the phase table sums to
    wall clock and cannot disagree with the span tree. *)

type cost = { seconds : float; words : float }
(** A phase's self cost: wall-clock seconds and allocated words (minor +
    direct-major, promotions excluded), both net of nested frames. *)

type t

val create : unit -> t

val time : t -> string -> (unit -> 'a) -> 'a
(** Run a thunk, charging its self cost (total minus nested frames) to the
    named phase, and making [t] the ambient timer for the thunk's dynamic
    extent.  Re-entrant uses accumulate. *)

val time_ambient : string -> (unit -> 'a) -> 'a
(** Run a thunk as a nested frame of the ambient timer — whichever timer's
    {!time} is dynamically enclosing.  Layers that cannot see the compiler
    (the expression cascade, the VIF library) use this to charge their own
    phase.  Outside any {!time} extent with tracing off, a plain call. *)

val total : t -> cost
(** The summed self cost of all phases. *)

val report : t -> (string * cost) list
(** Phases in order of first use with their accumulated self cost.  The
    same child-subtraction applies to both axes, so the table sums to
    the run's wall clock and to its allocation delta.  Each phase's
    self-allocation is also published as the [phase.alloc_b.<name>]
    telemetry counter, in bytes. *)

val pp : Format.formatter -> t -> unit
