(** Unified telemetry: a process-wide registry of counters, gauges and
    histograms, plus span-based structured tracing with Chrome trace-event
    export.

    This interface is the locked public surface.  The span frame stack,
    the bounded-capture state behind {!with_request_spans}, and the
    allocation-snapshot bookkeeping are implementation details — code
    outside this module observes them only through the functions below. *)

val now_s : unit -> float
(** Monotonic wall time in seconds since the first read — the one clock
    every timing consumer (spans, phase tables, [vhdlc bench] sessions)
    shares. *)

(** Minimal JSON construction (no external dependency). *)
module Json : sig
  val escape : string -> string
  val str : string -> string
  val int : int -> string

  val float : float -> string
  (** NaN prints as [null]; integral values print without a fraction. *)

  val arr : string list -> string
  val obj : (string * string) list -> string
end

(** {1 Instruments} *)

type counter = {
  c_name : string;
  mutable c_value : int;
}

type gauge = {
  g_name : string;
  mutable g_value : float;
}

val histogram_buckets : int
(** Power-of-two bucket count (64): bucket 0 holds values < 1, bucket i
    holds [2^(i-1), 2^i). *)

type histogram = {
  h_name : string;
  mutable h_count : int;
  mutable h_sum : float;
  mutable h_min : float;
  mutable h_max : float;
  h_bucket : int array;
}

type instrument =
  | Counter of counter
  | Gauge of gauge
  | Histogram of histogram

val counter : string -> counter
(** The process-wide counter of that dotted name, created on first use;
    registration is idempotent, so every call site shares one cell. *)

val gauge : string -> gauge
val histogram : string -> histogram

val incr : counter -> unit
val add : counter -> int -> unit
val value : counter -> int
val set : gauge -> float -> unit
val gauge_value : gauge -> float

val bucket_of : float -> int
val observe : histogram -> float -> unit

val bucket_percentile :
  int array -> count:int -> min_v:float -> max_v:float -> float -> float
(** [bucket_percentile buckets ~count ~min_v ~max_v p]: approximate
    quantile [p] over a power-of-two bucket array (laid out as
    {!histogram_buckets}) holding [count] observations, clamped to the
    observed [[min_v, max_v]] — exact to within a factor of two.  The one
    bucket walk behind {!percentile} and merged windows. *)

val percentile : histogram -> float -> float
(** {!bucket_percentile} over one histogram. *)

val counter_value : string -> int
(** Current value of a counter by name, 0 if never registered. *)

val sample_gc : unit -> unit
(** Refresh the [gc.*] gauges from [Gc.quick_stat] — collection counts,
    live/peak heap words, total allocated words. *)

(** {1 Allocation accounting} *)

val bytes_per_word : int

val minor_words_now : unit -> float
(** Allocation-free snapshot of minor-heap words allocated so far
    ([Gc.minor_words]) — the per-span / per-rule mechanism. *)

val allocated_words_now : unit -> float
(** Total words allocated so far (minor + direct-major, promotions
    excluded), from [Gc.counters]; itself allocates a few words, so it
    is for coarse boundaries (phases, requests, bench repetitions). *)

(** {1 Spans} *)

(** One completed span.  Timestamps are seconds since process start;
    depth is the nesting level at open time (root = 0); [sp_alloc_w] is
    the words allocated while the span was open, children included. *)
type span = {
  sp_name : string;
  sp_cat : string;
  sp_start : float;
  sp_dur : float;
  sp_depth : int;
  sp_alloc_w : float;
  sp_args : (string * string) list;
}

val set_tracing : bool -> unit
val tracing : unit -> bool

val record_span :
  ?cat:string ->
  ?args:(string * string) list ->
  ?depth:int ->
  ?alloc_w:float ->
  name:string ->
  start_s:float ->
  dur_s:float ->
  unit ->
  unit
(** Record a completed span measured by the caller (how {!Vhdl_util.Phase_timer}
    keeps phase accounting and the span tree on the same clock reads).
    No-op when tracing is off. *)

val with_span :
  ?cat:string -> ?args:(string * string) list -> string -> (unit -> 'a) -> 'a
(** Run [f] inside a span — a single flag test when tracing is off.  The
    span closes even when [f] escapes.  Allocation is snapshotted
    allocation-free around [f], so a span whose body allocates nothing
    reports [sp_alloc_w = 0.0] exactly. *)

val annotate : string -> string -> unit
(** Attach a key/value argument to the innermost open span. *)

val spans : unit -> span list
(** Completed spans, oldest first. *)

val clear_spans : unit -> unit

val with_request_spans : ?cap:int -> (unit -> 'a) -> 'a * span list * int
(** Run [f] with tracing forced on and its spans captured into a bounded
    buffer: [(result, spans, dropped)], oldest-first, [dropped] counting
    completions past [cap].  When tracing was off on entry the global
    accumulator is restored on exit. *)

(** {1 Registry-wide operations} *)

val reset : unit -> unit
(** Zero every registered instrument and drop recorded spans; the
    tracing flag is left alone. *)

val snapshot : unit -> (string * int) list
(** Current value of every registered counter, for {!delta}. *)

val delta : (string * int) list -> (string * int) list
(** Counters that moved since [snapshot], in name order. *)

val instruments : unit -> (string * instrument) list
(** Every registered instrument, in name order. *)

val pp_metrics : ?nonzero:bool -> Format.formatter -> unit -> unit
val metrics_json : unit -> string

val to_chrome_trace : ?process_name:string -> ?spans:span list -> unit -> string
(** Chrome trace-event JSON of the recorded spans ([spans] overrides the
    process-global recording). *)
