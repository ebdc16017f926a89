(** [exprEval] — the cascade point between the two AGs (paper §4.1): a
    parser and attribute evaluator generated from the expression AG, fed by
    the trivial scanner that "takes the next LEF token off the front of the
    list". *)

val grammar : unit -> Pval.t Grammar.t
(** The expression attribute grammar (built once, lazily). *)

val parser_ : unit -> Pval.t Parsing.t
(** Its parser, over the tables generated at build time. *)

type t = {
  grammar : Pval.t Grammar.t;
  parser_ : Pval.t Parsing.t;
}

val load : unit -> t
(** Build the grammar and bind its generated tables afresh; [grammar] and
    [parser_] share one [load].
    @raise Parsing.Stale_tables if the tables are not the grammar's. *)

(** Instrumentation goes through the process-wide telemetry registry
    ([cascade.*] counters) and the ambient phase timer ("expression
    evaluation (cascade)" frames), not module-local mutable state. *)

(** Every call parses its token list afresh: there is no process-global
    cache.  Copy elision in the expression AG follows the ambient
    session's [copy_elide] ({!Session.copy_elide}), so the differential
    oracle's reference side runs it with elision off. *)

val eval :
  ?expected:Types.t -> level:int -> line:int -> Lef.tok list -> Pval.xres
(** Evaluate one maximal expression.  [expected] is the type required by
    context; [level] the subprogram nesting level of the occurrence (both
    are arguments of the paper's [exprEval]). *)

val eval_range :
  level:int ->
  line:int ->
  Lef.tok list ->
  (Kir.expr * Types.dir * Kir.expr) * Types.t option * Diag.t list
(** Evaluate a discrete range (attribute ranges included).  An empty token
    list yields a "missing range" diagnostic, mirroring [eval]'s
    missing-expression guard. *)
