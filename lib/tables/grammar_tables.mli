(** The parse tables of both attribute grammars and the principal AG's
    evaluation plan, as plain data generated at build time — the part of
    the compiler Linguist generates once rather than the compiler redoing
    it in every process.  The tables are string literals read in place;
    each carries the fingerprint of the grammar it was generated from, and
    binding checks it ({!Parsing.bind}). *)

val principal : Parsing.tables
(** The principal VHDL AG's LALR(1) tables. *)

val principal_plan : string
(** The principal AG's static evaluation plan
    ({!Analysis.plan_to_string}). *)

val expr : Parsing.tables
(** The expression AG's LALR(1) tables. *)
