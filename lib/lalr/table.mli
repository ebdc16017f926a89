(** LALR(1) parse tables with conflict reporting.

    Conflicts are resolved yacc-style (shift over reduce; earlier production
    for reduce/reduce) and recorded for the grammar author — the paper's
    §4.1 complains about exactly this bookkeeping when uniting
    productions.

    The action and goto tables share one packed representation: a string
    of 16-bit little-endian cells, state-major, one cell per (state,
    symbol).  A terminal's cell holds its parse action, a nonterminal's its
    goto.  The builder writes it, the driver reads it in place, and a
    generator can emit it as an OCaml string literal so a compiled-in table
    costs no start-up time and occupies no heap. *)

type action =
  | Shift of int  (** on a nonterminal: the goto state *)
  | Reduce of int
  | Accept
  | Error

type conflict = {
  c_state : int;
  c_terminal : int;
  c_kind : [ `Shift_reduce of int (* losing production *) | `Reduce_reduce of int * int ];
}

type t = {
  cfg : Cfg.t;
  n_states : int;
  cells : string;  (** [2 * n_states * cfg.n_symbols] bytes *)
  conflicts : conflict list;
}

val build : Cfg.t -> t
(** @raise Invalid_argument if a state or production id does not fit a
    cell (14 bits). *)

val of_cells : Cfg.t -> n_states:int -> string -> t
(** Tables packed earlier by {!build} (their [cells]), for the same
    grammar.  Records no conflicts.
    @raise Invalid_argument if the length does not fit the grammar. *)

val action : t -> int -> int -> action
(** [action t state symbol]. *)

val goto : t -> int -> int -> int
(** [goto t state nonterminal]: the successor state, -1 if none. *)

val expected_terminals : t -> int -> string list
(** Terminal names with a non-error action in a state (error messages). *)

val pp_conflict : t -> Format.formatter -> conflict -> unit
