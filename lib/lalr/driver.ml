(** Table-driven LALR(1) parser.

    The driver is agnostic to what it builds: [shift] turns a token into a
    semantic node, [reduce] combines children.  The AG layer instantiates
    these with {!Vhdl_ag_engine.Tree} constructors, so the same driver parses
    both VHDL source (fed by the file scanner) and LEF token lists (fed by
    the trivial list scanner of the cascaded expression evaluator — the
    paper's [scanner(){ X = car(L); L = cdr(L); return X; }]).

    Two entry points share the automaton loop: {!parse} stops at the first
    error (the cascade's LEF re-parse wants that — a malformed expression is
    a single diagnostic), while {!parse_recovering} performs phrase-level
    panic-mode recovery so one source file yields all of its syntax errors
    in a single run and the well-formed design units survive. *)

type 'v token = {
  t_sym : int;
  t_value : 'v;
  t_line : int;
}

module Tm = Vhdl_telemetry.Telemetry

let m_shifts = Tm.counter "lalr.shifts"
let m_reduces = Tm.counter "lalr.reduces"
let m_errors = Tm.counter "lalr.errors"
let m_resyncs = Tm.counter "lalr.resyncs"
let m_skipped = Tm.counter "lalr.tokens_skipped"
let m_conflict_hits = Tm.counter "lalr.conflict_hits"

(* Runtime conflict accounting: when the table was built with yacc-style
   resolution, count each consultation of a cell that had a conflict.  The
   common conflict-free table pays one list test per parse, nothing per
   token. *)
let conflict_probe (tbl : Table.t) =
  if tbl.Table.conflicts = [] then None
  else begin
    let cells = Hashtbl.create 16 in
    List.iter
      (fun c -> Hashtbl.replace cells (c.Table.c_state, c.Table.c_terminal) ())
      tbl.Table.conflicts;
    Some (fun state sym -> if Hashtbl.mem cells (state, sym) then Tm.incr m_conflict_hits)
  end

exception
  Syntax_error of {
    line : int;
    found : string;
    expected : string list;
  }

(* A runaway right-nesting (thousands of unclosed parentheses) would push
   the parse stack — and therefore the derivation tree and every recursive
   pass over it — arbitrarily deep.  Bounding the stack here turns the
   eventual Stack_overflow into an ordinary syntax diagnostic at the point
   where the nesting became unreasonable. *)
let default_max_depth = 5_000

let too_deep line max_depth =
  Syntax_error
    {
      line;
      found = Printf.sprintf "nesting deeper than %d levels" max_depth;
      expected = [];
    }

let parse ?(max_depth = default_max_depth) (tbl : Table.t)
    ~(lexer : unit -> 'v token) ~(shift : int -> 'v -> int -> 'n)
    ~(reduce : int -> 'n list -> 'n) : 'n =
  let cfg = tbl.Table.cfg in
  let probe = conflict_probe tbl in
  let states = ref [ 0 ] in
  let depth = ref 1 in
  let values : 'n list ref = ref [] in
  let lookahead = ref (lexer ()) in
  let rec loop () =
    let state = List.hd !states in
    let tok = !lookahead in
    (match probe with Some p -> p state tok.t_sym | None -> ());
    match Table.action tbl state tok.t_sym with
    | Table.Shift st' ->
      if !depth >= max_depth then raise (too_deep tok.t_line max_depth);
      Tm.incr m_shifts;
      states := st' :: !states;
      incr depth;
      values := shift tok.t_sym tok.t_value tok.t_line :: !values;
      lookahead := lexer ();
      loop ()
    | Table.Reduce prod_id ->
      Tm.incr m_reduces;
      let p = Cfg.production cfg prod_id in
      let arity = Array.length p.Cfg.rhs in
      (* pop [arity] states and values; children come out in source order *)
      let pop_n n =
        let children = ref [] in
        for _ = 1 to n do
          (match !values with
          | v :: vs ->
            children := v :: !children;
            values := vs
          | [] -> assert false);
          match !states with
          | _ :: sts -> states := sts
          | [] -> assert false
        done;
        !children
      in
      let children = pop_n arity in
      depth := !depth - arity;
      let node = reduce prod_id children in
      let state' = List.hd !states in
      let goto = Table.goto tbl state' p.Cfg.lhs in
      if goto < 0 then assert false;
      states := goto :: !states;
      incr depth;
      values := node :: !values;
      loop ()
    | Table.Accept -> (
      match !values with
      | [ v ] -> v
      | _ -> assert false)
    | Table.Error ->
      Tm.incr m_errors;
      raise
        (Syntax_error
           {
             line = tok.t_line;
             found = cfg.Cfg.symbol_name tok.t_sym;
             expected = Table.expected_terminals tbl state;
           })
  in
  loop ()

(* ------------------------------------------------------------------ *)
(* Panic-mode error recovery *)

type sync_class =
  | Sync_start (* may begin a fresh recovery segment (design-unit starter) *)
  | Sync_end (* "end": arms the end-of-construct resync *)
  | Sync_semi (* ";": closes an armed "end ... ;" resync *)
  | Sync_other

type error = {
  e_line : int;
  e_found : string;
  e_expected : string list;
  e_skipped : int; (* tokens discarded while resynchronizing *)
}

type 'n recovery = {
  r_root : 'n option; (* the salvaged derivation, if any prefix accepted *)
  r_errors : error list; (* oldest first *)
}

let default_max_errors = 25

(** Parse with phrase-level panic-mode recovery.

    On a syntax error the driver records a located diagnostic, restores the
    parse stack to the most recent {e checkpoint} (a reduce of a production
    the caller marks with [checkpoint] — for a design file, the reduce that
    closes the design-unit list, so everything parsed so far is preserved),
    and discards input up to a synchronizing token: either a [Sync_start]
    terminal (a design-unit starter keyword) or the token following an
    ["end" ... ";"] sequence.  Parsing then resumes; at end of input the
    driver makes one final attempt to accept the salvaged prefix.

    Diagnostics for cascade errors (a resynchronization that immediately
    fails again without consuming input) are suppressed, the classic
    "no message until real progress" rule.  The derivation tree contains
    only the well-formed regions; each skipped region is represented by its
    error record ([e_skipped] tokens wide) rather than by an error node,
    because the attribute evaluator requires derivations of the actual
    grammar. *)
let parse_recovering ?(max_errors = default_max_errors)
    ?(max_depth = default_max_depth) (tbl : Table.t)
    ~(lexer : unit -> 'v token) ~eof ~(shift : int -> 'v -> int -> 'n)
    ~(reduce : int -> 'n list -> 'n) ~(checkpoint : int -> bool)
    ~(classify : int -> sync_class) : 'n recovery =
  let cfg = tbl.Table.cfg in
  let probe = conflict_probe tbl in
  let states = ref [ 0 ] in
  let depth = ref 1 in
  let values : 'n list ref = ref [] in
  let saved = ref ([ 0 ], [], 1) in
  let errors = ref [] in (* newest first *)
  let shifts_since_recovery = ref max_int in (* start counts as progress *)
  let lookahead = ref (lexer ()) in
  let result = ref None in
  let eof_salvage_tried = ref false in
  let running = ref true in
  let record line found expected =
    if !shifts_since_recovery > 0 then
      errors :=
        { e_line = line; e_found = found; e_expected = expected; e_skipped = 0 }
        :: !errors
  in
  let add_skipped n =
    match !errors with
    | e :: rest when n > 0 -> errors := { e with e_skipped = e.e_skipped + n } :: rest
    | _ -> ()
  in
  (* discard the offending token, then scan to a synchronizing point *)
  let skip_to_sync () =
    let skipped = ref 0 in
    let seen_end = ref false in
    let stop = ref false in
    while not !stop do
      let tok = !lookahead in
      if tok.t_sym = eof then stop := true
      else if !skipped > 0 && classify tok.t_sym = Sync_start then stop := true
      else begin
        incr skipped;
        (match classify tok.t_sym with
        | Sync_end -> seen_end := true
        | Sync_semi -> if !seen_end then stop := true
        | Sync_start | Sync_other -> ());
        lookahead := lexer ()
      end
    done;
    Tm.add m_skipped !skipped;
    add_skipped !skipped
  in
  let recover line found expected =
    let progressed = !shifts_since_recovery > 0 in
    Tm.incr m_errors;
    Tm.incr m_resyncs;
    record line found expected;
    if List.length !errors >= max_errors then running := false
    else begin
      let ss, vs, d = !saved in
      states := ss;
      values := vs;
      depth := d;
      shifts_since_recovery := 0;
      let tok = !lookahead in
      if tok.t_sym = eof then begin
        (* final salvage: try to accept what we have, exactly once *)
        if !eof_salvage_tried then running := false
        else eof_salvage_tried := true
      end
      else if progressed && classify tok.t_sym = Sync_start then
        (* already standing on a fresh unit starter: retry it as-is *)
        ()
      else skip_to_sync ()
    end
  in
  while !running do
    let state = List.hd !states in
    let tok = !lookahead in
    (match probe with Some p -> p state tok.t_sym | None -> ());
    match Table.action tbl state tok.t_sym with
    | Table.Shift st' ->
      if !depth >= max_depth then
        recover tok.t_line
          (Printf.sprintf "nesting deeper than %d levels" max_depth)
          []
      else begin
        Tm.incr m_shifts;
        states := st' :: !states;
        incr depth;
        values := shift tok.t_sym tok.t_value tok.t_line :: !values;
        if !shifts_since_recovery < max_int then incr shifts_since_recovery;
        lookahead := lexer ()
      end
    | Table.Reduce prod_id ->
      Tm.incr m_reduces;
      let p = Cfg.production cfg prod_id in
      let arity = Array.length p.Cfg.rhs in
      let pop_n n =
        let children = ref [] in
        for _ = 1 to n do
          (match !values with
          | v :: vs ->
            children := v :: !children;
            values := vs
          | [] -> assert false);
          match !states with
          | _ :: sts -> states := sts
          | [] -> assert false
        done;
        !children
      in
      let children = pop_n arity in
      depth := !depth - arity;
      let node = reduce prod_id children in
      let state' = List.hd !states in
      let goto = Table.goto tbl state' p.Cfg.lhs in
      if goto < 0 then assert false;
      states := goto :: !states;
      incr depth;
      values := node :: !values;
      if checkpoint prod_id then saved := (!states, !values, !depth)
    | Table.Accept ->
      (match !values with
      | [ v ] -> result := Some v
      | _ -> ());
      running := false
    | Table.Error ->
      recover tok.t_line (cfg.Cfg.symbol_name tok.t_sym)
        (Table.expected_terminals tbl state)
  done;
  { r_root = !result; r_errors = List.rev !errors }
