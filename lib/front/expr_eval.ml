(** [exprEval] — the cascade point between the two AGs (paper §4.1).

    "The out-of-line function exprEval is itself a parser and attribute
    evaluator generated from the expression AG...  The expression evaluator
    is fed tokens by a trivial scanner that just takes the next LEF token
    off the front of the list."

    The expression grammar is built once, lazily, and bound to the parse
    tables generated from it at build time ({!Grammar_tables}), just as
    Linguist generates its evaluator once. *)

type t = {
  grammar : Pval.t Grammar.t;
  parser_ : Pval.t Parsing.t;
}

let load () =
  let grammar = Expr_grammar.build () in
  let parser_ =
    Parsing.bind ~name:Expr_grammar.name grammar ~eof:Expr_grammar.eof Grammar_tables.expr
  in
  { grammar; parser_ }

let instance = lazy (load ())

let grammar () = (Lazy.force instance).grammar
let parser_ () = (Lazy.force instance).parser_

module Tm = Vhdl_telemetry.Telemetry
module Timer = Vhdl_util.Phase_timer

let m_evaluations = Tm.counter "cascade.evaluations"
let m_lef_tokens = Tm.counter "cascade.lef_tokens"
let m_parse_errors = Tm.counter "cascade.parse_errors"
let m_expr_lef_tokens = Tm.histogram "cascade.expr_lef_tokens"

(* Time spent here is charged to its own phase of the ambient compile timer
   — the nested-frame accounting in Phase_timer carves it out of "attribute
   evaluation" (its dynamically enclosing phase) without the mutable-global
   subtraction this module used to maintain. *)
let cascade_phase = "expression evaluation (cascade)"

let timed f = Timer.time_ambient cascade_phase f

(* The ambient provenance recorder (armed by the compiler around attribute
   evaluation): with one in force, the expression evaluator records into it
   too, so its instances nest under the principal-AG attribute whose rule
   invoked the cascade — the explain chain crosses the AG boundary. *)
let provenance_hook () =
  Option.map (fun r -> (r, "expr", Pval.summary)) (Provenance.ambient ())

let driver_tokens t lef =
  List.map
    (fun tok ->
      {
        Vhdl_lalr.Driver.t_sym = Grammar.find_symbol t.grammar (Lef.terminal_name tok);
        t_value = Pval.Ltok tok;
        t_line = tok.Lef.l_line;
      })
    lef

type parse_outcome =
  | Parsed of Pval.t Tree.t
  | Syntax of { eline : int; found : string }

let parse t lef =
  let n = List.length lef in
  Tm.add m_lef_tokens n;
  Tm.observe m_expr_lef_tokens (float_of_int n);
  match Parsing.parse_list t.parser_ ~eof_value:Pval.Unit (driver_tokens t lef) with
  | exception Vhdl_lalr.Driver.Syntax_error { line = eline; found; _ } ->
    Tm.incr m_parse_errors;
    Syntax { eline; found }
  | tree -> Parsed tree

(* Copy elision follows the ambient session: off on the differential
   oracle's reference (Demand) side. *)
let goals t ~level tree =
  let ev =
    Evaluator.create t.grammar
      ~token_line:(fun n -> Pval.Int n)
      ?provenance:(provenance_hook ())
      ~copy_elide:(Session.copy_elide ())
      ~root_inherited:[ ("XLEVEL", Pval.Int level) ]
      tree
  in
  let cands = Pval.as_cands (Evaluator.goal ev "CANDS") in
  let msgs = Pval.as_msgs (Evaluator.goal ev "MSGS") in
  (cands, msgs)

(** Evaluate one maximal expression.

    @param expected the type required by context, if known
    @param level subprogram nesting level of the occurrence
    @param line source line, for diagnostics *)
let eval ?expected ~level ~line (lef : Lef.tok list) : Pval.xres =
  let t = Lazy.force instance in
  Tm.incr m_evaluations;
  timed @@ fun () ->
  if lef = [] then
    {
      Pval.x_ty = Expr_sem.error_ty;
      x_code = Kir.Elit (Value.Vint 0);
      x_static = None;
      x_msgs = [ Diag.error ~line "missing expression" ];
    }
  else
    match parse t lef with
    | Syntax { eline; found } ->
      {
        Pval.x_ty = Expr_sem.error_ty;
        x_code = Kir.Elit (Value.Vint 0);
        x_static = None;
        x_msgs =
          [
            Diag.error ~line:(if eline = 0 then line else eline)
              "cannot parse expression (unexpected %s)"
              (match
                 List.find_opt
                   (fun tok -> Lef.terminal_name tok = found)
                   lef
               with
              | Some tok -> Lef.describe tok
              | None -> found);
          ];
      }
    | Parsed tree ->
      let cands, msgs = goals t ~level tree in
      Expr_sem.select ~line ~expected cands msgs

(** Evaluate a discrete range (for loops, type ranges, slices written as
    ranges).  Accepts either an explicit [l to r] LEF sequence (the caller
    splits it) or an attribute range. *)
let eval_range ~level ~line (lef : Lef.tok list) :
    (Kir.expr * Types.dir * Kir.expr) * Types.t option * Diag.t list =
  let t = Lazy.force instance in
  Tm.incr m_evaluations;
  timed @@ fun () ->
  if lef = [] then
    (* same guard as [eval]: an empty token list (a dangling "for i in" or
       an empty slice) must produce a diagnostic, not reach the parser *)
    ( (Kir.Elit (Value.Vint 0), Types.To, Kir.Elit (Value.Vint 0)),
      None,
      [ Diag.error ~line "missing range" ] )
  else
    match parse t lef with
    | Syntax _ ->
      ( (Kir.Elit (Value.Vint 0), Types.To, Kir.Elit (Value.Vint 0)),
        None,
        [ Diag.error ~line "cannot parse range" ] )
    | Parsed tree ->
      let cands, msgs = goals t ~level tree in
      Expr_sem.select_range ~line cands msgs
