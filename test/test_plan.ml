(* Plan evaluation against the demand oracle.

   The plan-based strategy (the compiler default: static plan, copy
   elision in both AGs) must agree with the demand oracle (copy elision
   off in both AGs) over a fuzz campaign twice the size of the smoke run;
   the oracle must really run without elision, or it would share the
   code under test; and the cascade's entry points must turn degenerate
   token lists into diagnostics. *)

module Tm = Vhdl_telemetry.Telemetry

let line = 1
let counter = Tm.counter_value

(* ------------------------------------------------------------------ *)
(* The eval_range empty-LEF guard (regression: an empty range used to
   reach the parser and die there instead of producing a diagnostic) *)

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  go 0

let test_empty_range_guard () =
  let r, ty, diags = Expr_eval.eval_range ~level:0 ~line:7 [] in
  Alcotest.(check bool) "no type" true (ty = None);
  (match r with
  | Kir.Elit (Value.Vint 0), Types.To, Kir.Elit (Value.Vint 0) -> ()
  | _ -> Alcotest.fail "empty range must yield the zero placeholder bounds");
  match diags with
  | [ d ] ->
    Alcotest.(check bool) "mentions the missing range" true
      (contains (Format.asprintf "%a" Diag.pp d) "missing range")
  | _ -> Alcotest.fail "expected exactly one diagnostic"

let tok ?(line = line) kind = { Lef.l_kind = kind; l_line = line }
let int_t ?line n = tok ?line (Lef.Kint n)

(* No cache: every evaluation of the same token list parses it again, and
   the two evaluations agree. *)
let test_repeat_parses_afresh () =
  let lef = [ int_t 2; Lef.op ~line "+"; int_t 3 ] in
  let e0 = counter "cascade.evaluations" and t0 = counter "cascade.lef_tokens" in
  let a = Expr_eval.eval ~level:0 ~line lef in
  let b = Expr_eval.eval ~level:0 ~line lef in
  Alcotest.(check int) "two evaluations" (e0 + 2) (counter "cascade.evaluations");
  Alcotest.(check int) "both parses read all three tokens" (t0 + 6)
    (counter "cascade.lef_tokens");
  Alcotest.(check string) "same type" (Types.short_name a.Pval.x_ty)
    (Types.short_name b.Pval.x_ty);
  Alcotest.(check bool) "same folded value" true (a.Pval.x_static = b.Pval.x_static)

(* Token payloads reach the folded value: the same terminal sequence with
   different literals folds to different constants. *)
let test_payloads_fold () =
  let sum n = Expr_eval.eval ~level:0 ~line [ int_t 2; Lef.op ~line "+"; int_t n ] in
  Alcotest.(check bool) "2 + 3 folds to 5" true ((sum 3).Pval.x_static = Some (Value.Vint 5));
  Alcotest.(check bool) "2 + 4 folds to 6" true ((sum 4).Pval.x_static = Some (Value.Vint 6))

(* A syntax error is reported at the line of the offending token, not at
   the line of the expression's start. *)
let test_syntax_error_line () =
  let r = Expr_eval.eval ~level:0 ~line:4 [ int_t ~line:4 1; int_t ~line:5 2 ] in
  match r.Pval.x_msgs with
  | [ d ] ->
    Alcotest.(check int) "line of the second literal" 5 d.Diag.line;
    Alcotest.(check bool) "a parse diagnostic" true
      (contains (Format.asprintf "%a" Diag.pp d) "cannot parse expression")
  | _ -> Alcotest.fail "expected exactly one diagnostic"

(* [eval_range] reads an attribute range; a plain expression is not a
   range, though [eval] accepts the same tokens. *)
let test_range_entry_point () =
  let one_to_four = { Std.integer with Types.constr = Some (Types.Crange (1, Types.To, 4)) } in
  let lef = [ tok (Lef.Ktype one_to_four); Lef.punct ~line "'"; tok (Lef.Kattr "RANGE") ] in
  let (lo, dir, hi), ty, diags = Expr_eval.eval_range ~level:0 ~line lef in
  Alcotest.(check int) "no range diagnostics" 0 (List.length diags);
  Alcotest.(check bool) "typed" true (ty <> None);
  (match (lo, dir, hi) with
  | Kir.Elit (Value.Vint 1), Types.To, Kir.Elit (Value.Vint 4) -> ()
  | _ -> Alcotest.fail "expected the bounds 1 to 4");
  let seven = [ int_t 7 ] in
  let _, ty, diags = Expr_eval.eval_range ~level:0 ~line seven in
  Alcotest.(check bool) "a literal is no range" true (ty = None && Diag.has_errors diags);
  let e = Expr_eval.eval ~level:0 ~line seven in
  Alcotest.(check bool) "but it is an expression" true
    (e.Pval.x_msgs = [] && e.Pval.x_static = Some (Value.Vint 7))

(* Same LEF list, different [?expected]: overload selection runs per call
   — the '0' literal resolves to BIT or CHARACTER depending on what the
   context asks for. *)
let test_expected_selects () =
  let zero =
    { Lef.l_kind = Lef.Kenum [ (Std.bit, 0, "'0'"); (Std.character, 48, "'0'") ]; l_line = line }
  in
  let as_bit = Expr_eval.eval ~expected:Std.bit ~level:0 ~line [ zero ] in
  let as_char = Expr_eval.eval ~expected:Std.character ~level:0 ~line [ zero ] in
  Alcotest.(check string) "selected BIT" "BIT" (Types.short_name as_bit.Pval.x_ty);
  Alcotest.(check string) "selected CHARACTER" "CHARACTER"
    (Types.short_name as_char.Pval.x_ty)

(* ------------------------------------------------------------------ *)
(* Whole-compiler counters on a design that repeats expressions *)

let multi_use_source =
  "entity m is\n\
  \  port (a : in bit; y : out bit);\n\
   end m;\n\n\
   architecture r of m is\n\
  \  signal s1 : bit;\n\
  \  signal s2 : bit;\n\
   begin\n\
  \  s1 <= not a after 1 ns;\n\
  \  s2 <= not a after 1 ns;\n\
  \  y <= s1 and s2 after 1 ns;\n\
   end r;"

(* counter deltas of one fresh compile of [multi_use_source] *)
let compile_deltas strategy names =
  let before = List.map counter names in
  let c = Vhdl_compiler.create ~strategy () in
  ignore (Vhdl_compiler.compile c multi_use_source);
  (List.map2 (fun name b -> counter name - b) names before, Vhdl_compiler.diagnostics c)

(* Nothing survives a compile: a second fresh compile of the same source
   does exactly the work of the first. *)
let test_recompile_repeats_work () =
  let names = [ "cascade.evaluations"; "cascade.lef_tokens"; "ag.rule_applications" ] in
  let first, d1 = compile_deltas Vhdl_compiler.Staged names in
  let second, d2 = compile_deltas Vhdl_compiler.Staged names in
  Alcotest.(check (list int)) "same counter deltas" first second;
  Alcotest.(check bool) "the design cascades" true (List.hd first > 0);
  Alcotest.(check int) "same diagnostics" (List.length d1) (List.length d2)

(* Copy elision must show up in the whole-compiler counters: the staged
   default applies measurably fewer rules than the demand reference on
   the same source, while both report the same diagnostics. *)
let test_elision_reduces_applications () =
  let apps_of strategy =
    match compile_deltas strategy [ "ag.rule_applications" ] with
    | [ apps ], diags -> (apps, diags)
    | _ -> assert false
  in
  let staged_apps, staged_diags = apps_of Vhdl_compiler.Staged in
  let demand_apps, demand_diags = apps_of Vhdl_compiler.Demand in
  Alcotest.(check int) "same diagnostics" (List.length demand_diags)
    (List.length staged_diags);
  Alcotest.(check bool)
    (Printf.sprintf "staged apps (%d) < demand apps (%d)" staged_apps demand_apps)
    true
    (staged_apps < demand_apps);
  Alcotest.(check bool) "elisions happened" true (counter "ag.copy_elisions" > 0)

(* The oracle's independence: a Demand compile elides no copy anywhere —
   neither in the principal AG nor in any cascaded expression-AG
   evaluation — while the Staged compile of the same source does.  Fails
   if the reference side ever loses its setting. *)
let test_demand_never_elides () =
  let elisions strategy =
    match compile_deltas strategy [ "ag.copy_elisions"; "cascade.evaluations" ] with
    | [ elided; cascades ], _ ->
      Alcotest.(check bool) "the design cascades" true (cascades > 0);
      elided
    | _ -> assert false
  in
  Alcotest.(check int) "demand: no copy elided in either AG" 0
    (elisions Vhdl_compiler.Demand);
  Alcotest.(check bool) "staged: copies elided" true (elisions Vhdl_compiler.Staged > 0)

(* ------------------------------------------------------------------ *)
(* The 200-seed differential campaign: plan-with-copy-elision (staged)
   vs the demand oracle (no elision) must agree on units, VIF,
   diagnostics, traces, and messages. *)

let test_campaign_200 () =
  let seeds = List.init 200 (fun i -> 20_000 + i) in
  let summary = Difftest.run_campaign ~seeds ~size:2 () in
  Alcotest.(check int) "200 designs" 200 summary.Difftest.total;
  Alcotest.(check int) "no divergences" 0 summary.Difftest.divergences;
  Alcotest.(check int) "no crashes" 0 summary.Difftest.crashes;
  Alcotest.(check bool) "most designs compile on both sides" true
    (summary.Difftest.compiled + summary.Difftest.rejected = 200)

let suite =
  [
    Alcotest.test_case "empty range is a diagnostic" `Quick test_empty_range_guard;
    Alcotest.test_case "repeated expression parses afresh" `Quick test_repeat_parses_afresh;
    Alcotest.test_case "literal payloads reach the folded value" `Quick test_payloads_fold;
    Alcotest.test_case "syntax error reports the token's line" `Quick test_syntax_error_line;
    Alcotest.test_case "eval_range reads an attribute range" `Quick test_range_entry_point;
    Alcotest.test_case "?expected selects the literal's type" `Quick test_expected_selects;
    Alcotest.test_case "recompilation repeats the same work" `Quick
      test_recompile_repeats_work;
    Alcotest.test_case "copy elision reduces rule applications" `Quick
      test_elision_reduces_applications;
    Alcotest.test_case "demand compile elides no copy in either AG" `Quick
      test_demand_never_elides;
    Alcotest.test_case "200-seed demand-vs-plan campaign" `Slow test_campaign_200;
  ]
