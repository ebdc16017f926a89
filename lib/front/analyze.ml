(** The scanner's output as the principal AG's parser reads it: each
    token paired with its grammar terminal and its source line. *)

let tokens_of_source src =
  let toks = Lexer.tokenize src in
  let grammar = Main_grammar.grammar () in
  List.map
    (fun (tok, line) ->
      {
        Vhdl_lalr.Driver.t_sym = Grammar.find_symbol grammar (Token.terminal_name tok);
        t_value = Pval.Tok tok;
        t_line = line;
      })
    toks
