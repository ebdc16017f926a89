(** LALR(1) parse tables with conflict reporting.

    Conflicts are resolved yacc-style (shift over reduce; earlier production
    for reduce/reduce) and recorded, so grammar authors can inspect them —
    the paper's §4.1 complains precisely about having to "keep track of the
    parsing conflicts and ensure they were resolved correctly" when uniting
    productions, which is what the LEF cascade avoids. *)

type action =
  | Shift of int
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
  cells : string; (* 16-bit LE cells, state-major: (operand lsl 2) lor kind *)
  conflicts : conflict list;
}

(* Cell kinds in the low two bits; 0 is Error so a zeroed table is empty. *)
let k_shift = 1
let k_reduce = 2
let k_accept = 3
let max_operand = 0xffff lsr 2

let encode = function
  | Error -> 0
  | Shift s -> (s lsl 2) lor k_shift
  | Reduce p -> (p lsl 2) lor k_reduce
  | Accept -> k_accept

let decode c =
  let kind = c land 3 in
  if kind = k_shift then Shift (c lsr 2)
  else if kind = k_reduce then Reduce (c lsr 2)
  else if kind = k_accept then Accept
  else Error

let offset t state sym = 2 * ((state * t.cfg.Cfg.n_symbols) + sym)
let action t state sym = decode (String.get_uint16_le t.cells (offset t state sym))

let goto t state sym =
  match action t state sym with
  | Shift s -> s
  | Reduce _ | Accept | Error -> -1

let build (cfg : Cfg.t) =
  let lr0 = Lr0.build cfg in
  let fi = First.compute cfg in
  let look = Lookahead.compute lr0 fi in
  let n_states = lr0.Lr0.n_states in
  if n_states - 1 > max_operand || Array.length cfg.Cfg.productions - 1 > max_operand then
    invalid_arg
      (Printf.sprintf "Table.build: %d states, %d productions (cells hold at most %d)"
         n_states (Array.length cfg.Cfg.productions) max_operand);
  let n_symbols = cfg.Cfg.n_symbols in
  let cells = Bytes.make (2 * n_states * n_symbols) '\000' in
  let get st sym = decode (Bytes.get_uint16_le cells (2 * ((st * n_symbols) + sym))) in
  let set st sym a = Bytes.set_uint16_le cells (2 * ((st * n_symbols) + sym)) (encode a) in
  let conflicts = ref [] in
  for st = 0 to n_states - 1 do
    (* shifts on terminals, gotos on nonterminals *)
    List.iter (fun (sym, st') -> set st sym (Shift st')) lr0.Lr0.transitions.(st);
    (* accept: item [S' ::= start .] *)
    let accepts =
      Array.exists
        (fun it ->
          Lr0.item_prod ~stride:lr0.Lr0.stride it = lr0.Lr0.aug_prod
          && Lr0.item_dot ~stride:lr0.Lr0.stride it = 1)
        lr0.Lr0.states.(st)
    in
    if accepts then set st cfg.Cfg.eof Accept;
    List.iter
      (fun prod ->
        if prod <> lr0.Lr0.aug_prod then
          List.iter
            (fun t ->
              match get st t with
              | Error -> set st t (Reduce prod)
              | Shift _ ->
                (* keep the shift *)
                conflicts :=
                  { c_state = st; c_terminal = t; c_kind = `Shift_reduce prod } :: !conflicts
              | Reduce other ->
                let keep = min other prod and lose = max other prod in
                set st t (Reduce keep);
                conflicts :=
                  { c_state = st; c_terminal = t; c_kind = `Reduce_reduce (keep, lose) }
                  :: !conflicts
              | Accept -> ())
            (Lookahead.la look ~state:st ~prod))
      (Lr0.reductions lr0 st)
  done;
  { cfg; n_states; cells = Bytes.unsafe_to_string cells; conflicts = List.rev !conflicts }

let of_cells (cfg : Cfg.t) ~n_states cells =
  if n_states <= 0 || String.length cells <> 2 * n_states * cfg.Cfg.n_symbols then
    invalid_arg
      (Printf.sprintf "Table.of_cells: %d bytes do not hold %d states x %d symbols"
         (String.length cells) n_states cfg.Cfg.n_symbols);
  { cfg; n_states; cells; conflicts = [] }

let expected_terminals t state =
  let acc = ref [] in
  for sym = t.cfg.Cfg.n_symbols - 1 downto 0 do
    if t.cfg.Cfg.is_terminal.(sym) then
      match action t state sym with
      | Error -> ()
      | Shift _ | Reduce _ | Accept -> acc := t.cfg.Cfg.symbol_name sym :: !acc
  done;
  !acc

let pp_conflict t fmt c =
  let term = t.cfg.Cfg.symbol_name c.c_terminal in
  match c.c_kind with
  | `Shift_reduce prod ->
    Format.fprintf fmt "state %d on %s: shift/reduce (reduce %a loses)" c.c_state term
      (Cfg.pp_production t.cfg) (Cfg.production t.cfg prod)
  | `Reduce_reduce (keep, lose) ->
    Format.fprintf fmt "state %d on %s: reduce/reduce (%a wins over %a)" c.c_state term
      (Cfg.pp_production t.cfg) (Cfg.production t.cfg keep) (Cfg.pp_production t.cfg)
      (Cfg.production t.cfg lose)
