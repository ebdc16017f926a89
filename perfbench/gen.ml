(* Seeded generator of every input the benchmark feeds the compiler.

   The benchmark owns its inputs: nothing here calls the repository's own
   workload or fuzz generators.  Each design carries what the generator
   knows about it independently of the compiler -- the design units it
   emitted, the line of an injected defect, the times a divider chain must
   report -- and the checks in [Bench] compare the compiler's answers with
   exactly that.

   The seed changes names, constants, operators, wiring and which defect is
   injected; it never changes the size of a design, so figures from
   different seeds measure the same amount of work. *)

type design = {
  source : string;
  keys : string list; (* unit keys the compiler must report, in source order *)
  lines : int;
  top : string; (* entity to elaborate (simulated designs only) *)
  defect_line : int; (* line a seeded defect must be rejected at; 0 = none *)
  ticks_ns : int list; (* simulated designs: times "tick" must be reported *)
}

let rng ~seed ~salt = Random.State.make [| seed; salt; 0x7e57 |]
let int r lo hi = lo + Random.State.int r (hi - lo + 1)
let pick r a = a.(Random.State.int r (Array.length a))

(* Identifiers: a per-stream random stem plus a serial number.  No VHDL
   reserved word starts with Z or contains an underscore, so names never
   collide with the language or with each other. *)
type namer = { stem : string; mutable serial : int }

let namer r =
  { stem = String.init 3 (fun _ -> Char.chr (Char.code 'A' + Random.State.int r 26)); serial = 0 }

let fresh nm kind =
  nm.serial <- nm.serial + 1;
  Printf.sprintf "Z%s%s_%d" kind nm.stem nm.serial

(* A source buffer that knows the number of the line it writes next. *)
type buf = { b : Buffer.t; mutable next_line : int }

let buf () = { b = Buffer.create 4096; next_line = 1 }

let line bf fmt =
  Printf.ksprintf
    (fun s ->
      Buffer.add_string bf.b s;
      Buffer.add_char bf.b '\n';
      bf.next_line <- bf.next_line + 1)
    fmt

let design ?(top = "") ?(defect_line = 0) ?(ticks_ns = []) bf keys =
  { source = Buffer.contents bf.b; keys; lines = bf.next_line - 1; top; defect_line; ticks_ns }

(* ------------------------------------------------------------------ *)
(* Constant expressions with their values *)

(* VHDL [mod] for a positive right operand *)
let vmod a b = ((a mod b) + b) mod b

(* An operand: a literal or an earlier constant, as (text, value). *)
let operand r (consts : (string * int) array) =
  if Array.length consts > 0 && Random.State.bool r then pick r consts
  else
    let n = int r 1 99 in
    (string_of_int n, n)

(* A static integer expression over [consts] and its value.  Every form
   ends in [mod 9973], so values stay far from integer overflow however
   they are chained. *)
let const_expr r consts =
  let a, va = operand r consts in
  let b, vb = operand r consts in
  let c, vc = operand r consts in
  let n1 = int r 2 19 and n2 = int r 2 9 and n3 = int r 2 13 in
  match Random.State.int r 3 with
  | 0 ->
    ( Printf.sprintf "((%s + %d) * %d - %s / %d + (%s mod %d)) mod 9973" a n1 n2 b n3 c n1,
      vmod (((va + n1) * n2) - (vb / n3) + vmod vc n1) 9973 )
  | 1 ->
    ( Printf.sprintf "(%s * %d + %s) mod 9973 + abs (-%d)" a n2 b n1,
      vmod ((va * n2) + vb) 9973 + n1 )
  | _ ->
    ( Printf.sprintf "(%s - %s + %d * (%s + %d)) mod 9973" a b n2 c n3,
      vmod (va - vb + (n2 * (vc + n3))) 9973 )

(* ------------------------------------------------------------------ *)
(* The four large-design shapes.  [lines] is a target; the design's own
   [lines] field is exact. *)

type shape = Expr | Fsm | Netlist | Package

let all_shapes = [ Expr; Fsm; Netlist; Package ]

(* n constant declarations, each an expression over literals and earlier
   constants: the cascade and the declarative-region stressor. *)
let expr_design r nm ~lines =
  let e = fresh nm "E" in
  let bf = buf () in
  line bf "entity %s is" e;
  line bf "end %s;" e;
  line bf "";
  line bf "architecture A of %s is" e;
  let consts = ref [||] in
  for i = 0 to lines - 7 do
    let text, v = const_expr r !consts in
    let k = Printf.sprintf "K%d" i in
    line bf "  constant %s : integer := %s;" k text;
    consts := Array.append !consts [| (k, v) |]
  done;
  line bf "begin";
  line bf "end A;";
  design bf [ "entity:" ^ e; Printf.sprintf "arch:%s(A)" e ]

(* A clocked state machine over an enumeration plus a computation
   process: enumeration literals, case arms and sequential statements. *)
let fsm_design r nm ~lines =
  let e = fresh nm "F" in
  let states = max 4 ((lines - 28) * 8 / 17) in
  let stmts = max 1 (lines - 28 - states - ((states + 7) / 8)) in
  let bf = buf () in
  line bf "entity %s is" e;
  line bf "  port (clk : in bit; rst : in bit; dout : out integer);";
  line bf "end %s;" e;
  line bf "";
  line bf "architecture RTL of %s is" e;
  let lits = List.init states (Printf.sprintf "S%d") in
  let rec rows = function
    | [] -> []
    | l ->
      let row = List.filteri (fun i _ -> i < 8) l in
      let rest = List.filteri (fun i _ -> i >= 8) l in
      row :: rows rest
  in
  let rs = rows lits in
  List.iteri
    (fun i row ->
      let body = String.concat ", " row in
      if i = 0 && List.length rs = 1 then line bf "  type STATE_T is (%s);" body
      else if i = 0 then line bf "  type STATE_T is (%s," body
      else if i = List.length rs - 1 then line bf "    %s);" body
      else line bf "    %s," body)
    rs;
  line bf "  signal state : STATE_T := S0;";
  line bf "  signal acc : integer := 0;";
  line bf "begin";
  line bf "  fsm : process (clk)";
  line bf "  begin";
  line bf "    if clk'event and clk = '1' then";
  line bf "      if rst = '1' then";
  line bf "        state <= S0;";
  line bf "      else";
  line bf "        case state is";
  let step = int r 1 (states - 1) in
  for s = 0 to states - 1 do
    line bf "          when S%d => state <= S%d;" s ((s + step) mod states)
  done;
  line bf "        end case;";
  line bf "      end if;";
  line bf "    end if;";
  line bf "  end process;";
  line bf "  compute : process (state)";
  line bf "    variable t : integer := 0;";
  line bf "  begin";
  for _ = 1 to stmts do
    line bf "    t := (t + %d) * %d mod 9973 + %d - (t / %d);" (int r 1 99) (int r 2 9)
      (int r 1 50) (int r 2 13)
  done;
  line bf "    acc <= t;";
  line bf "  end process;";
  line bf "  dout <= acc;";
  line bf "end RTL;";
  design bf [ "entity:" ^ e; Printf.sprintf "arch:%s(RTL)" e ]

(* A leaf gate and a netlist of instances wired to earlier nets. *)
let netlist_design r nm ~lines =
  let g = fresh nm "G" and e = fresh nm "N" in
  let insts = max 2 ((lines - 22) / 2) in
  let bf = buf () in
  line bf "entity %s is" g;
  line bf "  port (a, b : in bit; y : out bit);";
  line bf "end %s;" g;
  line bf "architecture RTL of %s is" g;
  line bf "begin";
  line bf "  y <= a %s b after 1 ns;" (pick r [| "and"; "or"; "xor"; "nand" |]);
  line bf "end RTL;";
  line bf "";
  line bf "entity %s is" e;
  line bf "  port (x : in bit; y : out bit);";
  line bf "end %s;" e;
  line bf "";
  line bf "architecture NET of %s is" e;
  line bf "  component %s" g;
  line bf "    port (a, b : in bit; y : out bit);";
  line bf "  end component;";
  for i = 0 to insts do
    line bf "  signal w%d : bit;" i
  done;
  line bf "begin";
  line bf "  w0 <= x;";
  for i = 1 to insts do
    line bf "  u%d : %s port map (a => w%d, b => w%d, y => w%d);" i g
      (Random.State.int r i) (Random.State.int r i) i
  done;
  line bf "  y <= w%d;" insts;
  line bf "end NET;";
  design bf
    [ "entity:" ^ g; Printf.sprintf "arch:%s(RTL)" g; "entity:" ^ e; Printf.sprintf "arch:%s(NET)" e ]

(* A package of constants and function declarations, and its body. *)
let package_lines bf r p ~n =
  line bf "package %s is" p;
  let consts = ref [||] in
  for i = 0 to n - 1 do
    let text, v = const_expr r !consts in
    let c = Printf.sprintf "C%d" i in
    line bf "  constant %s : integer := %s;" c text;
    consts := Array.append !consts [| (c, v) |]
  done;
  for i = 0 to n - 1 do
    line bf "  function F%d (x : integer) return integer;" i
  done;
  line bf "end %s;" p;
  line bf "";
  line bf "package body %s is" p;
  for i = 0 to n - 1 do
    line bf "  function F%d (x : integer) return integer is" i;
    line bf "  begin";
    line bf "    return (x * C%d + %d) mod 9973;" (Random.State.int r n) (int r 1 99);
    line bf "  end F%d;" i
  done;
  line bf "end %s;" p

let package_design r nm ~lines =
  let p = fresh nm "P" in
  let bf = buf () in
  package_lines bf r p ~n:(max 1 ((lines - 5) / 6));
  design bf [ "package:" ^ p; "body:" ^ p ]

let large r nm shape ~lines =
  match shape with
  | Expr -> expr_design r nm ~lines
  | Fsm -> fsm_design r nm ~lines
  | Netlist -> netlist_design r nm ~lines
  | Package -> package_design r nm ~lines

(* ------------------------------------------------------------------ *)
(* Small multi-file projects for one-shot launches: a package, an entity,
   its architecture (which reads both through VIF), and a netlist top that
   instantiates the entity (which reads its VIF again).  Compiled one file
   per launch, in this order, into one working library. *)

let project_files r nm =
  let p = fresh nm "P" and e = fresh nm "C" and t = fresh nm "T" in
  let pkg = buf () in
  package_lines pkg r p ~n:4;
  let ent = buf () in
  line ent "entity %s is" e;
  line ent "  port (clk : in bit; seed : in integer; q : out integer);";
  line ent "end %s;" e;
  let arch = buf () in
  line arch "use work.%s.all;" p;
  line arch "";
  line arch "architecture RTL of %s is" e;
  for i = 0 to 3 do
    line arch "  constant L%d : integer := (C%d * %d + %d) mod 9973;" i (Random.State.int r 4)
      (int r 2 9) (int r 1 99)
  done;
  line arch "  signal acc : integer := 0;";
  line arch "begin";
  line arch "  step : process (clk)";
  line arch "  begin";
  line arch "    if clk'event and clk = '1' then";
  line arch "      acc <= (F%d(acc + seed) + L%d) mod 9973;" (Random.State.int r 4)
    (Random.State.int r 4);
  line arch "    end if;";
  line arch "  end process;";
  line arch "  q <= acc;";
  line arch "end RTL;";
  let top = buf () in
  let n = 3 in
  line top "entity %s is" t;
  line top "  port (clk : in bit; q : out integer);";
  line top "end %s;" t;
  line top "";
  line top "architecture NET of %s is" t;
  line top "  component %s" e;
  line top "    port (clk : in bit; seed : in integer; q : out integer);";
  line top "  end component;";
  for i = 0 to n - 1 do
    line top "  signal s%d : integer := %d;" i (int r 1 99)
  done;
  line top "begin";
  for i = 0 to n - 1 do
    line top "  u%d : %s port map (clk => clk, seed => s%d, q => s%d);" i e ((i + n - 1) mod n)
      i
  done;
  line top "  q <= s%d;" (n - 1);
  line top "end NET;";
  [
    design pkg [ "package:" ^ p; "body:" ^ p ];
    design ent [ "entity:" ^ e ];
    design arch [ Printf.sprintf "arch:%s(RTL)" e ];
    design top [ "entity:" ^ t; Printf.sprintf "arch:%s(NET)" t ];
  ]

(* ------------------------------------------------------------------ *)
(* Single-source designs for the serve session *)

(* A package, an entity and its architecture in one source.  [variant]
   edits the architecture only: same name, new variant = an edit of one
   unit; same variant = a byte-identical recompile. *)
let module_lines bf ~stream ~p ~e ~variant =
  let r = rng ~seed:stream ~salt:0 in
  package_lines bf r p ~n:3;
  line bf "";
  line bf "use work.%s.all;" p;
  line bf "";
  line bf "entity %s is" e;
  line bf "  port (clk : in bit; q : out integer);";
  line bf "end %s;" e;
  line bf "";
  line bf "architecture A of %s is" e;
  let r = rng ~seed:stream ~salt:(1 + variant) in
  for i = 0 to 3 do
    line bf "  constant Q%d : integer := (C%d * %d + F%d(%d)) mod 9973;" i
      (Random.State.int r 3) (int r 2 9) (Random.State.int r 3) (int r 1 99)
  done;
  line bf "  signal acc : integer := %d;" variant

let module_tail bf =
  line bf "begin";
  line bf "  step : process (clk)";
  line bf "  begin";
  line bf "    if clk'event and clk = '1' then";
  line bf "      acc <= (acc + Q0 * Q1 - Q2 + Q3) mod 9973;";
  line bf "    end if;";
  line bf "  end process;";
  line bf "  q <= acc;";
  line bf "end A;"

type module_id = { stream : int; p : string; e : string }

let new_module r nm = { stream = Random.State.bits r; p = fresh nm "P"; e = fresh nm "M" }

let module_design m ~variant =
  let bf = buf () in
  module_lines bf ~stream:m.stream ~p:m.p ~e:m.e ~variant;
  module_tail bf;
  design bf
    [ "package:" ^ m.p; "body:" ^ m.p; "entity:" ^ m.e; Printf.sprintf "arch:%s(A)" m.e ]

(* A redeclared name (homograph) is not among the defects: the compiler
   reports it at line 0, not at the redeclaration (see README.md). *)
type defect = Undeclared | Mistyped | Arity | Syntax

(* A fresh module with exactly one defect, in the architecture's
   declarative part; the compiler must reject it at [defect_line]. *)
let defective_design r nm =
  let m = new_module r nm in
  let bf = buf () in
  module_lines bf ~stream:m.stream ~p:m.p ~e:m.e ~variant:0;
  let defect_line = bf.next_line in
  (match pick r [| Undeclared; Mistyped; Arity; Syntax |] with
  | Undeclared -> line bf "  constant QD : integer := ZUNDECLARED_%d + 1;" (int r 1 99)
  | Mistyped -> line bf "  constant QD : integer := '1';"
  | Arity -> line bf "  constant QD : integer := F%d(%d, %d);" (Random.State.int r 3) (int r 1 99) (int r 1 99)
  | Syntax -> line bf "  constant QD : integer := := %d;" (int r 1 99));
  module_tail bf;
  design ~defect_line bf []

(* ------------------------------------------------------------------ *)
(* Divider chains for simulation *)

(* [stages] toggle flip-flops, each clocked by the previous stage's output
   and toggling on its falling edge, under a clock of period 10 ns whose
   first falling edge is at 10 ns.  By construction tap i rises first at
   10 * 2^i ns and then every 10 * 2^(i+1) ns; a watcher on tap [watch]
   reports "tick" at each rise, so up to [horizon_ns] the ticks are due at
   10 * 2^watch * (2m + 1) ns. *)
let chain_ticks ~watch ~horizon_ns =
  let first = 10 * (1 lsl watch) and period = 10 * (1 lsl (watch + 1)) in
  let rec go t acc = if t > horizon_ns then List.rev acc else go (t + period) (t :: acc) in
  go first []

let chain_design nm ~stages ~watch ~horizon_ns =
  let f = fresh nm "D" and c = fresh nm "H" in
  let bf = buf () in
  line bf "entity %s is" f;
  line bf "  port (clk : in bit; q : out bit);";
  line bf "end %s;" f;
  line bf "architecture BEHAV of %s is" f;
  line bf "  signal state : bit := '0';";
  line bf "begin";
  line bf "  flip : process (clk)";
  line bf "  begin";
  line bf "    if clk'event and clk = '0' then";
  line bf "      state <= not state;";
  line bf "    end if;";
  line bf "  end process;";
  line bf "  q <= state;";
  line bf "end BEHAV;";
  line bf "";
  line bf "entity %s is" c;
  line bf "end %s;" c;
  line bf "architecture T of %s is" c;
  line bf "  component %s" f;
  line bf "    port (clk : in bit; q : out bit);";
  line bf "  end component;";
  line bf "  type TAPS_T is array (0 to %d) of bit;" (stages - 1);
  line bf "  signal taps : TAPS_T;";
  line bf "  signal clk : bit := '0';";
  line bf "  signal mon : bit := '0';";
  line bf "begin";
  line bf "  first : %s port map (clk => clk, q => taps(0));" f;
  line bf "  g : for i in 1 to %d generate" (stages - 1);
  line bf "    s : %s port map (clk => taps(i - 1), q => taps(i));" f;
  line bf "  end generate;";
  line bf "  clock : process";
  line bf "  begin";
  line bf "    clk <= not clk after 5 ns;";
  line bf "    wait for 5 ns;";
  line bf "  end process;";
  line bf "  mon <= taps(%d);" watch;
  line bf "  watch : process (mon)";
  line bf "  begin";
  line bf "    if mon = '1' then";
  line bf "      assert false report \"tick\" severity note;";
  line bf "    end if;";
  line bf "  end process;";
  line bf "end T;";
  design ~top:c ~ticks_ns:(chain_ticks ~watch ~horizon_ns) bf
    [ "entity:" ^ f; Printf.sprintf "arch:%s(BEHAV)" f; "entity:" ^ c; Printf.sprintf "arch:%s(T)" c ]

(* ------------------------------------------------------------------ *)
(* Cascade inputs: expressions over ten named integer constants whose
   values the generator picked, so each expression's folded value is known
   in advance. *)

let cascade_constants r = Array.init 10 (fun i -> (Printf.sprintf "N%d" i, int r 1 999))

let trivial_unit nm =
  let e = fresh nm "Y" in
  let bf = buf () in
  line bf "entity %s is" e;
  line bf "end %s;" e;
  line bf "architecture A of %s is" e;
  line bf "  constant K : integer := 1;";
  line bf "begin";
  line bf "end A;";
  design bf [ "entity:" ^ e; Printf.sprintf "arch:%s(A)" e ]
