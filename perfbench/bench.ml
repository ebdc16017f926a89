(* perfbench: the repository benchmark (see README.md in this directory).

     bench.exe --workload W --seed N --seconds S --trace 0|1
               --vhdlc PATH --scratch DIR

   Untraced (--trace 0), it runs one workload closed-loop for S seconds and
   prints every end-to-end metric; traced (--trace 1), it runs the
   per-layer experiments and the tracing-overhead pairs and prints every
   per-layer metric.  Every operation's answer is checked against what the
   generator knows; the last stdout line is the result object.  Everything
   it writes -- sources, working libraries, the daemon's socket and dumps --
   goes under DIR. *)

module M = Measure
module G = Gen

type cfg = {
  workload : string;
  seed : int;
  seconds : float;
  trace : bool;
  vhdlc : string;
  scratch : string;
}

(* ------------------------------------------------------------------ *)
(* Outcome, metrics and exact-count bookkeeping *)

let attempted = ref 0
let failed = ref 0

(* One operation and whether its answer was right; the first few wrong
   answers are shown on stderr. *)
let check ok what =
  incr attempted;
  if not ok then begin
    incr failed;
    if !failed <= 20 then Printf.eprintf "perfbench: wrong answer: %s\n%!" what
  end

(* Set when the program under test can no longer answer (a dead daemon):
   the run stops instead of counting a failure per remaining moment. *)
let lost : string option ref = ref None

let metrics : (string * float * string) list ref = ref []
let metric name unit value = metrics := (name, value, unit) :: !metrics

(* Exact counts of a fixed prefix of the workload: they must repeat
   exactly on every run of the same code and seed. *)
let counts : (string * float) list ref = ref []
let count name v = counts := (name, v) :: !counts

let mb_of_words w = w *. float_of_int (Sys.word_size / 8) /. 1048576.0
let ms s = s *. 1000.0
let own_top_heap_mb () = mb_of_words (float_of_int (Gc.quick_stat ()).Gc.top_heap_words)

let write_file path s = Out_channel.with_open_bin path (fun oc -> output_string oc s)
let lines s = String.split_on_char '\n' s |> List.filter (fun l -> l <> "")
let starts prefix s = String.starts_with ~prefix s
let after prefix s = String.sub s (String.length prefix) (String.length s - String.length prefix)

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  go 0

(* ------------------------------------------------------------------ *)
(* Spans: recorded in memory around the benchmark's own calls into each
   layer, only while [tracing] is set.  A span's self time is its duration
   minus the time its child spans cover. *)

type span = { sp_name : string; sp_self : float }

let tracing = ref false
let spans : span list ref = ref []
let open_children : float ref list ref = ref []

let span name f =
  if not !tracing then f ()
  else begin
    let children = ref 0.0 in
    open_children := children :: !open_children;
    let t0 = M.now () in
    let close () =
      let d = M.now () -. t0 in
      open_children := List.tl !open_children;
      (match !open_children with
      | parent :: _ -> parent := !parent +. d
      | [] -> ());
      spans := { sp_name = name; sp_self = d -. !children } :: !spans
    in
    match f () with
    | v ->
      close ();
      v
    | exception e ->
      close ();
      raise e
  end

(* Run [f] traced and return its result with the spans it recorded. *)
let traced f =
  spans := [];
  tracing := true;
  Fun.protect ~finally:(fun () -> tracing := false) (fun () ->
      let v = f () in
      let recorded = List.rev !spans in
      spans := [];
      (v, recorded))

let self_times name sps =
  List.filter_map (fun s -> if s.sp_name = name then Some s.sp_self else None) sps

(* ------------------------------------------------------------------ *)
(* Checks shared by the in-process and forked paths *)

let unit_keys units = List.map (fun u -> u.Unit_info.u_key) units

(* The in-process compile of a design: exactly its units, no errors. *)
let compile_checked ?(what = "compile") c (d : G.design) =
  match Vhdl_compiler.compile c d.G.source with
  | units ->
    check (unit_keys units = d.G.keys) (what ^ ": units differ from the generated ones")
  | exception Vhdl_compiler.Compile_error ds ->
    check false
      (Format.asprintf "%s: rejected a legal design: %a" what Diag.pp_list ds)

(* "file: compiled KEY" lines of a one-shot vhdlc compile *)
let oneshot_ok (c : M.child) file (d : G.design) =
  let prefix = file ^ ": compiled " in
  let ls = lines c.M.out in
  M.exited_ok c
  && List.for_all (starts prefix) ls
  && List.map (after prefix) ls = d.G.keys

let tick_times_ns msgs =
  List.filter_map
    (fun (time, _, text) -> if text = "tick" then Some (time / Rt.ns) else None)
    msgs

(* ------------------------------------------------------------------ *)
(* Set-up: the time a fresh process (or daemon) takes to answer one
   trivial request.  Each function below takes one sample. *)

let gc_env = lazy (M.gc_stats_env ())

let launch cfg ~work file =
  M.run ~env:(Lazy.force gc_env) ~scratch:cfg.scratch cfg.vhdlc
    [ "compile"; "--work"; work; file ]

let setup_oneshot cfg =
  let nm = G.namer (G.rng ~seed:cfg.seed ~salt:90) in
  let work = Filename.concat cfg.scratch "setup_work" in
  fun () ->
    let d = G.trivial_unit nm in
    let file = Filename.concat cfg.scratch "trivial.vhd" in
    write_file file d.G.source;
    let c = launch cfg ~work file in
    check (oneshot_ok c file d) "one-shot compile of a trivial unit";
    c.M.wall_s

(* The in-process workloads' set-up: this executable started afresh in
   probe mode, timed from fork to reaped exit. *)
let setup_probe cfg kind () =
  let c =
    M.run ~scratch:cfg.scratch Sys.executable_name
      [ "--probe"; kind; "--seed"; string_of_int cfg.seed ]
  in
  check (M.exited_ok c) ("set-up probe " ^ kind ^ ": " ^ String.trim c.M.err);
  c.M.wall_s

let probe_chain nm = G.chain_design nm ~stages:3 ~watch:1 ~horizon_ns:100

(* Probe mode: answer one trivial unit of work in a fresh process. *)
let probe kind seed =
  let nm = G.namer (G.rng ~seed ~salt:91) in
  let c = Vhdl_compiler.create () in
  match kind with
  | "compile" ->
    compile_checked c (G.trivial_unit nm);
    !failed
  | "simulate" ->
    let d = probe_chain nm in
    compile_checked c d;
    let sim = Vhdl_compiler.elaborate ~trace:false c ~top:d.G.top () in
    ignore (Vhdl_compiler.run c sim ~max_ns:100);
    check (tick_times_ns (Vhdl_compiler.messages sim) = d.G.ticks_ns) "probe simulation ticks";
    !failed
  | _ -> 2

(* ------------------------------------------------------------------ *)
(* The serve daemon *)

type daemon = { pid : int; socket : string; err : string }

let start_daemon ?(gc_stats = false) cfg name =
  let file ext = Filename.concat cfg.scratch (name ^ ext) in
  let socket = file ".sock" in
  (try Sys.remove socket with Sys_error _ -> ());
  let env = if gc_stats then Lazy.force gc_env else Unix.environment () in
  let pid =
    M.spawn ~env ~out:(file ".out") ~err:(file ".err") cfg.vhdlc
      [ "serve"; "--socket"; socket; "--quiet"; "--flight-dir"; file ".flight" ]
  in
  { pid; socket; err = file ".err" }

(* Ask the daemon to drain, then reap it; kill it if it will not go. *)
let stop_daemon dm =
  ignore
    (Serve_client.roundtrip ~timeout_s:5.0 ~socket:dm.socket
       (Serve_protocol.request Serve_protocol.Shutdown));
  let give_up = M.now () +. 10.0 in
  let rec reap () =
    match Unix.waitpid [ Unix.WNOHANG ] dm.pid with
    | 0, _ when M.now () < give_up ->
      Unix.sleepf 0.002;
      reap ()
    | 0, _ ->
      Unix.kill dm.pid Sys.sigkill;
      ignore (M.wait_pid dm.pid)
    | _ -> ()
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> reap ()
  in
  reap ()

let with_daemon ?gc_stats cfg name f =
  let dm = start_daemon ?gc_stats cfg name in
  Fun.protect ~finally:(fun () -> stop_daemon dm) (fun () -> f dm)

(* Poll until the daemon answers [rq]; the connection attempts before it
   has bound its socket fail fast. *)
let first_answer dm rq =
  let give_up = M.now () +. 30.0 in
  let rec go () =
    match Serve_client.roundtrip ~timeout_s:30.0 ~socket:dm.socket rq with
    | Ok resp -> Some resp
    | Error _ when M.now () < give_up ->
      Unix.sleepf 0.001;
      go ()
    | Error _ -> None
  in
  go ()

let compiled_keys body =
  List.filter_map
    (fun l -> if starts "compiled " l then Some (after "compiled " l) else None)
    (lines body)

let setup_serve cfg =
  let nm = G.namer (G.rng ~seed:cfg.seed ~salt:92) in
  fun () ->
    let d = G.trivial_unit nm in
    let rq = Serve_protocol.request ~source:d.G.source Serve_protocol.Compile in
    let t0 = M.now () in
    with_daemon cfg "setup" (fun dm ->
        let resp = first_answer dm rq in
        let dt = M.now () -. t0 in
        check
          (match resp with
          | Some r ->
            r.Serve_protocol.rs_status = Serve_protocol.Ok_
            && compiled_keys r.Serve_protocol.rs_body = d.G.keys
          | None -> false)
          "serve: first compile of a trivial unit";
        dt)

(* ------------------------------------------------------------------ *)
(* Workload streams.  A stream performs one operation per call, checks
   its answer, and returns its latency in seconds.  Streams built from
   different salts have the same shape sequence with different contents,
   which is what the tracing-overhead pairs rely on. *)

(* cli-oneshot: fork+exec [vhdlc compile], one file per launch, projects
   of four files sharing one working library each. *)
let oneshot_stream ?(on_launch = fun _ _ -> ()) cfg ~salt =
  let r = G.rng ~seed:cfg.seed ~salt in
  let nm = G.namer r in
  let pending = ref [] and project = ref 0 in
  fun () ->
    if !pending = [] then begin
      incr project;
      pending := List.mapi (fun i d -> (i, d)) (G.project_files r nm)
    end;
    match !pending with
    | [] -> assert false
    | (i, d) :: rest ->
      pending := rest;
      let dir = Filename.concat cfg.scratch (Printf.sprintf "s%d_p%d" salt !project) in
      let file = Filename.concat cfg.scratch (Printf.sprintf "s%d_p%d_%d.vhd" salt !project i) in
      write_file file d.G.source;
      let c = span "oneshot" (fun () -> launch cfg ~work:dir file) in
      check (oneshot_ok c file d) ("one-shot compile of " ^ file);
      on_launch d c;
      c.M.wall_s

(* analyze-large: in-process first compiles, each design distinct, cycling
   through the shape x size cells. *)
let small_lines = 300
let large_lines = 1200

let cells sizes = List.concat_map (fun s -> List.map (fun z -> (s, z)) sizes) G.all_shapes

let analyze_stream ?(on_compile = fun _ ~alloc_w:_ -> ()) cfg ~salt ~sizes =
  let r = G.rng ~seed:cfg.seed ~salt in
  let nm = G.namer r in
  let cells = Array.of_list (cells sizes) in
  let i = ref 0 in
  fun () ->
    let shape, size = cells.(!i mod Array.length cells) in
    incr i;
    let d = G.large r nm shape ~lines:size in
    let c = Vhdl_compiler.create () in
    let a0 = M.allocated_words () in
    let (), dt = M.time (fun () -> span "compile" (fun () -> compile_checked c d)) in
    on_compile d ~alloc_w:(M.allocated_words () -. a0);
    dt

(* serve-session: one closed-loop client replaying an edit-compile-simulate
   session.  Mix: 35% new designs, 25% byte-identical recompiles, 20%
   recompiles with one unit edited, 10% one-defect designs that must be
   rejected, 10% short simulations.  Only the defect share was specified;
   the other weights, the 16-module recency window and the simulation size
   are assumptions, not taken from recorded sessions, which is why the
   latency of each kind is also reported on its own. *)
type expectation =
  | Units of string list
  | Rejected_at of int
  | Ticks of int list

type planned = { rq : Serve_protocol.request; expect : expectation; kind : string }

let session_plan cfg ~salt =
  let r = G.rng ~seed:cfg.seed ~salt in
  let nm = G.namer r in
  let recent = ref [] in
  let remember m v =
    recent := (m, v) :: List.filteri (fun i (m', _) -> i < 15 && m' != m) !recent
  in
  let compile d = Serve_protocol.request ~source:d.G.source Serve_protocol.Compile in
  fun () ->
    let roll = Random.State.int r 100 in
    match !recent with
    | _ when roll >= 90 ->
      let d = G.chain_design nm ~stages:5 ~watch:(G.int r 1 2) ~horizon_ns:640 in
      {
        rq =
          Serve_protocol.request ~source:d.G.source ~top:d.G.top ~max_ns:640
            Serve_protocol.Simulate;
        expect = Ticks d.G.ticks_ns;
        kind = "simulate";
      }
    | _ when roll >= 80 ->
      let d = G.defective_design r nm in
      { rq = compile d; expect = Rejected_at d.G.defect_line; kind = "defect" }
    | (_ :: _ as rs) when roll >= 35 ->
      let m, v = List.nth rs (Random.State.int r (List.length rs)) in
      let v, kind = if roll >= 60 then (v + 1, "edit") else (v, "recompile") in
      remember m v;
      let d = G.module_design m ~variant:v in
      { rq = compile d; expect = Units d.G.keys; kind }
    | _ ->
      let m = G.new_module r nm in
      remember m 0;
      let d = G.module_design m ~variant:0 in
      { rq = compile d; expect = Units d.G.keys; kind = "new" }

(* "simulated horizon at 640 ns: 12 delta cycles, 34 events" *)
let sim_counts body =
  List.find_map
    (fun l ->
      if starts "simulated " l then
        Scanf.sscanf_opt l "simulated %s at %d ns: %d delta cycles, %d events" (fun _ _ d e ->
            (d, e))
      else None)
    (lines body)

let response_ok (p : planned) (resp : Serve_protocol.response) =
  let body = resp.Serve_protocol.rs_body in
  let status = resp.Serve_protocol.rs_status in
  let no_internal = not (List.exists (fun l -> contains l "[internal") (lines body)) in
  no_internal
  &&
  match p.expect with
  | Units keys -> status = Serve_protocol.Ok_ && compiled_keys body = keys
  | Rejected_at line ->
    status = Serve_protocol.Error_
    && List.exists (starts (Printf.sprintf "diag line %d: error: " line)) (lines body)
  | Ticks ticks ->
    let seen =
      List.filter_map
        (fun l ->
          if starts "message " l then
            Scanf.sscanf_opt l "message %d ns %s@: %s@\n" (fun t _ text ->
                if text = "tick" then Some t else None)
            |> Option.join
          else None)
        (lines body)
    in
    status = Serve_protocol.Ok_ && seen = ticks && sim_counts body <> None

let serve_stream ?(on_answer = fun _ _ -> ()) ?(on_kind = fun _ -> ()) cfg dm ~salt =
  let plan = session_plan cfg ~salt in
  fun () ->
    let p = plan () in
    on_kind p.kind;
    let resp, dt =
      M.time (fun () ->
          span "request" (fun () -> Serve_client.roundtrip ~timeout_s:60.0 ~socket:dm.socket p.rq))
    in
    (match resp with
    | Ok resp ->
      check (response_ok p resp) ("serve " ^ p.kind ^ ": " ^ resp.Serve_protocol.rs_body);
      on_answer p resp
    | Error e ->
      check false ("serve " ^ p.kind ^ ": transport: " ^ e);
      lost := Some e);
    dt

(* simulate-long: one divider chain compiled and elaborated once, then run
   in consecutive 10 us horizons. *)
let chain_stages = 32
let chunk_ns = 10_000

let simulate_stream ?(on_chunk = fun ~alloc_w:_ _ -> ()) cfg ~salt =
  let r = G.rng ~seed:cfg.seed ~salt in
  let nm = G.namer r in
  let watch = G.int r 6 9 in
  let d = G.chain_design nm ~stages:chain_stages ~watch ~horizon_ns:0 in
  let c = Vhdl_compiler.create () in
  compile_checked ~what:"chain compile" c d;
  let sim = Vhdl_compiler.elaborate ~trace:false c ~top:d.G.top () in
  let k = Vhdl_compiler.kernel sim in
  let horizon = ref 0 in
  let next () =
    horizon := !horizon + chunk_ns;
    let a0 = M.allocated_words () in
    let outcome, dt =
      M.time (fun () -> span "kernel" (fun () -> Vhdl_compiler.run c sim ~max_ns:!horizon))
    in
    on_chunk ~alloc_w:(M.allocated_words () -. a0) (Kernel.stats k);
    check
      (outcome = Kernel.Time_limit
      && Kernel.now k = !horizon * Rt.ns
      && tick_times_ns (Vhdl_compiler.messages sim) = G.chain_ticks ~watch ~horizon_ns:!horizon)
      (Printf.sprintf "divider chain ticks up to %d ns" !horizon);
    dt
  in
  (next, k)

(* ------------------------------------------------------------------ *)
(* Untraced workload runs: end-to-end metrics *)

(* Host speed.  The hosts this runs on swing by 20-40% within minutes, and
   CPU time swings with wall time, so a raw time says as much about the
   neighbours as about the compiler.  An untraced run therefore also times
   a reference computation that shares no code with the compiler
   (calibrate.exe) every [seconds / reference_samples], between
   operations, and divides every time it reports by the host factor of
   that moment: the reference time then, over [reference_s].  Figures so
   read as they would on a host where the reference takes [reference_s]. *)
let reference_s = 0.015
let reference_samples = 60
let setup_samples = 21

let calibrate cfg () =
  let exe = Filename.concat (Filename.dirname Sys.executable_name) "calibrate.exe" in
  let c = M.run ~scratch:cfg.scratch exe [] in
  check (M.exited_ok c) "reference computation";
  c.M.wall_s

(* The host factor at time [t]: the mean of the reference samples taken
   just before and just after it.  [refs] is in time order. *)
let host_factor refs t =
  let rec go prev = function
    | (ts, r) :: _ when ts > t -> (
      match prev with Some p -> (p +. r) /. 2.0 | None -> r)
    | (_, r) :: rest -> go (Some r) rest
    | [] -> Option.value prev ~default:reference_s
  in
  go None refs /. reference_s

(* Run [next] closed-loop for the configured time and return each
   operation's latency divided by its host factor, in order.  Set-up is
   sampled at evenly spaced moments, between operations and off the
   clock, and normalized the same way; it becomes [setup_s]. *)
let run_until cfg ~setup next =
  let t0 = M.now () in
  let deadline = ref (t0 +. cfg.seconds) in
  let refs = ref [] and setups = ref [] and ops = ref [] in
  (* off-the-clock work pushes the deadline back by its own duration *)
  let aside f =
    let t = M.now () in
    let v = f () in
    deadline := !deadline +. (M.now () -. t);
    (t, v)
  in
  let due n total = M.now () -. t0 >= float_of_int n *. cfg.seconds /. float_of_int total in
  let rec go () =
    if List.length !refs < reference_samples && due (List.length !refs) reference_samples then begin
      refs := aside (calibrate cfg) :: !refs;
      go ()
    end
    else if List.length !setups < setup_samples && due (List.length !setups) setup_samples then begin
      setups := aside setup :: !setups;
      go ()
    end
    else if !lost = None && M.now () < !deadline then begin
      let t = M.now () in
      let dt = next () in
      ops := (t +. (dt /. 2.0), dt) :: !ops;
      go ()
    end
  in
  go ();
  (* samples still due when the last operation overran the deadline *)
  while List.length !setups < setup_samples do
    setups := aside setup :: !setups
  done;
  refs := aside (calibrate cfg) :: !refs;
  let refs = List.rev !refs in
  let normalize (t, v) = v /. host_factor refs t in
  Printf.eprintf "perfbench: raw medians: set-up %.2f ms, operation %.3f ms; host factor %.4f\n%!"
    (ms (M.median (List.map snd !setups)))
    (ms (M.median (List.map snd !ops)))
    (M.median (List.map (fun (_, r) -> r /. reference_s) refs));
  metric "setup_s" "s" (M.median (List.map normalize !setups));
  List.rev_map normalize !ops

let op_metrics ~p50 ~tail =
  metric "op_ms_p50" "ms" (ms p50);
  metric "op_ms_tail" "ms" (ms tail)

let cli_oneshot cfg =
  let lines_done = ref 0 and n = ref 0 and heaps = ref [] in
  let toks = ref 0 and units = ref 0 and alloc = ref 0.0 and top = ref 0.0 in
  let on_launch (d : G.design) (c : M.child) =
    incr n;
    lines_done := !lines_done + d.G.lines;
    let stat k = Option.value (M.gc_exit_stat c.M.err k) ~default:nan in
    heaps := stat "top_heap_words" :: !heaps;
    if !n <= 4 then begin
      alloc := !alloc +. stat "allocated_words";
      top := Float.max !top (stat "top_heap_words");
      units := !units + List.length d.G.keys;
      toks := !toks + List.length (Lexer.tokenize d.G.source)
    end
  in
  let times = run_until cfg ~setup:(setup_oneshot cfg) (oneshot_stream ~on_launch cfg ~salt:1) in
  op_metrics ~p50:(M.median times) ~tail:(M.quantile 0.9 times);
  metric "work_per_s" "1/s" (float_of_int !lines_done /. M.sum times);
  (* the peak heap a launch needs, averaged over the launches *)
  metric "peak_heap_mb" "MB" (mb_of_words (M.sum !heaps /. float_of_int (List.length !heaps)));
  count "first_project.tokens" (float_of_int !toks);
  count "first_project.units" (float_of_int !units);
  count "first_project.allocated_words" !alloc;
  count "first_project.top_heap_words" !top

(* Force the compiler's one-time set-up before timing anything in-process. *)
let warm_up () =
  let nm = G.namer (G.rng ~seed:0 ~salt:99) in
  compile_checked ~what:"warm-up" (Vhdl_compiler.create ()) (G.trivial_unit nm)

let analyze_large cfg =
  warm_up ();
  let sizes = [ small_lines; large_lines ] in
  let ncells = List.length (cells sizes) in
  let lines = ref 0 and n = ref 0 and cell_lines = Array.make ncells [] in
  let toks = ref 0 and units = ref 0 and alloc = ref 0.0 in
  let on_compile (d : G.design) ~alloc_w =
    let cell = !n mod ncells in
    cell_lines.(cell) <- float_of_int d.G.lines :: cell_lines.(cell);
    incr n;
    if !n <= ncells then begin
      toks := !toks + List.length (Lexer.tokenize d.G.source);
      units := !units + List.length d.G.keys;
      alloc := !alloc +. alloc_w
    end
    else lines := !lines + d.G.lines
  in
  let next = analyze_stream ~on_compile cfg ~salt:1 ~sizes in
  (* one unmeasured pass over every cell, back to back: it fixes the exact
     counts and the peak heap, which the samples interleaved with measured
     operations would perturb *)
  for _ = 1 to ncells do
    ignore (next ())
  done;
  let top = float_of_int (Gc.quick_stat ()).Gc.top_heap_words in
  let times = run_until cfg ~setup:(setup_probe cfg "compile") next in
  (* measured operation i compiled a design of cell (i mod ncells) *)
  let by_cell = Array.make ncells [] in
  List.iteri (fun i dt -> by_cell.(i mod ncells) <- dt :: by_cell.(i mod ncells)) times;
  let medians =
    List.filter_map (function [] -> None | ts -> Some (M.median ts)) (Array.to_list by_cell)
  in
  (* a typical first compile: the geometric mean over shape x size cells of
     each cell's median; the tail: the slowest cell's median *)
  op_metrics ~p50:(M.geomean medians) ~tail:(List.fold_left Float.max 0.0 medians);
  (* the worst shape's log-log slope of median compile time, large against
     small, over the whole run; cells alternate small and large per shape *)
  if List.length medians = ncells then begin
    let slope k =
      let small = 2 * k and large = (2 * k) + 1 in
      log (List.nth medians large /. List.nth medians small)
      /. log (M.median cell_lines.(large) /. M.median cell_lines.(small))
    in
    Printf.eprintf "perfbench: scale slope of the run's cell medians: %.3f\n%!"
      (List.fold_left Float.max neg_infinity (List.init (ncells / 2) slope))
  end;
  metric "work_per_s" "1/s" (float_of_int !lines /. M.sum times);
  metric "peak_heap_mb" "MB" (mb_of_words top);
  count "first_pass.tokens" (float_of_int !toks);
  count "first_pass.units" (float_of_int !units);
  count "first_pass.allocated_words" !alloc;
  count "first_pass.top_heap_words" top

let request_kinds = [ "new"; "recompile"; "edit"; "defect"; "simulate" ]

(* The median latency of each request kind, from (kind, seconds) pairs *)
let kind_medians pairs =
  List.map
    (fun k -> (k, M.median (List.filter_map (fun (k', t) -> if k' = k then Some t else None) pairs)))
    request_kinds

let serve_session cfg =
  let kinds = ref [] in
  let n = ref 0 and units = ref 0 and rejected = ref 0 and deltas = ref 0 and events = ref 0 in
  let on_answer (_ : planned) (resp : Serve_protocol.response) =
    incr n;
    if !n <= 64 then begin
      let body = resp.Serve_protocol.rs_body in
      units := !units + List.length (compiled_keys body);
      if resp.Serve_protocol.rs_status = Serve_protocol.Error_ then incr rejected;
      match sim_counts body with
      | Some (d, e) ->
        deltas := !deltas + d;
        events := !events + e
      | None -> ()
    end
  in
  let dm = start_daemon ~gc_stats:true cfg "serve" in
  let times =
    Fun.protect
      ~finally:(fun () -> stop_daemon dm)
      (fun () ->
        (* the daemon's own start is set-up, sampled during the run *)
        ignore (first_answer dm (Serve_protocol.request Serve_protocol.Ping));
        run_until cfg ~setup:(setup_serve cfg)
          (serve_stream ~on_answer ~on_kind:(fun k -> kinds := k :: !kinds) cfg dm ~salt:1))
  in
  op_metrics ~p50:(M.median times) ~tail:(M.quantile 0.99 times);
  Printf.eprintf "perfbench: median request by kind:%s\n%!"
    (String.concat ","
       (List.map
          (fun (k, t) -> Printf.sprintf " %s %.3f ms" k (ms t))
          (kind_medians (List.combine (List.rev !kinds) times))));
  metric "work_per_s" "1/s" (float_of_int (List.length times) /. M.sum times);
  let err = M.read_file dm.err in
  (match M.gc_exit_stat err "top_heap_words" with
  | Some w -> metric "peak_heap_mb" "MB" (mb_of_words w)
  | None ->
    check false "serve: the daemon printed no GC exit statistics";
    let n = min 2000 (String.length err) in
    Printf.eprintf "perfbench: the daemon died; the end of its stderr:\n%s\n%!"
      (String.sub err (String.length err - n) n));
  count "first_64.units" (float_of_int !units);
  count "first_64.rejected" (float_of_int !rejected);
  count "first_64.delta_cycles" (float_of_int !deltas);
  count "first_64.events" (float_of_int !events)

let simulate_long cfg =
  let n = ref 0 and alloc = ref 0.0 in
  let on_chunk ~alloc_w (st : Kernel.stats) =
    incr n;
    if !n <= 3 then alloc := !alloc +. alloc_w;
    if !n = 3 then begin
      count "first_3_chunks.events" (float_of_int st.Kernel.events);
      count "first_3_chunks.delta_cycles" (float_of_int st.Kernel.delta_cycles);
      count "first_3_chunks.process_runs" (float_of_int st.Kernel.process_runs);
      count "first_3_chunks.allocated_words" !alloc
    end
  in
  let next, kernel = simulate_stream ~on_chunk cfg ~salt:1 in
  let times = run_until cfg ~setup:(setup_probe cfg "simulate") next in
  op_metrics ~p50:(M.median times) ~tail:(M.quantile 0.9 times);
  metric "work_per_s" "1/s" (float_of_int (Kernel.stats kernel).Kernel.events /. M.sum times);
  metric "peak_heap_mb" "MB" (own_top_heap_mb ())

(* ------------------------------------------------------------------ *)
(* Traced runs: per-layer experiments on seeded inputs.  Each times the
   public entry point of one layer under a span. *)

let startup_layer () =
  let rep () =
    let a0 = M.allocated_words () in
    let (), sps =
      traced (fun () ->
          let g =
            span "grammar" (fun () ->
                let g = Main_grammar.build () in
                ignore (Parsing.create ~name:"principal VHDL AG" g ~eof:"EOF");
                g)
          in
          let a = span "snc" (fun () -> Analysis.compute g) in
          ignore (span "plan" (fun () -> Analysis.plan a));
          span "expr_ag" (fun () ->
              ignore (Parsing.create ~name:"expression AG" (Expr_grammar.build ()) ~eof:"LEOF")))
    in
    (sps, M.allocated_words () -. a0)
  in
  let reps = List.init 3 (fun _ -> rep ()) in
  let med name = ms (M.median (List.concat_map (fun (sps, _) -> self_times name sps) reps)) in
  metric "startup.grammar_ms" "ms" (med "grammar");
  metric "startup.snc_ms" "ms" (med "snc");
  metric "startup.plan_ms" "ms" (med "plan");
  metric "startup.expr_ag_ms" "ms" (med "expr_ag");
  metric "startup.alloc_mb" "MB" (mb_of_words (M.median (List.map snd reps)))

(* Lexer, LALR driver and analysis on [front_rounds] distinct designs of
   every shape x size cell, so every compile is a first compile.  Each
   round visits every cell in turn, so a drift in host speed falls on small
   and large designs alike; every figure is a median over the rounds. *)
let front_rounds = 3

type front_row = {
  shape : G.shape;
  size : int; (* the cell's target size *)
  nlines : int;
  ntok : int;
  lex : float;
  parse : float;
  compile : float;
  compile_w : float; (* words the compile allocated *)
}

let front_layers cfg =
  let r = G.rng ~seed:cfg.seed ~salt:40 in
  let nm = G.namer r in
  let row (shape, size) =
    let d = G.large r nm shape ~lines:size in
    let toks, sps =
      traced (fun () ->
          List.init 3 (fun _ ->
              let toks = span "lexer" (fun () -> Analyze.tokens_of_source d.G.source) in
              ignore
                (span "lalr" (fun () ->
                     Parsing.parse_list (Main_grammar.parser_ ()) ~eof_value:Pval.Unit toks));
              toks))
    in
    let a0 = M.allocated_words () in
    let (), csp =
      traced (fun () -> span "compile" (fun () -> compile_checked (Vhdl_compiler.create ()) d))
    in
    {
      shape;
      size;
      nlines = d.G.lines;
      ntok = List.length (List.hd toks);
      lex = M.median (self_times "lexer" sps);
      parse = M.median (self_times "lalr" sps);
      compile = List.hd (self_times "compile" csp);
      compile_w = M.allocated_words () -. a0;
    }
  in
  let rounds = List.init front_rounds (fun _ -> List.map row (cells [ small_lines; large_lines ])) in
  let over_rounds f = M.median (List.map f rounds) in
  let sum f rs = M.sum (List.map f rs) in
  let toks rs = sum (fun x -> float_of_int x.ntok) rs in
  let line_count rs = sum (fun x -> float_of_int x.nlines) rs in
  metric "lexer.tokens_per_s" "1/s" (over_rounds (fun rs -> toks rs /. sum (fun x -> x.lex) rs));
  metric "lalr.tokens_per_s" "1/s" (over_rounds (fun rs -> toks rs /. sum (fun x -> x.parse) rs));
  let per_line size rs =
    let rs = List.filter (fun x -> x.size = size) rs in
    sum (fun x -> x.compile -. x.lex -. x.parse) rs *. 1e6 /. line_count rs
  in
  metric "analysis.us_per_line.small" "us" (over_rounds (per_line small_lines));
  metric "analysis.us_per_line.large" "us" (over_rounds (per_line large_lines));
  metric "analysis.alloc_kb_per_line" "KB"
    (over_rounds (fun rs ->
         sum (fun x -> x.compile_w) rs *. float_of_int (Sys.word_size / 8) /. 1024.0 /. line_count rs));
  (* the log-log slope of a shape's median compile time, large against small *)
  let slope shape =
    let cell size f =
      over_rounds (fun rs -> f (List.find (fun x -> x.shape = shape && x.size = size) rs))
    in
    let time size = cell size (fun x -> x.compile) in
    let nlines size = cell size (fun x -> float_of_int x.nlines) in
    log (time large_lines /. time small_lines) /. log (nlines large_lines /. nlines small_lines)
  in
  metric "analysis.scale_slope" "ratio"
    (List.fold_left (fun acc s -> Float.max acc (slope s)) neg_infinity G.all_shapes)

(* The cascade: classify scanner tokens against an environment, then run
   the expression AG; every folded value is known to the generator. *)
let cascade_layer cfg =
  let r = G.rng ~seed:cfg.seed ~salt:50 in
  let consts = G.cascade_constants r in
  let env =
    Env.extend_many (Std.env ())
      (Array.to_list
         (Array.map
            (fun (name, v) ->
              ( name,
                Denot.Dobject
                  {
                    name;
                    cls = Denot.Cconstant;
                    ty = Std.integer;
                    mode = None;
                    slot = Denot.Sl_static (Value.Vint v);
                  } ))
            consts))
  in
  let exprs = List.init 400 (fun _ -> G.const_expr r consts) in
  let session = Session.in_memory [] in
  let a0 = M.allocated_words () in
  let (), sps =
    traced (fun () ->
        Session.with_session session (fun () ->
            List.iteri
              (fun i (text, v) ->
                let x =
                  span "cascade" (fun () ->
                      Expr_eval.eval ~level:0 ~line:(i + 1)
                        (Cascade_driver.classify_tokens ~env (Lexer.tokenize text)))
                in
                check (x.Pval.x_static = Some (Value.Vint v)) ("cascade value of " ^ text))
              exprs))
  in
  let alloc = M.allocated_words () -. a0 in
  let n = float_of_int (List.length exprs) in
  metric "cascade.exprs_per_s" "1/s" (n /. M.sum (self_times "cascade" sps));
  metric "cascade.alloc_kb_per_expr" "KB"
    (alloc *. float_of_int (Sys.word_size / 8) /. 1024.0 /. n)

(* VIF: write compiled units into a disk-backed library, then drop the
   cache and read them back. *)
let vif_layer cfg =
  let r = G.rng ~seed:cfg.seed ~salt:60 in
  let nm = G.namer r in
  let d = G.large r nm G.Package ~lines:small_lines in
  let units = Vhdl_compiler.compile (Vhdl_compiler.create ()) d.G.source in
  check (unit_keys units = d.G.keys) "vif: source units";
  let reps =
    List.init 5 (fun i ->
        let dir = Filename.concat cfg.scratch (Printf.sprintf "vif%d" i) in
        let lib = Library.create ~dir ~name:"WORK" () in
        let (), sps =
          traced (fun () ->
              span "vif_write" (fun () -> List.iter (Library.insert lib) units);
              Library.clear_cache lib;
              span "vif_read" (fun () ->
                  List.iter
                    (fun u ->
                      let key = u.Unit_info.u_key in
                      check
                        (match Library.find lib ~library:"WORK" ~key with
                        | Some u' -> u'.Unit_info.u_key = key
                        | None -> false)
                        ("vif: read back " ^ key))
                    units))
        in
        let bytes =
          Array.fold_left
            (fun acc f -> acc + (Unix.stat (Filename.concat dir f)).Unix.st_size)
            0 (Sys.readdir dir)
        in
        (sps, bytes))
  in
  let med name = ms (M.median (List.concat_map (fun (sps, _) -> self_times name sps) reps)) in
  metric "vif.write_ms" "ms" (med "vif_write");
  metric "vif.read_ms" "ms" (med "vif_read");
  metric "vif.bytes" "B" (float_of_int (snd (List.hd reps)))

(* Elaboration of the divider chain, then the kernel over a fixed horizon. *)
let sim_layers cfg =
  let r = G.rng ~seed:cfg.seed ~salt:70 in
  let nm = G.namer r in
  let watch = G.int r 6 9 and horizon_ns = 2 * chunk_ns in
  let d = G.chain_design nm ~stages:chain_stages ~watch ~horizon_ns in
  let c = Vhdl_compiler.create () in
  compile_checked ~what:"chain compile" c d;
  let sims, sps =
    traced (fun () ->
        List.init 3 (fun _ ->
            span "elab" (fun () -> Vhdl_compiler.elaborate ~trace:false c ~top:d.G.top ())))
  in
  metric "elab.ms" "ms" (ms (M.median (self_times "elab" sps)));
  let sim = List.hd sims in
  let a0 = M.allocated_words () in
  let _, ksp = traced (fun () ->
      span "kernel" (fun () -> Vhdl_compiler.run c sim ~max_ns:horizon_ns)) in
  let alloc = M.allocated_words () -. a0 in
  check (tick_times_ns (Vhdl_compiler.messages sim) = d.G.ticks_ns) "kernel: divider chain ticks";
  let st = Kernel.stats (Vhdl_compiler.kernel sim) in
  let dt = List.hd (self_times "kernel" ksp) in
  let events = float_of_int st.Kernel.events in
  metric "kernel.events_per_s" "1/s" (events /. dt);
  metric "kernel.us_per_delta" "us" (dt *. 1e6 /. float_of_int st.Kernel.delta_cycles);
  metric "kernel.alloc_b_per_event" "B" (alloc *. float_of_int (Sys.word_size / 8) /. events)

(* Serve overhead: the daemon round trip minus an in-process replay of the
   same requests on the daemon's worker.  The round trips' median per
   request kind separates cache hits (identical recompiles) from misses, so
   a cache's effect does not hang on the session's assumed mix. *)
let serve_layer cfg =
  let n = 300 in
  let kinds = ref [] in
  let round_trips =
    with_daemon cfg "layer" (fun dm ->
        ignore (first_answer dm (Serve_protocol.request Serve_protocol.Ping));
        let next = serve_stream ~on_kind:(fun k -> kinds := k :: !kinds) cfg dm ~salt:80 in
        List.init n (fun _ -> next ()))
  in
  List.iter
    (fun (k, t) -> metric ("serve.request_ms_p50." ^ k) "ms" (ms t))
    (kind_medians (List.combine (List.rev !kinds) round_trips));
  let plan = session_plan cfg ~salt:80 in
  let w = Serve_worker.create Serve_worker.default_config in
  let in_process =
    List.init n (fun _ ->
        let p = plan () in
        let resp, dt = M.time (fun () -> Serve_worker.handle w p.rq) in
        check (response_ok p resp) ("in-process replay " ^ p.kind);
        dt)
  in
  metric "serve.overhead_ms_p50" "ms" (ms (M.median round_trips -. M.median in_process))

(* Tracing overhead: two streams of the same shape sequence advanced in
   lockstep, one untraced and one traced. *)
let trace_overhead cfg ~budget =
  let go pair_stream =
    let a = pair_stream 11 and b = pair_stream 12 in
    let deadline = M.now () +. budget in
    let rec loop ua ta =
      if M.now () >= deadline && ua <> [] then (ua, ta)
      else
        let u = a () in
        let t, _ = traced b in
        loop (u :: ua) (t :: ta)
    in
    loop [] []
  in
  let untraced, traced_ =
    match cfg.workload with
    | "cli-oneshot" -> go (fun salt -> oneshot_stream cfg ~salt)
    | "analyze-large" -> go (fun salt -> analyze_stream cfg ~salt ~sizes:[ small_lines ])
    | "simulate-long" -> go (fun salt -> fst (simulate_stream cfg ~salt))
    | _ ->
      with_daemon cfg "pairs" (fun dm ->
          ignore (first_answer dm (Serve_protocol.request Serve_protocol.Ping));
          go (fun salt -> serve_stream cfg dm ~salt))
  in
  metric "trace.overhead_pct" "%" (100.0 *. ((M.sum traced_ /. M.sum untraced) -. 1.0))

let per_layer cfg =
  let t0 = M.now () in
  warm_up ();
  startup_layer ();
  front_layers cfg;
  cascade_layer cfg;
  vif_layer cfg;
  sim_layers cfg;
  serve_layer cfg;
  trace_overhead cfg ~budget:(Float.max 1.0 (cfg.seconds -. (M.now () -. t0)))

(* ------------------------------------------------------------------ *)

let workloads =
  [
    ("cli-oneshot", cli_oneshot);
    ("analyze-large", analyze_large);
    ("serve-session", serve_session);
    ("simulate-long", simulate_long);
  ]

let json_object fields = "{" ^ String.concat ", " fields ^ "}"

let print_result () =
  let ms_ =
    List.rev_map
      (fun (name, v, unit) ->
        Printf.sprintf "%s: {\"value\": %s, \"unit\": %s}" (M.json_string name)
          (M.json_number v) (M.json_string unit))
      !metrics
  in
  if !counts <> [] then
    print_endline
      (json_object
         [
           "\"counts\": "
           ^ json_object
               (List.rev_map
                  (fun (k, v) -> Printf.sprintf "%s: %s" (M.json_string k) (M.json_number v))
                  !counts);
         ]);
  let correct =
    !failed = 0 && !attempted > 0
    && List.for_all (fun (_, v, _) -> Float.is_finite v) !metrics
  in
  print_endline
    (json_object
       [
         Printf.sprintf "\"correct\": %b" correct;
         Printf.sprintf "\"attempted\": %d" (max 1 !attempted);
         Printf.sprintf "\"failed\": %d" !failed;
         "\"metrics\": " ^ json_object ms_;
       ])

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10.0 and trace = ref 0 in
  let vhdlc = ref "" and scratch = ref "" and probe_kind = ref "" in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME workload to run");
      ("--seed", Arg.Set_int seed, "N input seed");
      ("--seconds", Arg.Set_float seconds, "S measurement time");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end (0) or per-layer (1) metrics");
      ("--vhdlc", Arg.Set_string vhdlc, "PATH the vhdlc executable");
      ("--scratch", Arg.Set_string scratch, "DIR where every output goes");
      ("--probe", Arg.Set_string probe_kind, "KIND set-up probe (internal)");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "bench.exe --workload W --seed N --seconds S --trace 0|1 --vhdlc PATH --scratch DIR";
  if !probe_kind <> "" then exit (probe !probe_kind !seed);
  match List.assoc_opt !workload workloads with
  | None ->
    prerr_endline ("perfbench: unknown workload " ^ !workload);
    exit 2
  | Some run ->
    if !vhdlc = "" || !scratch = "" then begin
      prerr_endline "perfbench: --vhdlc and --scratch are required";
      exit 2
    end;
    let cfg =
      {
        workload = !workload;
        seed = !seed;
        seconds = !seconds;
        trace = !trace = 1;
        vhdlc = !vhdlc;
        scratch = !scratch;
      }
    in
    (* a client must survive a daemon that hangs up mid-reply *)
    Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
    if cfg.trace then per_layer cfg else run cfg;
    print_result ()
