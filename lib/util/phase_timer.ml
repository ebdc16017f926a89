(** Per-phase wall-clock {e and} allocation accounting, built on the
    telemetry span layer.

    Used by the compilation pipeline to reproduce the paper's §2.2 phase
    breakdown (VIF read/write 40-60%, code generation 20-30%, attribute
    evaluation "a very small percent").

    Phases nest: the cascade runs inside attribute evaluation, VIF reads
    happen inside both.  Each [time]/[time_ambient] call pushes a frame on
    a process-wide stack and charges only its {e self time} — total minus
    the time spent in nested frames — to its phase, so the breakdown sums
    to wall clock without the negative-adjustment bookkeeping this module's
    callers used to do by hand.  Allocated words ride the same frame
    stack with the same child-subtraction, so the per-phase allocation
    breakdown sums to the run's GC allocation delta.  Every frame is also
    recorded as a telemetry span (category ["phase"]) from the same two
    clock reads, so the phase table and the span tree cannot disagree.

    Layers that cannot see the compiler's timer (the cascade, the VIF
    library) charge the {e ambient} timer: whichever timer's [time] frame
    is dynamically enclosing.  Outside any [time] extent, [time_ambient]
    with tracing off is a plain call. *)

module Telemetry = Vhdl_telemetry.Telemetry

type cost = { seconds : float; words : float }

type t = {
  mutable phases : string list; (* reverse order of first use *)
  table : (string, cost ref) Hashtbl.t; (* self-time and self-allocation *)
}

let create () = { phases = []; table = Hashtbl.create 16 }

let cell t name =
  match Hashtbl.find_opt t.table name with
  | Some r -> r
  | None ->
    let r = ref { seconds = 0.0; words = 0.0 } in
    Hashtbl.add t.table name r;
    t.phases <- name :: t.phases;
    r

(* ------------------------------------------------------------------ *)
(* The process-wide frame stack (the compiler is single-threaded) *)

type frame = {
  f_timer : t option; (* where this frame's self time is charged *)
  f_name : string;
  mutable f_child : float; (* seconds spent in nested frames *)
  mutable f_child_aw : float; (* words allocated by nested frames *)
}

let stack : frame list ref = ref []
let ambient : t option ref = ref None

(* per-phase allocation is also a process-wide telemetry counter
   (phase.alloc_b.<name>, bytes) so `--metrics` carries the memory
   breakdown without a handle on the timer *)
let metric_name name =
  let buf = Buffer.create (String.length name + 13) in
  Buffer.add_string buf "phase.alloc_b.";
  String.iter
    (fun c ->
      match c with
      | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '.' | '_' -> Buffer.add_char buf c
      | _ -> Buffer.add_char buf '_')
    name;
  Buffer.contents buf

let run_frame timer name f =
  let frame = { f_timer = timer; f_name = name; f_child = 0.0; f_child_aw = 0.0 } in
  (* register the phase at frame open so [report] lists phases in order of
     first use, not first completion *)
  (match timer with Some t -> ignore (cell t name) | None -> ());
  stack := frame :: !stack;
  let start = Telemetry.now_s () in
  let aw0 = Telemetry.allocated_words_now () in
  Fun.protect
    ~finally:(fun () ->
      let total_aw = Telemetry.allocated_words_now () -. aw0 in
      let total = Telemetry.now_s () -. start in
      (match !stack with
      | top :: rest when top == frame -> stack := rest
      | _ -> () (* an escape unwound through us; leave the stack alone *));
      (match !stack with
      | parent :: _ ->
        parent.f_child <- parent.f_child +. total;
        parent.f_child_aw <- parent.f_child_aw +. total_aw
      | [] -> ());
      let self_aw = Float.max 0.0 (total_aw -. frame.f_child_aw) in
      (match frame.f_timer with
      | Some t ->
        let r = cell t frame.f_name in
        r :=
          {
            seconds = !r.seconds +. (total -. frame.f_child);
            words = !r.words +. self_aw;
          }
      | None -> ());
      Telemetry.add
        (Telemetry.counter (metric_name frame.f_name))
        (int_of_float (self_aw *. float_of_int Telemetry.bytes_per_word));
      Telemetry.record_span ~cat:"phase" ~alloc_w:total_aw ~name:frame.f_name
        ~start_s:start ~dur_s:total ();
      (* phase boundary: refresh the gc.* gauges so metrics exports see the
         heap as it stood when the last phase closed *)
      Telemetry.sample_gc ())
    f

(** [time t name f] runs [f ()] charging its self time to phase [name] of
    [t], and makes [t] the ambient timer for the dynamic extent of [f]. *)
let time t name f =
  let saved = !ambient in
  ambient := Some t;
  Fun.protect
    ~finally:(fun () -> ambient := saved)
    (fun () -> run_frame (Some t) name f)

(** [time_ambient name f] charges a frame to the ambient timer — the timer
    of the dynamically enclosing [time], if any.  With no ambient timer and
    tracing off this is a plain call to [f]. *)
let time_ambient name f =
  match !ambient with
  | Some _ as timer -> run_frame timer name f
  | None -> if Telemetry.tracing () then run_frame None name f else f ()

let total t =
  Hashtbl.fold
    (fun _ r acc ->
      { seconds = acc.seconds +. !r.seconds; words = acc.words +. !r.words })
    t.table
    { seconds = 0.0; words = 0.0 }

(** Phases in order of first use, with accumulated self cost. *)
let report t = List.rev_map (fun name -> (name, !(Hashtbl.find t.table name))) t.phases

let pp_bytes fmt b =
  if b >= 1048576.0 then Format.fprintf fmt "%8.1fMB" (b /. 1048576.0)
  else if b >= 1024.0 then Format.fprintf fmt "%8.1fkB" (b /. 1024.0)
  else Format.fprintf fmt "%8.0fB " b

let pp fmt t =
  let tot = total t in
  let secs = if tot.seconds <= 0.0 then 1.0 else tot.seconds in
  let bytes c = c.words *. float_of_int Telemetry.bytes_per_word in
  Format.fprintf fmt "@[<v>";
  List.iter
    (fun (name, c) ->
      Format.fprintf fmt "%-28s %8.4fs  (%5.1f%%)  alloc %a@," name c.seconds
        (100.0 *. c.seconds /. secs) pp_bytes (bytes c))
    (report t);
  Format.fprintf fmt "%-28s %8.4fs            alloc %a@]" "total" tot.seconds
    pp_bytes (bytes tot)
