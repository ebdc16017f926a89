(** Phase attribution: the per-request ledger connecting the compiler's
    {!Vhdl_util.Phase_timer} phases, the ["ph_<name>"]/["al_<name>"]
    fields a finish event carries, the per-phase window aggregation in
    {!Obs_slo}, and the "p99 driven by: elaborate 48%" line operators
    read.

    The compiler's phase names are prose ("attribute evaluation",
    "codegen+link (elaboration)"); events want short stable field names
    ("attrs", "elaborate").  The map lives here, in one place, so the
    worker stamping phases, the breach event naming a culprit, and
    [vhdlc analyze] tabulating a log all agree.

    A ledger carries each phase's cost on two axes, microseconds of self
    time (the unit of [service_us] and the SLO window) and bytes of
    self-allocation.  The ["other"] pseudo-phase holds whatever service
    time and allocation no compiler phase claimed, which is what makes
    the per-event invariants "phase sum ≈ latency" and "al_* sum ≈
    alloc_b" hold by construction: phases measure self cost {e inside}
    the worker, the totals are measured around the whole request. *)

let sanitize name =
  String.map
    (fun c ->
      match c with
      | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' -> c
      | _ -> '_')
    name

(** Short, stable field name of a compiler phase. *)
let short_phase = function
  | "scanner" -> "scan"
  | "parser" -> "parse"
  | "attribute evaluation" -> "attrs"
  | "expression evaluation (cascade)" -> "cascade"
  | "VIF read" -> "vif_read"
  | "VIF write" -> "vif_write"
  | "codegen+link (elaboration)" -> "elaborate"
  | "simulation" -> "simulate"
  | other -> sanitize other

type cost = { us : float; bytes : float }

type ledger = {
  service_us : float;
  alloc_b : float; (* minor + direct-major *)
  alloc_minor_b : float;
  alloc_major_b : float; (* promotions excluded *)
  phases : (string * cost) list;
}

let empty =
  {
    service_us = 0.0;
    alloc_b = 0.0;
    alloc_minor_b = 0.0;
    alloc_major_b = 0.0;
    phases = [];
  }

let other = "other"

(** Settle one request's ledger: positive phases short-named, plus the
    ["other"] residual on both axes — service time and allocation no
    compiler phase claimed (queue-adjacent work, protocol framing,
    response delivery, span bookkeeping) — so each axis sums to its
    total exactly as long as the phases fit inside it (they do: self
    cost nests inside the request). *)
let with_other ~service_us (l : ledger) =
  let named =
    List.filter_map
      (fun (name, c) ->
        if c.us > 0.0 || c.bytes > 0.0 then Some (short_phase name, c) else None)
      l.phases
  in
  let residual total get =
    Float.max 0.0 (total -. List.fold_left (fun a (_, c) -> a +. get c) 0.0 named)
  in
  let rest =
    {
      us = residual service_us (fun c -> c.us);
      bytes = residual l.alloc_b (fun c -> c.bytes);
    }
  in
  { l with service_us; phases = named @ [ (other, rest) ] }

(* one axis of a phase table: the phases positive on it, and ["other"]
   always — exactly the ph_* / al_* fields a finish event carries *)
let axis get phases =
  List.filter_map
    (fun (name, c) ->
      let v = get c in
      if v > 0.0 || name = other then Some (name, v) else None)
    phases

let phase_us phases = axis (fun c -> c.us) phases
let phase_b phases = axis (fun c -> c.bytes) phases

(** The finish-event fields of a ledger, in log order: [service_us],
    one ["ph_<name>"] (microseconds) and one ["al_<name>"] (bytes) per
    phase, then the allocation totals the ["al_*"] fields sum to. *)
let fields (l : ledger) =
  let num prefix = List.map (fun (name, v) -> (prefix ^ name, Obs_event.F v)) in
  List.concat
    [
      [ ("service_us", Obs_event.F l.service_us) ];
      num Obs_event.phase_prefix (phase_us l.phases);
      num Obs_event.alloc_prefix (phase_b l.phases);
      [
        ("alloc_b", Obs_event.F l.alloc_b);
        ("alloc_minor_b", Obs_event.F l.alloc_minor_b);
        ("alloc_major_b", Obs_event.F l.alloc_major_b);
      ];
    ]

(** The ledger a finish event carries, read back from its fields; [None]
    for a finish without [service_us] (a request answered before it
    ran).  A phase missing from one axis costs 0 there. *)
let of_event (e : Obs_event.t) =
  match Obs_event.field_num e "service_us" with
  | None -> None
  | Some service_us ->
    let num k = Option.value (Obs_event.field_num e k) ~default:0.0 in
    let timed =
      List.map
        (fun (name, us) -> (name, { us; bytes = 0.0 }))
        (Obs_event.phase_fields e)
    in
    let add_bytes acc (name, bytes) =
      if List.mem_assoc name acc then
        List.map (fun (n, c) -> if n = name then (n, { c with bytes }) else (n, c)) acc
      else acc @ [ (name, { us = 0.0; bytes }) ]
    in
    let phases = List.fold_left add_bytes timed (Obs_event.alloc_fields e) in
    Some
      {
        service_us;
        alloc_b = num "alloc_b";
        alloc_minor_b = num "alloc_minor_b";
        alloc_major_b = num "alloc_major_b";
        phases;
      }

(** ["elaborate 48%, cascade 31%"] — the largest [top] shares of a
    phase table, shares below 1% elided; [""] when there is nothing to
    attribute. *)
let attribution ?(top = 3) (phases_us : (string * float) list) =
  let total = List.fold_left (fun a (_, v) -> a +. v) 0.0 phases_us in
  if total <= 0.0 then ""
  else begin
    let sorted = List.sort (fun (_, a) (_, b) -> compare b a) phases_us in
    let rec take n = function
      | x :: rest when n > 0 -> x :: take (n - 1) rest
      | _ -> []
    in
    take top sorted
    |> List.filter_map (fun (name, us) ->
           let pct = 100.0 *. us /. total in
           if pct < 1.0 then None
           else Some (Printf.sprintf "%s %.0f%%" name pct))
    |> String.concat ", "
  end
