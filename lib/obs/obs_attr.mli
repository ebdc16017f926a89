(** Phase attribution: the per-request ledger of phase costs (self time
    in microseconds, self-allocation in bytes), the short ["ph_<name>"] /
    ["al_<name>"] event fields it becomes, and the "p99 driven by"
    strings rendered from it. *)

val short_phase : string -> string
(** ["attribute evaluation"] → ["attrs"], ["codegen+link (elaboration)"]
    → ["elaborate"], …; unknown names are sanitized to [[A-Za-z0-9_]]. *)

type cost = { us : float; bytes : float }
(** One phase's share of a request: self time and self-allocation. *)

type ledger = {
  service_us : float;
  alloc_b : float; (* minor + direct-major *)
  alloc_minor_b : float;
  alloc_major_b : float; (* promotions excluded *)
  phases : (string * cost) list;
}
(** What one request cost, phase by phase. *)

val empty : ledger

val with_other : service_us:float -> ledger -> ledger
(** Settle a measured ledger: phases positive on either axis, with short
    names, then the ["other"] residual on both axes, so the phases' time
    sums to [service_us] and their bytes to [alloc_b]. *)

val phase_us : (string * cost) list -> (string * float) list
(** The time axis: phases with positive time, and ["other"] always. *)

val phase_b : (string * cost) list -> (string * float) list
(** The allocation axis: phases with positive bytes, and ["other"]
    always. *)

val fields : ledger -> (string * Obs_event.field_value) list
(** The ledger as finish-event fields: [service_us], the [ph_*] axis,
    the [al_*] axis, then [alloc_b], [alloc_minor_b], [alloc_major_b]. *)

val of_event : Obs_event.t -> ledger option
(** The ledger a finish event carries ([None] without [service_us]). *)

val attribution : ?top:int -> (string * float) list -> string
(** ["elaborate 48%, cascade 31%"] — the largest [top] (default 3)
    shares, sub-1% shares elided; [""] when nothing to attribute. *)
