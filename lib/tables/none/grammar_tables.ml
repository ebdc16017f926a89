(* No tables: every fingerprint mismatches, so binding one fails loudly. *)

let none = { Parsing.fingerprint = "none"; n_states = 0; cells = "" }
let principal = none
let principal_plan = ""
let expr = none
