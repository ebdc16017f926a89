(* Timing, statistics and child-process plumbing of the benchmark.  Kept
   apart from the compiler's own lib/perf and lib/telemetry on purpose: the
   benchmark must not share code with what it measures. *)

external now : unit -> float = "perfbench_monotonic_s"

let time f =
  let t0 = now () in
  let r = f () in
  (r, now () -. t0)

(* words allocated so far by this process: minor allocations plus direct
   major allocations (promotions are already counted as minor words) *)
let allocated_words () =
  let _, promoted, major = Gc.counters () in
  Gc.minor_words () +. major -. promoted

(* ------------------------------------------------------------------ *)
(* Statistics *)

(* Quantile by linear interpolation between closest ranks (the "inclusive"
   definition). *)
let quantile q xs =
  match List.sort compare xs with
  | [] -> nan
  | sorted ->
    let a = Array.of_list sorted in
    let n = Array.length a in
    let pos = q *. float_of_int (n - 1) in
    let lo = int_of_float pos in
    let hi = min (n - 1) (lo + 1) in
    let frac = pos -. float_of_int lo in
    a.(lo) +. ((a.(hi) -. a.(lo)) *. frac)

let median xs = quantile 0.5 xs
let sum xs = List.fold_left ( +. ) 0.0 xs

let geomean xs =
  match xs with
  | [] -> nan
  | _ -> exp (sum (List.map log xs) /. float_of_int (List.length xs))

(* ------------------------------------------------------------------ *)
(* Child processes.  Output goes to files so no pipe can fill up and stall
   a child. *)

type child = {
  status : Unix.process_status;
  out : string;
  err : string;
  wall_s : float;
}

let read_file path = In_channel.with_open_bin path In_channel.input_all

let open_out_fd path =
  Unix.openfile path [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644

(* Start [prog args]; the caller must reap the returned pid. *)
let spawn ?(env = Unix.environment ()) ~out ~err prog args =
  let fd_out = open_out_fd out and fd_err = open_out_fd err in
  Fun.protect
    ~finally:(fun () ->
      Unix.close fd_out;
      Unix.close fd_err)
    (fun () ->
      Unix.create_process_env prog (Array.of_list (prog :: args)) env Unix.stdin fd_out
        fd_err)

let rec wait_pid pid =
  match Unix.waitpid [] pid with
  | _, status -> status
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> wait_pid pid

(* Run [prog args] to completion and reap it; [wall_s] is fork+exec to
   reaped exit. *)
let run ?env ~scratch prog args =
  let out = Filename.concat scratch "child.out"
  and err = Filename.concat scratch "child.err" in
  let t0 = now () in
  let pid = spawn ?env ~out ~err prog args in
  let status = wait_pid pid in
  let wall_s = now () -. t0 in
  { status; out = read_file out; err = read_file err; wall_s }

let exited_ok c = c.status = Unix.WEXITED 0

(* An environment that makes an OCaml child print its GC totals at exit
   (OCAMLRUNPARAM=v=0x400): exact counts, read by [gc_exit_stat]. *)
let gc_stats_env () =
  Array.append
    (Array.of_list
       (List.filter
          (fun kv -> not (String.starts_with ~prefix:"OCAMLRUNPARAM=" kv))
          (Array.to_list (Unix.environment ()))))
    [| "OCAMLRUNPARAM=v=0x400" |]

let gc_exit_stat err key =
  let prefix = key ^ ": " in
  String.split_on_char '\n' err
  |> List.find_map (fun l ->
         if String.starts_with ~prefix l then
           float_of_string_opt
             (String.trim (String.sub l (String.length prefix)
                             (String.length l - String.length prefix)))
         else None)

(* ------------------------------------------------------------------ *)
(* JSON output *)

let json_number x =
  if not (Float.is_finite x) then "null"
  else if Float.is_integer x && Float.abs x < 1e15 then Printf.sprintf "%.0f" x
  else Printf.sprintf "%.17g" x

let json_string s = Printf.sprintf "%S" s
