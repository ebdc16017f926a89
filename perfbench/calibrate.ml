(* The benchmark's reference computation: fixed work that shares no code
   with the compiler -- persistent string maps, a hash table and a list
   sort, allocation-heavy like the compiler.  The benchmark times this
   whole process from fork to exit, the way it times a one-shot compile,
   and divides its time figures by the host factor this gives (see README.md,
   "Noise"). *)

module SM = Map.Make (String)

let () =
  let n = 6_000 in
  let m = ref SM.empty in
  for i = 0 to n do
    m := SM.add (string_of_int (i * 7919 mod 6007)) i !m
  done;
  let h = Hashtbl.create 16 in
  let s = ref 0 in
  for i = 0 to n do
    (match SM.find_opt (string_of_int i) !m with Some v -> s := !s + v | None -> ());
    Hashtbl.replace h (i mod 4096) (string_of_int !s)
  done;
  let sorted = List.sort compare (List.init (2 * n) (fun i -> i * 7919 mod 12007)) in
  ignore (Sys.opaque_identity (sorted, !s, h))
