(* Shared plumbing of the benchmark: clocks, order statistics, the
   seeded input generator and JSON output. Nothing here calls into the
   serving stack. *)

external now_ns : unit -> int = "perfbench_now_ns" [@@noalloc]

let wall_s () = Unix.gettimeofday ()

(* --- order statistics ---------------------------------------------------- *)

let sort_floats a =
  let a = Array.copy a in
  Array.sort Float.compare a;
  a

(* Nearest-rank percentile of already-sorted samples: an exact sample
   value, never a bucket bound. *)
let percentile sorted q =
  let n = Array.length sorted in
  if n = 0 then 0.
  else
    let k = int_of_float (Float.ceil (q *. float_of_int n)) - 1 in
    sorted.(max 0 (min (n - 1) k))

(* A round's latency samples, reduced as soon as the round ends so that
   no sample outlives it: the benchmark's own memory stays the same
   whatever the number of rounds. [beyond99] counts the samples strictly
   above p99, the tail that percentile rests on. *)
type pct = { n : int; p50 : float; p90 : float; p99 : float; beyond99 : int }

let pct samples =
  let s = sort_floats samples in
  let p99 = percentile s 0.99 in
  {
    n = Array.length s;
    p50 = percentile s 0.5;
    p90 = percentile s 0.9;
    p99;
    beyond99 =
      Array.fold_left (fun acc x -> if x > p99 then acc + 1 else acc) 0 s;
  }

let median = function
  | [] -> 0.
  | l ->
      let a = sort_floats (Array.of_list l) in
      let n = Array.length a in
      if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

let ratio num den = if den = 0 then 0. else float_of_int num /. float_of_int den

(* --- seeded inputs ------------------------------------------------------- *)

(* Every input a workload consumes (body sizes, order and bytes, session
   lengths, arrival gaps) is drawn from one of these, before the run. *)
let rng ~seed ~salt = Random.State.make [| seed; salt; 0x5eed |]

(* --- output -------------------------------------------------------------- *)

let json_float x =
  if Float.is_integer x && Float.abs x < 1e15 then Printf.sprintf "%.1f" x
  else if Float.is_finite x then Printf.sprintf "%.17g" x
  else "0.0"

let json_string s =
  let b = Buffer.create (String.length s + 2) in
  Buffer.add_char b '"';
  String.iter
    (function
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | c when Char.code c < 0x20 ->
          Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"';
  Buffer.contents b

let json_object fields =
  "{"
  ^ String.concat ", "
      (List.map (fun (k, v) -> json_string k ^ ": " ^ v) fields)
  ^ "}"

(* The CPUs the machine gives the benchmark, read at start-up, before
   it pins itself to one of them ([Speed.pin]). *)
let nproc =
  let n = max 1 (Domain.recommended_domain_count ()) in
  fun () -> n

(* The machine fingerprint every record carries. *)
let fingerprint ~profile =
  json_object
    [
      ("nproc", string_of_int (nproc ()));
      ("ocaml", json_string Sys.ocaml_version);
      ("profile", json_string profile);
      ("readiness", json_string (Ev.Real.readiness ()));
      ("rlimit_nofile", string_of_int (Ev.Real.fd_limit 0));
    ]

let heap_peak_mb () =
  let s = Gc.quick_stat () in
  float_of_int (s.Gc.top_heap_words * (Sys.word_size / 8)) /. 1e6
