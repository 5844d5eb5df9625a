(* The host's speed, from a fixed reference computation.

   On a shared host the same code runs up to twice as slow while other
   tenants are busy, in phases that last from a second to minutes, and
   the CPU time a process is charged slows down with it. Every round is
   bracketed by reference samples, and its wall-clock figures are scaled
   towards a host on which one reference chunk takes [nominal_ms]. The
   reference is this file's own code (hashing, list and buffer
   allocation) and calls nothing in the serving stack, so the scale does
   not depend on the stack: a change to the stack moves a scaled figure
   by exactly the same factor as the raw one. *)

let nominal_ms = 5.

let chunk () =
  let h = Hashtbl.create 512 in
  let b = Buffer.create 256 in
  let acc = ref 0 in
  for i = 0 to 16_000 do
    let k = i * 7919 land 1023 in
    let l = List.init 8 (fun j -> (k + j) land 255) in
    Hashtbl.replace h k l;
    (match Hashtbl.find_opt h ((k * 31) land 1023) with
    | Some l -> acc := !acc + List.fold_left ( + ) 0 l
    | None -> ());
    Buffer.clear b;
    Buffer.add_string b (string_of_int k);
    acc := !acc + Buffer.length b
  done;
  ignore (Sys.opaque_identity !acc)

external pin_first_cpu : unit -> bool = "perfbench_pin_first_cpu"

(* Keep the benchmark, and the generator it forks, to the first CPU it
   may run on, so that a round and its samples share one CPU. A tcp
   round then alternates server and generator on that CPU. Left to the
   kernel, the two processes share a CPU in some rounds and not in
   others: back to back, a tcp-bulk round cost 1.45-1.84 s of server
   CPU time spread over two CPUs against 1.27-1.35 s on one, and
   tcp-small's p50 and p90 were 26 and 35 us against 15 and 17 us. *)
let pin () = ignore (pin_first_cpu ())

(* The reference time in ms: the median of [reps] chunks. *)
let sample ?(reps = 8) () =
  Common.median
    (List.init reps (fun _ ->
         let t0 = Common.now_ns () in
         chunk ();
         float_of_int (Common.now_ns () - t0) /. 1e6))

(* How much of the reference's slowdown a round shows. The workloads
   slow down less than the compute-bound reference when the host is
   busy: regressing a run's median round time on its median reference
   time gave 0.56 to 0.66 on the sim workloads and about 1 on tcp-bulk.
   Scaling by the reference's full slowdown over-corrects the sim
   workloads, scaling by none leaves the host's drift in; over sets of
   five runs, 0.75 gave the least spread of req/s and latency across
   runs of the exponents tried (0, 0.5, 0.75, 1). Any exponent keeps
   the scale independent of the stack. *)
let sensitivity = 0.75

(* The factor that scales a wall time measured between samples [before]
   and [after] towards the nominal host: below 1 when the host ran
   slow. A time is multiplied by it, a rate divided. *)
let scale ~before ~after =
  (nominal_ms /. ((before +. after) /. 2.)) ** sensitivity
