type t = {
  ring : int array;  (* (step lsl 22) lor tid; -1 = never written *)
  mask : int;  (* |ring| - 1, a power of two minus one *)
  mutable last : int;
}

let create ?(window = 65536) () =
  if window <= 0 then invalid_arg "Step_journal.create: window must be positive";
  let cap =
    let c = ref 1 in
    while !c < window do
      c := !c * 2
    done;
    !c
  in
  { ring = Array.make cap (-1); mask = cap - 1; last = 0 }

let window t = t.mask + 1

(* The per-step hot path: the scheduler calls this once per step. *)
let note t ~step ~running =
  t.last <- step;
  Array.unsafe_set t.ring (step land t.mask) ((step lsl 22) lor running)

let advance t n = if n > t.last then t.last <- n

let last t = t.last

let lo t = max 0 (t.last + 1 - (t.mask + 1))

let read t step =
  let w = Array.unsafe_get t.ring (step land t.mask) in
  if w >= 0 && w lsr 22 = step then w land 0x3fffff else -1

let clear t =
  t.last <- 0;
  Array.fill t.ring 0 (Array.length t.ring) (-1)

let entries t =
  let rec go acc step =
    if step < lo t then acc
    else
      let tid = read t step in
      go (if tid < 0 then acc else (step, tid) :: acc) (step - 1)
  in
  go [] t.last
