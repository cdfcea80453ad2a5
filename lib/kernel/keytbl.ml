(* Non-negative int keys numbered 0, 1, 2, ... in the order they are
   first interned: open addressing with linear probing over one flat
   array of (key, value) slot pairs, a key of [-1] marking a free slot.
   Fibonacci hashing of the key, no polymorphic hash and no boxed
   binding per entry; the table doubles at half load. *)

type t = { mutable slots : int array; mutable bits : int; mutable count : int }

let create expected =
  let bits = ref 4 in
  while 1 lsl !bits < 2 * expected do
    incr bits
  done;
  { slots = Array.make (2 lsl !bits) (-1); bits = !bits; count = 0 }

let count t = t.count

let home t k = ((k * 0x1e3779b97f4a7c15) lsr (Sys.int_size - t.bits)) lsl 1

(* The slot of [k]: where it is bound, or the free slot where it
   belongs. *)
let probe t k =
  let slots = t.slots and last = Array.length t.slots - 2 in
  let s = ref (home t k) in
  while slots.(!s) <> k && slots.(!s) >= 0 do
    s := if !s = last then 0 else !s + 2
  done;
  !s

let find t k =
  if k < 0 then -1
  else
    let s = probe t k in
    if t.slots.(s) = k then t.slots.(s + 1) else -1

let rec intern t k =
  let s = probe t k in
  if t.slots.(s) = k then t.slots.(s + 1)
  else if 2 * (t.count + 1) > Array.length t.slots lsr 1 then begin
    let old = t.slots in
    t.bits <- t.bits + 1;
    t.slots <- Array.make (2 * Array.length old) (-1);
    for o = 0 to (Array.length old / 2) - 1 do
      if old.(2 * o) >= 0 then begin
        let s = probe t old.(2 * o) in
        t.slots.(s) <- old.(2 * o);
        t.slots.(s + 1) <- old.((2 * o) + 1)
      end
    done;
    intern t k
  end
  else begin
    let v = t.count in
    t.slots.(s) <- k;
    t.slots.(s + 1) <- v;
    t.count <- v + 1;
    v
  end

let keys t =
  let out = Array.make t.count 0 in
  for s = 0 to (Array.length t.slots / 2) - 1 do
    if t.slots.(2 * s) >= 0 then out.(t.slots.((2 * s) + 1)) <- t.slots.(2 * s)
  done;
  out

let renumber t f =
  for s = 0 to (Array.length t.slots / 2) - 1 do
    if t.slots.(2 * s) >= 0 then
      t.slots.((2 * s) + 1) <- f t.slots.((2 * s) + 1)
  done
