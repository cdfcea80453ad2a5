(* Packed boolean masks over [Bytes], operated on 64 bits at a time.

   The checker kernels carry one mask per sweep (reachable sets, converged
   regions, SCC restrictions); packing them 8x denser than [bool array]
   keeps whole masks of the larger rings inside L1/L2, and backing them
   with whole 64-bit words ([Bytes.get_int64_ne]/[set_int64_ne]) makes
   union/intersection/complement/count/equality one machine operation per
   64 states instead of one per byte.

   Invariants: the backing store is padded to a whole number of 8-byte
   words, and the unused trailing bits of the last word are always zero —
   so [count], [equal] and the word-wise set operations work on raw words
   without masking, and [iter_set_bits] never yields an out-of-range
   index.

   Concurrency: [set]/[clear] are read-modify-writes of one byte, but the
   bulk operations read and write whole words — two domains may only
   write a bitset concurrently when their index ranges touch disjoint
   words, i.e. parallel chunk boundaries over a shared bitset must be
   multiples of 64 (see the bad-seed sweep in [Cr_core.Stabilize]). *)

type t = { len : int; bits : Bytes.t }

let nwords len = (len + 63) lsr 6

let create len =
  if len < 0 then invalid_arg "Bitset.create";
  { len; bits = Bytes.make (nwords len lsl 3) '\000' }

let length t = t.len

let copy t = { len = t.len; bits = Bytes.copy t.bits }

let check t i name =
  if i < 0 || i >= t.len then
    invalid_arg (Printf.sprintf "Bitset.%s: index %d out of [0, %d)" name i t.len)

let get t i =
  check t i "get";
  Char.code (Bytes.unsafe_get t.bits (i lsr 3)) land (1 lsl (i land 7)) <> 0

let set t i =
  check t i "set";
  let k = i lsr 3 in
  Bytes.unsafe_set t.bits k
    (Char.unsafe_chr (Char.code (Bytes.unsafe_get t.bits k) lor (1 lsl (i land 7))))

let clear t i =
  check t i "clear";
  let k = i lsr 3 in
  Bytes.unsafe_set t.bits k
    (Char.unsafe_chr
       (Char.code (Bytes.unsafe_get t.bits k) land lnot (1 lsl (i land 7))))

(* Zero the unused high bits of the last word (after word-wide writes
   such as [full] and [complement]). *)
let mask_tail t =
  let r = t.len land 63 in
  if r <> 0 then begin
    let last = Bytes.length t.bits - 8 in
    let m = Int64.sub (Int64.shift_left 1L r) 1L in
    Bytes.set_int64_ne t.bits last (Int64.logand (Bytes.get_int64_ne t.bits last) m)
  end

let full len =
  if len < 0 then invalid_arg "Bitset.full";
  let t = { len; bits = Bytes.make (nwords len lsl 3) '\255' } in
  mask_tail t;
  t

(* SWAR popcount of one 64-bit word. *)
let popcount64 (x : int64) =
  let open Int64 in
  let x = sub x (logand (shift_right_logical x 1) 0x5555555555555555L) in
  let x =
    add (logand x 0x3333333333333333L)
      (logand (shift_right_logical x 2) 0x3333333333333333L)
  in
  let x = logand (add x (shift_right_logical x 4)) 0x0f0f0f0f0f0f0f0fL in
  to_int (shift_right_logical (mul x 0x0101010101010101L) 56)

let count t =
  let acc = ref 0 in
  let w = Bytes.length t.bits lsr 3 in
  for k = 0 to w - 1 do
    acc := !acc + popcount64 (Bytes.get_int64_ne t.bits (k lsl 3))
  done;
  !acc

(* Count-trailing-zeros of a nonzero word, via the isolated lowest bit
   and a De Bruijn multiply (each of the 64 single-bit values maps the
   top 6 bits of the product to a distinct table index). *)
let debruijn = 0x03f79d71b4cb0a89L

let ctz_table =
  let tbl = Array.make 64 0 in
  for i = 0 to 63 do
    let idx =
      Int64.to_int
        (Int64.shift_right_logical (Int64.mul (Int64.shift_left 1L i) debruijn) 58)
    in
    tbl.(idx) <- i
  done;
  tbl

let ctz64 (x : int64) =
  Array.unsafe_get ctz_table
    (Int64.to_int
       (Int64.shift_right_logical (Int64.mul (Int64.logand x (Int64.neg x)) debruijn) 58))

(* Visit the set bits in ascending order: skip zero words whole, then
   peel set bits off each nonzero word low-to-high with [x land (x-1)].
   The tail-zero invariant means no yielded index can reach [len]. *)
let iter_set_bits t f =
  let w = Bytes.length t.bits lsr 3 in
  for k = 0 to w - 1 do
    let x = ref (Bytes.get_int64_ne t.bits (k lsl 3)) in
    if !x <> 0L then begin
      let base = k lsl 6 in
      while !x <> 0L do
        f (base + ctz64 !x);
        x := Int64.logand !x (Int64.sub !x 1L)
      done
    end
  done

let members t =
  let acc = ref [] in
  iter_set_bits t (fun i -> acc := i :: !acc);
  List.rev !acc

let complement t =
  let out = { len = t.len; bits = Bytes.create (Bytes.length t.bits) } in
  let w = Bytes.length t.bits lsr 3 in
  for k = 0 to w - 1 do
    Bytes.set_int64_ne out.bits (k lsl 3)
      (Int64.lognot (Bytes.get_int64_ne t.bits (k lsl 3)))
  done;
  mask_tail out;
  out

let check_pair t1 t2 name =
  if t1.len <> t2.len then
    invalid_arg (Printf.sprintf "Bitset.%s: lengths %d and %d" name t1.len t2.len)

let word_op name op t1 t2 =
  check_pair t1 t2 name;
  let out = { len = t1.len; bits = Bytes.create (Bytes.length t1.bits) } in
  let w = Bytes.length t1.bits lsr 3 in
  for k = 0 to w - 1 do
    let off = k lsl 3 in
    Bytes.set_int64_ne out.bits off
      (op (Bytes.get_int64_ne t1.bits off) (Bytes.get_int64_ne t2.bits off))
  done;
  out

let union t1 t2 = word_op "union" Int64.logor t1 t2
let inter t1 t2 = word_op "inter" Int64.logand t1 t2

(* [diff]'s tail stays zero because the minuend's tail is zero. *)
let diff t1 t2 =
  word_op "diff" (fun a b -> Int64.logand a (Int64.lognot b)) t1 t2

let union_into ~into t =
  check_pair into t "union_into";
  let w = Bytes.length into.bits lsr 3 in
  for k = 0 to w - 1 do
    let off = k lsl 3 in
    Bytes.set_int64_ne into.bits off
      (Int64.logor (Bytes.get_int64_ne into.bits off) (Bytes.get_int64_ne t.bits off))
  done

let of_bool_array a =
  let t = create (Array.length a) in
  Array.iteri (fun i b -> if b then set t i) a;
  t

let to_bool_array t = Array.init t.len (fun i -> get t i)

let equal t1 t2 = t1.len = t2.len && Bytes.equal t1.bits t2.bits
