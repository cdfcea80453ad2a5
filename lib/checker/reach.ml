(* Reachability kernels over CSR graphs.

   Each walks the flat [Csr] lanes and marks a packed [Bitset] — no
   row copying, no per-row allocation.  The textbook reference they are
   property-tested against lives in the test suite. *)

module Csr = Cr_kernel.Csr
module Bitset = Cr_kernel.Bitset

let[@inline] lane b k = Int32.to_int (Cr_kernel.Lane.get32u b (4 * k))

(* The seed set stays a mask: [seen] starts as its copy and the stack as
   its members, so a seed set as large as Sigma (stabilization's bad
   seeds) costs no list. *)
let forward ~succ ~(seeds : Bitset.t) : Bitset.t =
  let n = Csr.num_states succ in
  if Bitset.length seeds <> n then invalid_arg "Reach.forward: seed mask length";
  let rp = Csr.row_ptr succ and tg = Csr.targets succ in
  let seen = Bitset.copy seeds in
  (* flat int stack: each node is pushed at most once *)
  let stack = Array.make (max n 1) 0 in
  let sp = ref 0 in
  let push i =
    if not (Bitset.get seen i) then begin
      Bitset.set seen i;
      stack.(!sp) <- i;
      incr sp
    end
  in
  Bitset.iter_set_bits seeds (fun i ->
      stack.(!sp) <- i;
      incr sp);
  while !sp > 0 do
    decr sp;
    let i = stack.(!sp) in
    for k = lane rp i to lane rp (i + 1) - 1 do
      push (lane tg k)
    done
  done;
  seen

let backward ~succ ~seeds = forward ~succ:(Csr.transpose succ) ~seeds

let reachable_from_initial expl =
  forward
    ~succ:(Cr_semantics.Explicit.csr expl)
    ~seeds:(Cr_semantics.Explicit.initial_mask expl)
