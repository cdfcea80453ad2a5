(* Verdict keys for the [check] memos of [Refine] and [Stabilize] (see
   [Cr_kernel.Memo]).

   A key fingerprints everything a refinement or stabilization verdict
   depends on — the transition structure and initial states of both
   systems, the abstraction table, the fairness tables — plus a readable
   prefix carrying the relation tag and both names.  An explicit system
   is already fully tabulated, so hashing all of it is cheap and leaves
   nothing unkeyed. *)

open Cr_semantics
module Csr = Cr_kernel.Csr
module Fp = Cr_kernel.Memo.Fp

(* Structure and initial states; the name is deliberately not folded
   (it goes into the readable part of the key instead). *)
let add_explicit fp e =
  Fp.add_int fp (Explicit.num_states e);
  let g = Explicit.csr e in
  Fp.add_int_array fp (Csr.row_ptr g);
  Fp.add_int_array fp (Csr.targets g);
  Fp.add_int_array fp (Explicit.initials e)

let key ~relation ~alpha ~fair ~(c : _ Explicit.t) ~(a : _ Explicit.t) =
  let fp = Fp.create () in
  add_explicit fp c;
  add_explicit fp a;
  Fp.add_int_array fp alpha;
  (match fair with
  | None -> Fp.add_int fp (-1)
  | Some rows ->
      Fp.add_int fp (Array.length rows);
      Array.iter (Fp.add_int_array fp) rows);
  Printf.sprintf "%s|%s|%s|%s" relation (Explicit.name c) (Explicit.name a)
    (Fp.to_hex fp)

let clear_all = Cr_kernel.Memo.clear_all
