(* Verdict keys for the [check] memos of [Refine] and [Stabilize] (see
   [Cr_kernel.Memo]).

   A key fingerprints everything a refinement or stabilization verdict
   depends on — the transition structure of both systems, A's initial
   states and C's when the verdict reads them, the abstraction table,
   the fairness tables — plus a readable prefix carrying the relation
   tag and both names.  An explicit system is already fully tabulated,
   so hashing all of it is cheap and leaves nothing unkeyed. *)

open Cr_semantics
module Csr = Cr_kernel.Csr
module Fp = Cr_kernel.Memo.Fp

(* The first [count] lanes of a store, preceded by that count: the ints
   and the prefix [Fp.add_int_array] folds for an array of them. *)
let add_lanes fp b count =
  Fp.add_int fp count;
  for k = 0 to count - 1 do
    Fp.add_int fp (Int32.to_int (Cr_kernel.Lane.get32u b (4 * k)))
  done

(* Structure, and the initial states when [initials]; the name is
   deliberately not folded (it goes into the readable part of the key
   instead).  Folding the initial states forces their sweep. *)
let add_explicit fp ~initials e =
  let n = Explicit.num_states e in
  Fp.add_int fp n;
  let g = Explicit.csr e in
  (* the lanes in use *)
  add_lanes fp (Csr.row_ptr g) (n + 1);
  add_lanes fp (Csr.targets g) (Csr.num_edges g);
  if initials then Fp.add_int_array fp (Explicit.initials e)

let key ~relation ~c_initials ~alpha ~fair ~(c : _ Explicit.t)
    ~(a : _ Explicit.t) =
  let fp = Fp.create () in
  add_explicit fp ~initials:c_initials c;
  add_explicit fp ~initials:true a;
  add_lanes fp alpha (Cr_kernel.Lane.length alpha);
  (match fair with
  | None -> Fp.add_int fp (-1)
  | Some rows ->
      Fp.add_int fp (Array.length rows);
      Array.iter (Fp.add_int_array fp) rows);
  Printf.sprintf "%s|%s|%s|%s" relation (Explicit.name c) (Explicit.name a)
    (Fp.to_hex fp)

let clear_all = Cr_kernel.Memo.clear_all
