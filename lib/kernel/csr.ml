(* Compressed sparse row graphs: the one adjacency representation shared
   by the explicit-state systems and every checker kernel.

   The edge list is a single flat [targets] array; row i occupies the
   offsets [row_ptr.(i), row_ptr.(i+1)).  Rows are sorted ascending and
   deduplicated (the [Explicit] construction invariant), so membership is
   a binary search and transposition keeps rows sorted by visiting
   sources in order.

   Compared to the historical [int array array]: one allocation instead
   of n+1, offset arithmetic instead of pointer chasing, and an absolute
   edge index [k] that the domain-chunked classifier uses to make its
   merged output independent of the job count.

   [row_ptr] and [targets] are exposed read-only for the hot kernels
   (reachability, Tarjan, BFS); callers must never mutate them. *)

type t = {
  row_ptr : int array;  (* length num_states + 1, nondecreasing *)
  targets : int array;  (* length row_ptr.(num_states) *)
}

let num_states t = Array.length t.row_ptr - 1

let num_edges t = Array.length t.targets

let row_ptr t = t.row_ptr

let targets t = t.targets

let degree t i = t.row_ptr.(i + 1) - t.row_ptr.(i)

let row t i = Array.sub t.targets t.row_ptr.(i) (degree t i)

let kth t i k = t.targets.(t.row_ptr.(i) + k)

let iter_row t i f =
  for k = t.row_ptr.(i) to t.row_ptr.(i + 1) - 1 do
    f t.targets.(k)
  done

let iter_edges t f =
  let n = num_states t in
  for i = 0 to n - 1 do
    for k = t.row_ptr.(i) to t.row_ptr.(i + 1) - 1 do
      f i t.targets.(k)
    done
  done

(* Binary search within the row bounds — the same invariant as the
   historical [Explicit.has_edge]. *)
let mem t i j =
  let lo = ref t.row_ptr.(i) and hi = ref t.row_ptr.(i + 1) in
  while !hi - !lo > 1 do
    let mid = (!lo + !hi) / 2 in
    if t.targets.(mid) <= j then lo := mid else hi := mid
  done;
  !hi > !lo && t.targets.(!lo) = j

(* Trusted constructor: [row_ptr]/[targets] must already satisfy every
   invariant (lengths, monotonicity, sorted deduplicated rows).  Used by
   the flat row-merge in [Explicit.box]. *)
let unsafe_of_raw ~row_ptr ~targets = { row_ptr; targets }

let of_rows (rows : int array array) : t =
  let n = Array.length rows in
  let row_ptr = Array.make (n + 1) 0 in
  for i = 0 to n - 1 do
    row_ptr.(i + 1) <- row_ptr.(i) + Array.length rows.(i)
  done;
  let targets = Array.make row_ptr.(n) 0 in
  for i = 0 to n - 1 do
    Array.blit rows.(i) 0 targets row_ptr.(i) (Array.length rows.(i))
  done;
  { row_ptr; targets }

let to_rows t = Array.init (num_states t) (row t)

(* Count-then-fill; visiting sources ascending keeps each transposed row
   sorted. *)
let transpose t =
  let n = num_states t in
  let deg = Array.make (n + 1) 0 in
  Array.iter (fun j -> deg.(j + 1) <- deg.(j + 1) + 1) t.targets;
  let row_ptr = Array.make (n + 1) 0 in
  for j = 0 to n - 1 do
    row_ptr.(j + 1) <- row_ptr.(j) + deg.(j + 1)
  done;
  let targets = Array.make row_ptr.(n) 0 in
  let fill = Array.copy row_ptr in
  iter_edges t (fun i j ->
      targets.(fill.(j)) <- i;
      fill.(j) <- fill.(j) + 1);
  { row_ptr; targets }

(* Count-then-fill over the edges in row order, so surviving rows stay
   sorted; no per-row allocation. *)
let filter t keep : t =
  let n = num_states t in
  let row_ptr = Array.make (n + 1) 0 in
  for i = 0 to n - 1 do
    let kept = ref 0 in
    iter_row t i (fun j -> if keep i j then incr kept);
    row_ptr.(i + 1) <- row_ptr.(i) + !kept
  done;
  let targets = Array.make row_ptr.(n) 0 in
  let k = ref 0 in
  iter_edges t (fun i j ->
      if keep i j then begin
        targets.(!k) <- j;
        incr k
      end);
  { row_ptr; targets }

let restrict t (mask : Bitset.t) =
  filter t (fun i j -> Bitset.get mask i && Bitset.get mask j)

let equal t1 t2 = t1.row_ptr = t2.row_ptr && t1.targets = t2.targets
