(* Compressed sparse row graphs: the one adjacency representation shared
   by the explicit-state systems and every checker kernel.

   The edge list is a single flat [targets] store; row i occupies the
   offsets [row_ptr.(i), row_ptr.(i+1)).  Rows are sorted ascending and
   deduplicated (the [Explicit] construction invariant), so membership is
   a binary search and transposition keeps rows sorted by visiting
   sources in order.

   Both stores are four-byte lanes in [Bytes] ([Lane]): every state
   index and edge offset fits in 31 bits for any graph this machine can
   hold, so a full [int] per entry would spend half of the graph's
   memory on zero bytes.  A store may run past its last lane in use
   ([row_ptr] past lane [n], [targets] past lane [num_edges]): a
   constructor that reserved a bound, or grew a buffer by doubling,
   keeps the slack rather than copying the graph to trim it.  Nothing
   reads the slack.

   [row_ptr] and [targets] are exposed read-only for the hot kernels
   (reachability, Tarjan, BFS), which read them through the [Lane]
   externals; callers must never mutate them. *)

type t = {
  n : int;  (* number of states *)
  row_ptr : Bytes.t;  (* lanes 0..n, nondecreasing from 0 *)
  targets : Bytes.t;  (* lanes 0..row_ptr.(n) - 1 *)
}

let[@inline] lane b k = Int32.to_int (Lane.get32u b (4 * k))
let[@inline] set_lane b k v = Lane.set32u b (4 * k) (Int32.of_int v)

let num_states t = t.n

let num_edges t = lane t.row_ptr t.n

let row_ptr t = t.row_ptr

let targets t = t.targets

let check_state t i name =
  if i < 0 || i >= t.n then
    invalid_arg (Printf.sprintf "Csr.%s: state %d out of [0, %d)" name i t.n)

let degree t i =
  check_state t i "degree";
  lane t.row_ptr (i + 1) - lane t.row_ptr i

let kth t i k =
  if k < 0 || k >= degree t i then invalid_arg "Csr.kth";
  lane t.targets (lane t.row_ptr i + k)

let row t i =
  let lo = lane t.row_ptr i in
  Array.init (degree t i) (fun k -> lane t.targets (lo + k))

let iter_row t i f =
  check_state t i "iter_row";
  for k = lane t.row_ptr i to lane t.row_ptr (i + 1) - 1 do
    f (lane t.targets k)
  done

let iter_edges t f =
  for i = 0 to t.n - 1 do
    for k = lane t.row_ptr i to lane t.row_ptr (i + 1) - 1 do
      f i (lane t.targets k)
    done
  done

(* Binary search within the row bounds — the same invariant as the
   historical [Explicit.has_edge]. *)
let mem t i j =
  check_state t i "mem";
  let lo = ref (lane t.row_ptr i) and hi = ref (lane t.row_ptr (i + 1)) in
  while !hi - !lo > 1 do
    let mid = (!lo + !hi) / 2 in
    if lane t.targets mid <= j then lo := mid else hi := mid
  done;
  !hi > !lo && lane t.targets !lo = j

type source = { states : int; reader : unit -> int -> (int -> unit) -> unit }

let source t =
  {
    states = t.n;
    reader =
      (fun () i f ->
        for k = lane t.row_ptr i to lane t.row_ptr (i + 1) - 1 do
          f (lane t.targets k)
        done);
  }

(* Trusted constructor: the lanes must already satisfy every invariant
   (lengths, monotonicity, sorted deduplicated rows).  Used by the
   streamed compile and the flat row-merge in [Explicit], and by the
   sparse discovery in [Space]. *)
let unsafe_of_lanes ~states ~row_ptr ~targets = { n = states; row_ptr; targets }

(* The stores of an [n]-state graph whose row [i] holds [count i]
   edges: row pointers filled, targets uninitialised. *)
let with_counts n count =
  let row_ptr = Lane.create (n + 1) in
  set_lane row_ptr 0 0;
  let total = ref 0 in
  for i = 0 to n - 1 do
    total := !total + count i;
    if !total > Lane.max_lanes then invalid_arg "Csr: more than 2^31 - 1 edges";
    set_lane row_ptr (i + 1) !total
  done;
  { n; row_ptr; targets = Lane.create !total }

let of_rows (rows : int array array) : t =
  let n = Array.length rows in
  if n > Lane.max_lanes then
    invalid_arg "Csr.of_rows: more than 2^31 - 1 states";
  let t = with_counts n (fun i -> Array.length rows.(i)) in
  Array.iteri
    (fun i r ->
      let base = lane t.row_ptr i in
      Array.iteri (fun k j -> set_lane t.targets (base + k) j) r)
    rows;
  t

(* Count-then-fill; visiting sources ascending keeps each transposed row
   sorted. *)
let transpose t =
  let n = t.n in
  let deg = Array.make n 0 in
  for k = 0 to num_edges t - 1 do
    let j = lane t.targets k in
    deg.(j) <- deg.(j) + 1
  done;
  let p = with_counts n (fun j -> deg.(j)) in
  (* [deg.(j)] becomes row j's fill cursor *)
  for j = 0 to n - 1 do
    deg.(j) <- lane p.row_ptr j
  done;
  iter_edges t (fun i j ->
      set_lane p.targets deg.(j) i;
      deg.(j) <- deg.(j) + 1);
  p

(* Count-then-fill over the edges in row order, so surviving rows stay
   sorted; no per-row allocation. *)
let filter t keep : t =
  let f =
    with_counts t.n (fun i ->
        let kept = ref 0 in
        iter_row t i (fun j -> if keep i j then incr kept);
        !kept)
  in
  let k = ref 0 in
  iter_edges t (fun i j ->
      if keep i j then begin
        set_lane f.targets !k j;
        incr k
      end);
  f

let restrict t (mask : Bitset.t) =
  filter t (fun i j -> Bitset.get mask i && Bitset.get mask j)

(* Do the first [n] lanes of [a] and [b] agree?  Eight bytes at a
   time, then the odd lane; no byte past them is read. *)
let equal_lanes a b n =
  let bytes = 4 * n in
  let ok = ref true and p = ref 0 in
  while !ok && !p + 8 <= bytes do
    ok := Int64.equal (Lane.get64u a !p) (Lane.get64u b !p);
    p := !p + 8
  done;
  !ok && (!p = bytes || Int32.equal (Lane.get32u a !p) (Lane.get32u b !p))

(* Only the lanes in use are compared: the slack past them is never
   read. *)
let equal t1 t2 =
  t1.n = t2.n
  && equal_lanes t1.row_ptr t2.row_ptr (t1.n + 1)
  && equal_lanes t1.targets t2.targets (num_edges t1)
