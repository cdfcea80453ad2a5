(* Pluggable state-space engines: the indexing substrate an explicit
   compile runs over.

   The dense engine is the full product space in mixed-radix rank order.
   It is never materialized: a space hands out its states by index
   ([state_of_index], [index_of_state]) and by range sweeps
   ([iter_range]), which for a guarded-command layout advance one scratch
   state in place, so a dense compile holds the graph and no boxed
   states.  The sparse engine materializes only the
   fragment reachable from the initial states: a frontier BFS over dense
   keys that numbers each discovered state in an int-keyed table and
   writes its sorted row straight into the CSR the compile keeps.
   Because the fragment is closed under successors, every checker that
   only quantifies over init-reachable states (the refinement premise of
   the graybox theorems) computes the same verdict on the sparse graph
   as on the dense one — at a fraction of the states.  A stabilization
   check is both: it quantifies over all of the concrete Sigma, so that
   side stays dense, but it reads the spec only through its legitimate
   orbit (the states reachable from the spec's initial states), so the
   spec side is init-anchored and sparse by default.  Whole-space lint
   facts stay dense by construction.

   The sparse index is keyed by the dense rank: [Layout.checked_rank]
   is injective on Sigma, validity-checking and allocation-free, and
   keeping the key around gives tests the sparse<->dense bijection for
   free. *)

module Par = Cr_kernel.Par

type engine = Dense | Sparse

let engine_name = function Dense -> "dense" | Sparse -> "sparse"

type choice = Auto | Forced of engine

let choice_of_string s =
  match String.lowercase_ascii (String.trim s) with
  | "dense" -> Some (Forced Dense)
  | "sparse" -> Some (Forced Sparse)
  | "auto" | "" -> Some Auto
  | _ -> None

(* Same convention as CR_JOBS: a malformed override falls through to the
   default, and says so once (per process) on stderr. *)
let warned_bad_space = Atomic.make false

let env_choice () =
  match Sys.getenv_opt "CR_SPACE" with
  | None -> Auto
  | Some s -> (
      match choice_of_string s with
      | Some c -> c
      | None ->
          if not (Atomic.exchange warned_bad_space true) then
            Printf.eprintf
              "cr-space: ignoring invalid CR_SPACE=%s (want dense, sparse or \
               auto)\n\
               %!"
              s;
          Auto)

let resolve ?choice ~default () =
  match match choice with Some c -> c | None -> env_choice () with
  | Forced e -> e
  | Auto -> default

exception Too_large of string

module type S = sig
  type state

  val size : int
  val state_of_index : int -> state
  val index_of_state : state -> int option
  val index_of_key : (int -> int) option
  val iter_range : int -> int -> (int -> state -> unit) -> unit
  val reader : unit -> int -> state
end

type 'a t = (module S with type state = 'a)

let size (type a) (sp : a t) =
  let module Sp = (val sp) in
  Sp.size

let dense (type a) ~size:(n : int) ~(state_of_index : int -> a)
    ~(index_of_state : a -> int option) ?index_of_key
    ~(iter_range : int -> int -> (int -> a -> unit) -> unit)
    ?(reader = fun () -> state_of_index) () : a t =
  (module struct
    type state = a

    let size = n
    let state_of_index = state_of_index
    let index_of_state = index_of_state
    let index_of_key = index_of_key
    let iter_range = iter_range
    let reader = reader
  end)

(* A growable int array: the discovery log and each frontier chunk's
   emission buffer. *)
type buf = { mutable data : int array; mutable len : int }

let buf cap = { data = Array.make (max 16 cap) 0; len = 0 }

let reserve b extra =
  if b.len + extra > Array.length b.data then begin
    let bigger = Array.make (max (2 * Array.length b.data) (b.len + extra)) 0 in
    Array.blit b.data 0 bigger 0 b.len;
    b.data <- bigger
  end

let add b x =
  if b.len = Array.length b.data then reserve b 1;
  b.data.(b.len) <- x;
  b.len <- b.len + 1

let[@inline] lane b k = Int32.to_int (Cr_kernel.Lane.get32u b (4 * k))
let[@inline] set_lane b k v = Cr_kernel.Lane.set32u b (4 * k) (Int32.of_int v)

(* Insertion sort of the row in lanes [lo .. hi - 1] of [a] in place
   (rows are short: at most one entry per action of a guarded-command
   program), then its duplicates dropped; returns the row's new end. *)
let sort_row a lo hi =
  for x = lo + 1 to hi - 1 do
    let v = lane a x in
    let y = ref (x - 1) in
    while !y >= lo && lane a !y > v do
      set_lane a (!y + 1) (lane a !y);
      decr y
    done;
    set_lane a (!y + 1) v
  done;
  let w = ref (min (lo + 1) hi) in
  for r = lo + 1 to hi - 1 do
    if lane a r <> lane a (!w - 1) then begin
      set_lane a !w (lane a r);
      incr w
    end
  done;
  !w

(* A growable store of four-byte lanes: the CSR under construction.  It
   doubles as it grows, up to [Lane.max_lanes], and keeps its slack. *)
type lanes = { mutable bytes : Bytes.t; mutable used : int }

let lanes cap = { bytes = Cr_kernel.Lane.create (max 16 cap); used = 0 }

let too_many limit what =
  raise
    (Too_large
       (Printf.sprintf "the sparse engine cannot index more than %d %s" limit
          what))

let reserve_lanes b extra =
  let limit = Cr_kernel.Lane.max_lanes in
  if extra > limit - b.used then too_many limit "transitions";
  let cap = Bytes.length b.bytes / 4 in
  if b.used + extra > cap then begin
    let cap = min limit (max (2 * cap) (b.used + extra)) in
    let bigger = Cr_kernel.Lane.create cap in
    Bytes.blit b.bytes 0 bigger 0 (4 * b.used);
    b.bytes <- bigger
  end

let add_lane b x =
  reserve_lanes b 1;
  set_lane b.bytes b.used x;
  b.used <- b.used + 1

type 'a sparse = { space : 'a t; succ : Cr_kernel.Csr.t; keys : int array }

let discover (type a) ?(sort_keys = false) ~(state_of_key : int -> a)
    ~(key_of_state : a -> int)
    ~(step : unit -> a -> int -> (int -> unit) -> unit)
    ~(seed_keys : int array) () : a sparse =
  (* The dense-key -> index table: a key's index is its discovery
     order. *)
  let index = Cr_kernel.Keytbl.create (Array.length seed_keys) in
  (* Append-only discovery log: the BFS queue IS the index sequence. *)
  let keys = buf (Array.length seed_keys) in
  let intern k =
    let i = Cr_kernel.Keytbl.intern index k in
    if i = keys.len then begin
      (* [row_ptr] holds one lane more than there are states *)
      if i = Cr_kernel.Lane.max_lanes - 1 then too_many i "states";
      add keys k
    end;
    i
  in
  Array.iter (fun k -> ignore (intern k : int)) seed_keys;
  (* The CSR, written row by row in index order. *)
  let row_ptr = lanes (keys.len + 1) and targets = lanes (4 * keys.len) in
  add_lane row_ptr 0;
  (* Step states [lo + clo, lo + chi) of a frontier: their successor
     keys in emission order, flat, and where each state's run ends. *)
  let emit_chunk lo (clo, chi) =
    let out = buf (4 * (chi - clo)) and ends = Array.make (chi - clo) 0 in
    let st = step () in
    let emit j = add out j in
    for d = clo to chi - 1 do
      let k = keys.data.(lo + d) in
      st (state_of_key k) k emit;
      ends.(d - clo) <- out.len
    done;
    (out, ends)
  in
  let processed = ref 0 in
  while !processed < keys.len do
    let lo = !processed and hi = keys.len in
    let m = hi - lo in
    (* Expand the frontier.  The stepping is chunked across domains
       exactly like the dense row build (contiguous slices, one writer
       per buffer); index assignment happens in the sequential merge
       below, in chunk order, so discovery order — and with it the
       whole compiled graph — is job-count independent. *)
    let jobs = min (Par.current_jobs ()) m in
    let parts =
      if jobs <= 1 then [| emit_chunk lo (0, m) |]
      else
        Par.map_array (emit_chunk lo)
          (Array.init jobs (fun d -> (d * m / jobs, (d + 1) * m / jobs)))
    in
    Array.iter
      (fun (out, ends) ->
        let e = ref 0 in
        Array.iter
          (fun stop ->
            let start = targets.used in
            reserve_lanes targets (stop - !e);
            for x = !e to stop - 1 do
              set_lane targets.bytes targets.used (intern out.data.(x));
              targets.used <- targets.used + 1
            done;
            targets.used <- sort_row targets.bytes start targets.used;
            add_lane row_ptr targets.used;
            e := stop)
          ends)
      parts;
    processed := hi
  done;
  let count = keys.len and edges = targets.used in
  let keys = Array.sub keys.data 0 count in
  (* Optional renumbering in ascending key order, in one pass over the
     CSR: [perm] lists the discovery indices by key, [inv] maps each to
     its new index, and the rows and the index table are rewritten
     through [inv]. *)
  let keys, succ =
    if not sort_keys then
      ( keys,
        Cr_kernel.Csr.unsafe_of_lanes ~states:count ~row_ptr:row_ptr.bytes
          ~targets:targets.bytes )
    else begin
      let perm = Array.init count Fun.id in
      Array.stable_sort (fun i j -> compare keys.(i) keys.(j)) perm;
      let inv = Array.make count 0 in
      Array.iteri (fun i old -> inv.(old) <- i) perm;
      Cr_kernel.Keytbl.renumber index (Array.get inv);
      let rp = row_ptr.bytes and tg = targets.bytes in
      let row_ptr = Cr_kernel.Lane.create (count + 1)
      and targets = Cr_kernel.Lane.create edges in
      set_lane row_ptr 0 0;
      Array.iteri
        (fun i old ->
          let base = lane row_ptr i and first = lane rp old in
          let stop = lane rp (old + 1) in
          for k = first to stop - 1 do
            set_lane targets (base + k - first) inv.(lane tg k)
          done;
          set_lane row_ptr (i + 1) (base + stop - first);
          ignore (sort_row targets base (lane row_ptr (i + 1)) : int))
        perm;
      ( Array.map (fun old -> keys.(old)) perm,
        Cr_kernel.Csr.unsafe_of_lanes ~states:count ~row_ptr ~targets )
    end
  in
  let module Sp = struct
    type state = a

    let size = count
    let state_of_index i = state_of_key keys.(i)

    let index_of_state s =
      let i = Cr_kernel.Keytbl.find index (key_of_state s) in
      if i < 0 then None else Some i

    let index_of_key = Some (Cr_kernel.Keytbl.find index)

    let iter_range lo hi f =
      for i = lo to hi - 1 do
        f i (state_of_key keys.(i))
      done

    let reader () = state_of_index
  end in
  { space = (module Sp); succ; keys }
