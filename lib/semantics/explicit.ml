(* Indexed explicit-state representation of a system.  States are numbered
   0..n-1; the transition relation is a CSR graph ([Csr.t]) with self-loops
   removed (no-op steps are stuttering, dropped per DESIGN.md section 2)
   and duplicate edges deduplicated.

   States are not stored: a system keeps the [Space] it was compiled
   over, which hands states out by index and sweeps index ranges — over a
   guarded-command layout by unranking and by an odometer advancing one
   scratch state — so a dense compile of Sigma holds no boxed states.
   Full-space consumers sweep ([iter_states]) rather than index state by
   state.

   [of_space] keeps its emitter, and the CSR is built from it on first
   use, in one streamed pass into one targets store of
   [n * max_degree] four-byte lanes, reserved uninitialised: the index
   range is split into chunks (the CR_JOBS contract of [Par]; default 1
   = one chunk), each sweeping its range from its own offset
   [lo * max_degree], sorting and deduplicating each row in a scratch
   buffer and writing it straight into the targets and its end into
   the shared [row_ptr].  The gaps between chunks are then closed in
   place, in chunk order.  So the targets are held once, and the
   reserved tail past the last edge is never written (never resident).
   Row i depends on i alone, so the result is identical for every job
   count.  Until then [source] answers a row by running the same
   emitter on the state, unranked into the reader's scratch, and
   sorting and deduplicating the same way, so a pass that needs each
   row once (a stabilization check that holds) never builds the graph.
   [of_sparse], [box] and the list-built constructors build their CSR
   at once: the sparse discovery builds it as it goes
   ([Space.discover]).

   Three parts are lazy, each behind one [Atomic] cell: the successor
   CSR, on the first use of any edge reader but [source]; the initial
   states, swept from the kept predicate on the first [is_initial]/
   [initial_mask]/[initials] use, chunked like the compile (a
   stabilization check quantifies over every state and never reads
   them); and the predecessor CSR, transposed on the first
   [predecessors]/[pred_csr] use (no checker on the verify or refine
   path reads it).  If two domains race on a first force, both compute
   the same deterministic value and one of the identical results wins —
   no lock, no [Lazy.Undefined]. *)

module Csr = Cr_kernel.Csr
module Par = Cr_kernel.Par
module Bitset = Cr_kernel.Bitset

exception Unknown_state of string

(* Construction telemetry: how many explicit systems were compiled and
   how big they were.  Counted once per construction, so the per-state
   work stays uninstrumented. *)
let c_systems = Cr_obs.Obs.counter "explicit.systems"
let c_states = Cr_obs.Obs.counter "explicit.states"
let c_transitions = Cr_obs.Obs.counter "explicit.transitions"
let c_largest = Cr_obs.Obs.counter ~kind:Cr_obs.Obs.Max "explicit.largest"

(* The successor CSR (each row sorted ascending, deduplicated), or the
   emitter it is built from and the per-state bound on its rows. *)
type 'a succ =
  | Succ of Csr.t
  | Succ_todo of {
      max_degree : int;
      step : unit -> 'a -> int -> (int -> unit) -> unit;
    }

type pred = Pred_todo | Pred of Csr.t
type initial_states = { mask : Bitset.t; members : int array }
type inits = Inits_todo | Inits of initial_states

type 'a t = {
  name : string;
  space : 'a Space.t;  (* index <-> state bijection and range sweeps *)
  succ : 'a succ Atomic.t;  (* built from the kept emitter on first use *)
  pred : pred Atomic.t;  (* transposed from [succ] on first use *)
  initial : 'a -> bool;  (* swept into [inits] on first use *)
  inits : inits Atomic.t;
  pp_state : Format.formatter -> 'a -> unit;
}

let name t = t.name

let num_states t = Space.size t.space

let state (type a) (t : a t) i =
  let module Sp = (val t.space) in
  if i < 0 || i >= Sp.size then invalid_arg "Explicit.state";
  Sp.state_of_index i

let find_opt (type a) (t : a t) s =
  let module Sp = (val t.space) in
  Sp.index_of_state s

let rank_index (type a) (t : a t) =
  let module Sp = (val t.space) in
  Sp.index_of_key

let iter_states (type a) (t : a t) f =
  let module Sp = (val t.space) in
  Sp.iter_range 0 Sp.size f

let pp_state t fmt i = t.pp_state fmt (state t i)

let state_to_string t i = Fmt.str "%a" (fun fmt -> t.pp_state fmt) (state t i)

let find t s =
  match find_opt t s with
  | Some i -> i
  | None -> raise (Unknown_state t.name)

let initials_of mask =
  let out = Array.make (Bitset.count mask) 0 in
  let k = ref 0 in
  Bitset.iter_set_bits mask (fun i ->
      out.(!k) <- i;
      incr k);
  out

(* Index ranges covering [0, n): one at CR_JOBS = 1, else more chunks
   than domains (claimed from the pool's item counter), each spanning
   whole 64-state words, so chunks write disjoint words of a shared
   bitset. *)
let chunk_bounds n =
  let jobs = min (Par.current_jobs ()) (max n 1) in
  if jobs <= 1 then [| (0, n) |]
  else begin
    let nwords = (n + 63) / 64 in
    let num_chunks = max 1 (min nwords (jobs * 4)) in
    let boundary d = min n (d * nwords / num_chunks * 64) in
    Array.init num_chunks (fun d -> (boundary d, boundary (d + 1)))
  end

(* One chunked sweep of the initial predicate over the space, as
   [force_pred] below: no telemetry, a racing domain may sweep twice. *)
let force_inits (type a) (t : a t) =
  match Atomic.get t.inits with
  | Inits i -> i
  | Inits_todo -> (
      let module Sp = (val t.space) in
      let mask = Bitset.create Sp.size in
      let chunk (lo, hi) =
        Sp.iter_range lo hi (fun i s -> if t.initial s then Bitset.set mask i)
      in
      (match chunk_bounds Sp.size with
      | [| b |] -> chunk b
      | bounds -> ignore (Par.map_array chunk bounds : unit array));
      let inits = { mask; members = initials_of mask } in
      let v = Inits inits in
      if Atomic.compare_and_set t.inits Inits_todo v then inits
      else match Atomic.get t.inits with Inits i -> i | Inits_todo -> inits)

let is_initial t i = Bitset.get (force_inits t).mask i

let initial_mask t = (force_inits t).mask

let initials t = (force_inits t).members

(* One event per built CSR, when it is built: at construction, or for a
   kept emitter when the graph is first forced. *)
let record_built t succ =
  if Cr_obs.Obs.tracking () then begin
    Cr_obs.Obs.incr c_systems;
    Cr_obs.Obs.add c_states (num_states t);
    Cr_obs.Obs.add c_transitions (Csr.num_edges succ);
    Cr_obs.Obs.record_max c_largest (num_states t);
    Cr_obs.Obs.event "explicit.built"
      [
        ("name", Cr_obs.Obs.S (name t));
        ("states", Cr_obs.Obs.I (num_states t));
        ("transitions", Cr_obs.Obs.I (Csr.num_edges succ));
      ]
  end

(* Insertion sort of [row.(0 .. k-1)] in place: rows are short (at most
   one entry per action of a guarded-command program), where it is
   linear.  The [int array] annotation keeps the comparisons integer
   ones: inferred polymorphic, each would be a C call. *)
let sort_prefix (row : int array) k =
  for a = 1 to k - 1 do
    let x = row.(a) in
    let b = ref (a - 1) in
    while !b >= 0 && row.(!b) > x do
      row.(!b + 1) <- row.(!b);
      decr b
    done;
    row.(!b + 1) <- x
  done

let[@inline] lane b k = Int32.to_int (Cr_kernel.Lane.get32u b (4 * k))
let[@inline] set_lane b k v = Cr_kernel.Lane.set32u b (4 * k) (Int32.of_int v)

(* One reader's row scratch over the emitter [step]: [fill s i] runs it
   on the state [s] at index [i] and leaves the successors, sorted,
   deduplicated and without [i] itself, in [row.(0 .. len - 1)],
   returning [len].  A state with more than [max_degree] successors
   (besides itself) is refused before it writes past the scratch. *)
let row_builder ~max_degree ~step =
  let row = Array.make (max 1 max_degree) 0 and k = ref 0 in
  let self = ref 0 in
  let emit j =
    if j <> !self then begin
      if !k = max_degree then
        invalid_arg
          "Explicit.of_space: a state has more than max_degree successors";
      row.(!k) <- j;
      incr k
    end
  in
  let st = step () in
  let fill s i =
    self := i;
    k := 0;
    st s i emit;
    sort_prefix row !k;
    let len = ref 0 in
    for a = 0 to !k - 1 do
      if a = 0 || row.(a) <> row.(!len - 1) then begin
        row.(!len) <- row.(a);
        incr len
      end
    done;
    !len
  in
  (row, fill)

(* One chunk of the streamed build: sweep [lo, hi), writing each row
   into [targets] from lane [lo * max_degree] on and the row's end into
   [row_ptr.(i + 1)]; returns the lane after the chunk's last edge. *)
let stream_chunk (type a) (module Sp : Space.S with type state = a) ~step
    ~max_degree ~row_ptr ~targets (lo, hi) =
  let row, fill_row = row_builder ~max_degree ~step in
  let fill = ref (lo * max_degree) in
  Sp.iter_range lo hi (fun i s ->
      for a = 0 to fill_row s i - 1 do
        set_lane targets !fill row.(a);
        incr fill
      done;
      set_lane row_ptr (i + 1) !fill);
  !fill

(* The CSR of a kept emitter: a streamed pass over the space (see the
   header). *)
let build (type a) (space : a Space.t) ~max_degree ~step =
  Cr_obs.Obs.span "explicit.of_space" @@ fun () ->
  let module Sp = (val space) in
  let n = Sp.size in
  let row_ptr = Cr_kernel.Lane.create (n + 1) in
  set_lane row_ptr 0 0;
  let targets = Cr_kernel.Lane.create (n * max_degree) in
  let chunk = stream_chunk (module Sp) ~step ~max_degree ~row_ptr ~targets in
  let bounds = chunk_bounds n in
  let ends =
    if Array.length bounds = 1 then [| chunk bounds.(0) |]
    else Par.map_array chunk bounds
  in
  (* close the gaps: chunk [d]'s edges move down to where chunk [d - 1]'s
     end, and its row ends with them *)
  let fill = ref 0 in
  Array.iteri
    (fun d (lo, hi) ->
      let first = lo * max_degree in
      let shift = first - !fill in
      if shift > 0 then begin
        Bytes.blit targets (4 * first) targets (4 * !fill)
          (4 * (ends.(d) - first));
        for i = lo + 1 to hi do
          set_lane row_ptr i (lane row_ptr i - shift)
        done
      end;
      fill := ends.(d) - shift)
    bounds;
  Csr.unsafe_of_lanes ~states:n ~row_ptr ~targets

(* The one place a kept emitter is built; the domain whose result wins
   records it, so the telemetry counts one build per graph. *)
let force_succ t =
  match Atomic.get t.succ with
  | Succ g -> g
  | Succ_todo { max_degree; step } as todo ->
      let g = build t.space ~max_degree ~step in
      if Atomic.compare_and_set t.succ todo (Succ g) then begin
        record_built t g;
        g
      end
      else ( match Atomic.get t.succ with Succ g -> g | Succ_todo _ -> g)

let succ_forced t =
  match Atomic.get t.succ with Succ _ -> true | Succ_todo _ -> false

(* Every edge reader below forces the CSR; [source] does not. *)
let csr = force_succ

let successors t i = Csr.row (force_succ t) i

let out_degree t i = Csr.degree (force_succ t) i

let successor t i k = Csr.kth (force_succ t) i k

let is_terminal t i = Csr.degree (force_succ t) i = 0

(* Successor rows are sorted, so membership is a binary search — this is
   the innermost operation of every refinement/stabilization checker. *)
let has_edge t i j = Csr.mem (force_succ t) i j

let num_transitions t = Csr.num_edges (force_succ t)

let iter_edges t f = Csr.iter_edges (force_succ t) f

let fold_edges t f acc =
  let acc = ref acc in
  iter_edges t (fun i j -> acc := f i j !acc);
  !acc

(* A built CSR's rows, or else per reader the emitter's scratch: the
   state unranked into the space's scratch reader, each row sorted and
   deduplicated as [build] writes it. *)
let source (type a) (t : a t) =
  match Atomic.get t.succ with
  | Succ g -> Csr.source g
  | Succ_todo { max_degree; step } ->
      let module Sp = (val t.space) in
      let reader () =
        let row, fill = row_builder ~max_degree ~step in
        let read = Sp.reader () in
        fun i f ->
          for a = 0 to fill (read i) i - 1 do
            f row.(a)
          done
      in
      { Csr.states = Sp.size; reader }

let lazy_pred () = Atomic.make Pred_todo

(* No counter or span in here: a benign cross-domain race may compute the
   transpose twice (both results identical), and telemetry totals must
   stay CR_JOBS-invariant. *)
let force_pred t =
  match Atomic.get t.pred with
  | Pred p -> p
  | Pred_todo ->
      let p = Csr.transpose (force_succ t) in
      if Atomic.compare_and_set t.pred Pred_todo (Pred p) then p
      else ( match Atomic.get t.pred with Pred p -> p | Pred_todo -> p)

let pred_csr = force_pred

let predecessors t i = Csr.row (force_pred t) i

let pred_forced t =
  match Atomic.get t.pred with Pred _ -> true | Pred_todo -> false

(* The compile path of every list- and layout-built graph: refuse up
   front a reservation past the lane bound, then keep the emitter (see
   the header).  [step () s i emit] emits the index of every successor
   of state [s] at index [i], at most [max_degree] of them besides [i]
   itself; the [unit ->] stage is a per-chunk factory for private
   scratch.  Self-loops and duplicates are dropped when a row is
   read. *)
let of_space (type a) ~name ~(space : a Space.t) ~max_degree ~step
    ~is_initial ~pp_state : a t =
  let n = Space.size space in
  let max = Cr_kernel.Lane.max_lanes in
  if n > max || (n > 0 && max_degree > max / n) then
    raise
      (Space.Too_large
         (Printf.sprintf
            "%s: %d states, up to %d successors each, pass %d lanes" name n
            max_degree max));
  { name; space; succ = Atomic.make (Succ_todo { max_degree; step });
    pred = lazy_pred (); initial = is_initial;
    inits = Atomic.make Inits_todo; pp_state }

let built t succ =
  record_built t succ;
  t

(* The sparse engine's compile: the discovery already built the CSR
   over its space, so it is adopted as it is. *)
let of_sparse ~name (sparse : 'a Space.sparse) ~is_initial ~pp_state : 'a t =
  built
    { name; space = sparse.Space.space;
      succ = Atomic.make (Succ sparse.Space.succ); pred = lazy_pred ();
      initial = is_initial; inits = Atomic.make Inits_todo; pp_state }
    sparse.Space.succ

(* An enumeration held in memory, indexed by a hashtable built once. *)
let array_space name states =
  let lookup = Hashtbl.create (2 * Array.length states + 1) in
  Array.iteri
    (fun i s ->
      if Hashtbl.mem lookup s then
        invalid_arg
          (Printf.sprintf "Explicit: duplicate state in enumeration of %s" name);
      Hashtbl.add lookup s i)
    states;
  Space.dense ~size:(Array.length states) ~state_of_index:(Array.get states)
    ~index_of_state:(Hashtbl.find_opt lookup)
    ~iter_range:(fun lo hi f ->
      for i = lo to hi - 1 do
        f i states.(i)
      done)
    ()

(* A graph given by its successor lists is built at once: the lists
   are already in memory. *)
let of_lists ~name ~space ~is_initial ~pp_state succ_lists =
  let max_degree =
    Array.fold_left (fun d l -> max d (List.length l)) 0 succ_lists
  in
  let t =
    of_space ~name ~space ~max_degree
      ~step:(fun () _ i emit -> List.iter emit succ_lists.(i))
      ~is_initial ~pp_state
  in
  ignore (force_succ t : Csr.t);
  t

let of_edge_lists ~name ~states ~pp_state ~is_initial ~succ_lists =
  Cr_obs.Obs.span "explicit.of_edge_lists" @@ fun () ->
  of_lists ~name ~space:(array_space name states) ~is_initial ~pp_state
    succ_lists

let of_system (type a) (sys : a System.t) =
  Cr_obs.Obs.span "explicit.of_system" @@ fun () ->
  let name = sys.System.name in
  let space = array_space name (Array.of_list sys.System.states) in
  let module Sp = (val space : Space.S with type state = a) in
  (* the successor lists first, which bound the out-degree *)
  let index s' =
    match Sp.index_of_state s' with
    | Some j -> j
    | None ->
        raise
          (Unknown_state
             (Fmt.str "%s: step produced a state outside Sigma: %a" name
                sys.System.pp s'))
  in
  let succ_lists = Array.make Sp.size [] in
  Sp.iter_range 0 Sp.size (fun i s ->
      succ_lists.(i) <- List.map index (sys.System.step s));
  of_lists ~name ~space ~is_initial:sys.System.is_initial
    ~pp_state:sys.System.pp succ_lists

(* Box on explicit systems over the same enumeration: [t2] indexes every
   state of [t1] at the same position.  Systems sharing one space (a
   graph and its {!all_initial} or {!box} derivatives) pass without a
   sweep. *)
let same_states t1 t2 =
  num_states t1 = num_states t2
  && (t1.space == t2.space
     ||
     let exception Differ in
     match
       iter_states t1 (fun i s -> if find_opt t2 s <> Some i then raise Differ)
     with
     | () -> true
     | exception Differ -> false)

(* Union of the transition relations, merged row-by-row straight into one
   flat CSR: no state re-hashing, no per-row arrays.  The targets store
   reserves both operands' edge counts and keeps what the shared edges
   leave unused.  Initial states come from the left operand;
   predecessors stay lazy. *)
let box ?name t1 t2 =
  if not (same_states t1 t2) then
    invalid_arg "Explicit.box: systems do not share a state space";
  Cr_obs.Obs.span "explicit.box" @@ fun () ->
  let name = match name with Some n -> n | None -> t1.name ^ "[]" ^ t2.name in
  let n = num_states t1 in
  let g1 = force_succ t1 and g2 = force_succ t2 in
  let rp1 = Csr.row_ptr g1 and tg1 = Csr.targets g1 in
  let rp2 = Csr.row_ptr g2 and tg2 = Csr.targets g2 in
  let m1 = Csr.num_edges g1 and m2 = Csr.num_edges g2 in
  if m1 > Cr_kernel.Lane.max_lanes - m2 then
    raise
      (Space.Too_large
         (Printf.sprintf "%s: %d and %d transitions pass %d edge lanes" name m1
            m2 Cr_kernel.Lane.max_lanes));
  let row_ptr = Cr_kernel.Lane.create (n + 1) in
  set_lane row_ptr 0 0;
  let out = Cr_kernel.Lane.create (m1 + m2) in
  let k = ref 0 in
  let put v =
    set_lane out !k v;
    incr k
  in
  for i = 0 to n - 1 do
    (* sorted-merge of the two rows, deduplicating shared edges *)
    let p1 = ref (lane rp1 i) and p2 = ref (lane rp2 i) in
    let h1 = lane rp1 (i + 1) and h2 = lane rp2 (i + 1) in
    while !p1 < h1 && !p2 < h2 do
      let x = lane tg1 !p1 and y = lane tg2 !p2 in
      let v = if x <= y then x else y in
      if x <= v then incr p1;
      if y <= v then incr p2;
      put v
    done;
    while !p1 < h1 do put (lane tg1 !p1); incr p1 done;
    while !p2 < h2 do put (lane tg2 !p2); incr p2 done;
    set_lane row_ptr (i + 1) !k
  done;
  let succ = Csr.unsafe_of_lanes ~states:n ~row_ptr ~targets:out in
  built
    { t1 with name; succ = Atomic.make (Succ succ); pred = lazy_pred () }
    succ

let same_transitions t1 t2 =
  same_states t1 t2 && Csr.equal (force_succ t1) (force_succ t2)

let all_initial t =
  let n = num_states t in
  let inits = { mask = Bitset.full n; members = Array.init n Fun.id } in
  { t with initial = (fun _ -> true); inits = Atomic.make (Inits inits) }
