(* Indexed explicit-state representation of a system.  States are numbered
   0..n-1; the transition relation is a CSR graph ([Csr.t]) with self-loops
   removed (no-op steps are stuttering, dropped per DESIGN.md section 2)
   and duplicate edges deduplicated.

   States are not stored: a system keeps the [Space] it was compiled
   over, which hands states out by index and sweeps index ranges — over a
   guarded-command layout by unranking and by an odometer advancing one
   scratch state — so a dense compile of Sigma holds its graph and no
   boxed states.  Full-space consumers sweep ([iter_states]) rather than
   index state by state.

   Every constructor is one streamed pass ([of_space]): the index range
   is split into chunks (the CR_JOBS contract of [Par]; default 1 = one
   chunk), each sweeping its range, sorting and deduplicating each row in
   a scratch buffer and appending it to its own edge blocks, writing the
   row ends into the shared [row_ptr] and the initial states into the
   shared bitset (chunk boundaries are multiples of 64, so chunks write
   disjoint words).  The blocks are concatenated in chunk order.  Row i
   depends on i alone, so the result is identical for every job count.

   The predecessor CSR is lazy: [Csr.transpose] runs on the first
   [predecessors]/backward use, because the refinement checkers never
   look at predecessors.  The thunk is an [Atomic]: if two domains race
   on the first force, both compute the same deterministic transpose and
   one of the identical results wins — no lock, no [Lazy.Undefined]. *)

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

type pred = Pred_todo | Pred of Csr.t

type 'a t = {
  name : string;
  space : 'a Space.t;  (* index <-> state bijection and range sweeps *)
  succ : Csr.t;  (* each row sorted ascending, deduplicated *)
  pred : pred Atomic.t;  (* transposed from [succ] on first use *)
  is_initial : Bitset.t;
  initials : int array;
  pp_state : Format.formatter -> 'a -> unit;
}

let name t = t.name

let rename name t = { t with name }

let num_states t = Space.size t.space

let state (type a) (t : a t) i =
  let module Sp = (val t.space) in
  if i < 0 || i >= Sp.size then invalid_arg "Explicit.state";
  Sp.state_of_index i

let find_opt (type a) (t : a t) s =
  let module Sp = (val t.space) in
  Sp.index_of_state s

let iter_states (type a) (t : a t) f =
  let module Sp = (val t.space) in
  Sp.iter_range 0 Sp.size f

let pp_state t fmt i = t.pp_state fmt (state t i)

let state_to_string t i = Fmt.str "%a" (fun fmt -> t.pp_state fmt) (state t i)

let find t s =
  match find_opt t s with
  | Some i -> i
  | None -> raise (Unknown_state t.name)

(* Hands out the internal CSR directly — every checker kernel consumes
   this view without a copy. *)
let csr t = t.succ

let successors t i = Csr.row t.succ i

let out_degree t i = Csr.degree t.succ i

let successor t i k = Csr.kth t.succ i k

let is_initial t i = Bitset.get t.is_initial i

let initial_mask t = t.is_initial

let initials t = t.initials

let is_terminal t i = Csr.degree t.succ i = 0

(* Successor rows are sorted, so membership is a binary search — this is
   the innermost operation of every refinement/stabilization checker. *)
let has_edge t i j = Csr.mem t.succ i j

let num_transitions t = Csr.num_edges t.succ

let iter_edges t f = Csr.iter_edges t.succ f

let fold_edges t f acc =
  let acc = ref acc in
  iter_edges t (fun i j -> acc := f i j !acc);
  !acc

let lazy_pred () = Atomic.make Pred_todo

(* No counter or span in here: a benign cross-domain race may compute the
   transpose twice (both results identical), and telemetry totals must
   stay CR_JOBS-invariant. *)
let force_pred t =
  match Atomic.get t.pred with
  | Pred p -> p
  | Pred_todo ->
      let p = Csr.transpose t.succ in
      if Atomic.compare_and_set t.pred Pred_todo (Pred p) then p
      else ( match Atomic.get t.pred with Pred p -> p | Pred_todo -> p)

let pred_csr = force_pred

let predecessors t i = Csr.row (force_pred t) i

let pred_forced t =
  match Atomic.get t.pred with Pred _ -> true | Pred_todo -> false

let initials_of mask =
  let out = Array.make (Bitset.count mask) 0 in
  let k = ref 0 in
  Bitset.iter_set_bits mask (fun i ->
      out.(!k) <- i;
      incr k);
  out

let record_built t =
  if Cr_obs.Obs.tracking () then begin
    Cr_obs.Obs.incr c_systems;
    Cr_obs.Obs.add c_states (num_states t);
    Cr_obs.Obs.add c_transitions (num_transitions t);
    Cr_obs.Obs.record_max c_largest (num_states t)
  end;
  Cr_obs.Journal.emit "explicit.built"
    [
      ("name", Cr_obs.Journal.S (name t));
      ("states", Cr_obs.Journal.I (num_states t));
      ("transitions", Cr_obs.Journal.I (num_transitions t));
    ];
  t

(* Insertion sort of [row.(0 .. k-1)] in place: rows are short (at most
   one entry per action of a guarded-command program) or already sorted
   (the sparse engine's replayed rows), where it is linear. *)
let sort_prefix row k =
  for a = 1 to k - 1 do
    let x = row.(a) in
    let b = ref (a - 1) in
    while !b >= 0 && row.(!b) > x do
      row.(!b + 1) <- row.(!b);
      decr b
    done;
    row.(!b + 1) <- x
  done

(* One chunk of the streamed compile: sweep [lo, hi), write each row's
   end (relative to the chunk's first edge) into [row_ptr.(i + 1)], mark
   initial states in [init], and return the chunk's edges as blocks in
   order plus their count.  Blocks double in size up to 64 Ki entries, so
   a chunk never copies its edges while it grows. *)
let stream_chunk (type a) (module Sp : Space.S with type state = a) ~step
    ~is_initial ~row_ptr ~init (lo, hi) =
  let block_cap = 1 lsl 16 in
  let full = ref [] and full_edges = ref 0 in
  let cur = ref (Array.make (max 16 (min block_cap (2 * (hi - lo)))) 0) in
  let fill = ref 0 in
  let append x =
    if !fill = Array.length !cur then begin
      full := !cur :: !full;
      full_edges := !full_edges + !fill;
      cur := Array.make (min block_cap (2 * !fill)) 0;
      fill := 0
    end;
    !cur.(!fill) <- x;
    incr fill
  in
  let row = ref (Array.make 16 0) and k = ref 0 in
  let self = ref 0 in
  let emit j =
    if j <> !self then begin
      if !k = Array.length !row then begin
        let bigger = Array.make (2 * !k) 0 in
        Array.blit !row 0 bigger 0 !k;
        row := bigger
      end;
      !row.(!k) <- j;
      incr k
    end
  in
  let st = step () in
  Sp.iter_range lo hi (fun i s ->
      if is_initial s then Bitset.set init i;
      self := i;
      k := 0;
      st s i emit;
      let r = !row in
      sort_prefix r !k;
      for a = 0 to !k - 1 do
        if a = 0 || r.(a) <> r.(a - 1) then append r.(a)
      done;
      row_ptr.(i + 1) <- !full_edges + !fill);
  (List.rev (!cur :: !full), !full_edges + !fill)

(* The one compile path: a streamed pass over [space] (see the header).
   [step () s i emit] emits the index of every successor of state [s] at
   index [i]; the [unit ->] stage is a per-chunk factory for private
   scratch.  Self-loops and duplicates are dropped here. *)
let of_space (type a) ~name ~(space : a Space.t) ~step ~is_initial ~pp_state :
    a t =
  Cr_obs.Obs.span "explicit.of_space" @@ fun () ->
  let module Sp = (val space) in
  let n = Sp.size in
  let row_ptr = Array.make (n + 1) 0 in
  let init = Bitset.create n in
  let chunk = stream_chunk (module Sp) ~step ~is_initial ~row_ptr ~init in
  let jobs = min (Par.current_jobs ()) (max n 1) in
  let bounds =
    if jobs <= 1 then [| (0, n) |]
    else begin
      (* more chunks than domains (claimed from the pool's item
         counter), each spanning whole words of [init] *)
      let nwords = (n + 63) / 64 in
      let num_chunks = max 1 (min nwords (jobs * 4)) in
      let boundary d = min n (d * nwords / num_chunks * 64) in
      Array.init num_chunks (fun d -> (boundary d, boundary (d + 1)))
    end
  in
  let parts =
    if Array.length bounds = 1 then [| chunk bounds.(0) |]
    else Par.map_array chunk bounds
  in
  let total = Array.fold_left (fun acc (_, m) -> acc + m) 0 parts in
  let targets =
    match parts with
    | [| ([ b ], m) |] when m = Array.length b -> b
    | _ ->
        let targets = Array.make total 0 in
        let off = ref 0 in
        Array.iteri
          (fun d (blocks, m) ->
            let base = !off in
            let lo, hi = bounds.(d) in
            if base > 0 then
              for i = lo + 1 to hi do
                row_ptr.(i) <- row_ptr.(i) + base
              done;
            let left = ref m in
            List.iter
              (fun b ->
                let len = min !left (Array.length b) in
                Array.blit b 0 targets !off len;
                off := !off + len;
                left := !left - len)
              blocks)
          parts;
        targets
  in
  let succ = Csr.unsafe_of_raw ~row_ptr ~targets in
  record_built
    { name; space; succ; pred = lazy_pred (); is_initial = init;
      initials = initials_of init; pp_state }

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

let of_edge_lists ~name ~states ~pp_state ~is_initial ~succ_lists =
  Cr_obs.Obs.span "explicit.of_edge_lists" @@ fun () ->
  of_space ~name ~space:(array_space name states)
    ~step:(fun () _ i emit -> List.iter emit succ_lists.(i))
    ~is_initial ~pp_state

let of_system (type a) (sys : a System.t) =
  Cr_obs.Obs.span "explicit.of_system" @@ fun () ->
  let name = sys.System.name in
  let space = array_space name (Array.of_list sys.System.states) in
  let module Sp = (val space : Space.S with type state = a) in
  let step () s _ emit =
    List.iter
      (fun s' ->
        match Sp.index_of_state s' with
        | Some j -> emit j
        | None ->
            raise
              (Unknown_state
                 (Fmt.str "%s: step produced a state outside Sigma: %a" name
                    sys.System.pp s')))
      (sys.System.step s)
  in
  of_space ~name ~space ~step ~is_initial:sys.System.is_initial
    ~pp_state:sys.System.pp

(* Box on explicit systems over the same enumeration: [t2] indexes every
   state of [t1] at the same position.  Systems sharing one space (e.g.
   re-targeted cache hits) pass without a sweep. *)
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
   flat CSR: no state re-hashing, no per-row arrays.  Initial states come
   from the left operand; predecessors stay lazy. *)
let box ?name t1 t2 =
  if not (same_states t1 t2) then
    invalid_arg "Explicit.box: systems do not share a state space";
  Cr_obs.Obs.span "explicit.box" @@ fun () ->
  let name = match name with Some n -> n | None -> t1.name ^ "[]" ^ t2.name in
  let n = num_states t1 in
  let rp1 = Csr.row_ptr t1.succ and tg1 = Csr.targets t1.succ in
  let rp2 = Csr.row_ptr t2.succ and tg2 = Csr.targets t2.succ in
  let row_ptr = Array.make (n + 1) 0 in
  let out = Array.make (Array.length tg1 + Array.length tg2) 0 in
  let k = ref 0 in
  for i = 0 to n - 1 do
    (* sorted-merge of the two rows, deduplicating shared edges *)
    let p1 = ref rp1.(i) and p2 = ref rp2.(i) in
    let h1 = rp1.(i + 1) and h2 = rp2.(i + 1) in
    while !p1 < h1 && !p2 < h2 do
      let x = tg1.(!p1) and y = tg2.(!p2) in
      let v = if x <= y then x else y in
      if x <= v then incr p1;
      if y <= v then incr p2;
      out.(!k) <- v;
      incr k
    done;
    while !p1 < h1 do out.(!k) <- tg1.(!p1); incr p1; incr k done;
    while !p2 < h2 do out.(!k) <- tg2.(!p2); incr p2; incr k done;
    row_ptr.(i + 1) <- !k
  done;
  let targets = if !k = Array.length out then out else Array.sub out 0 !k in
  let succ = Csr.unsafe_of_raw ~row_ptr ~targets in
  record_built { t1 with name; succ; pred = lazy_pred () }

let same_transitions t1 t2 = same_states t1 t2 && Csr.equal t1.succ t2.succ

(* Shares the transition CSR, the space and the (possibly already
   forced) predecessor transpose with the original; one sweep marks the
   new initial states. *)
let with_initials t pred =
  let is_initial = Bitset.create (num_states t) in
  iter_states t (fun i s -> if pred s then Bitset.set is_initial i);
  { t with is_initial; initials = initials_of is_initial }
