open Cr_semantics
module Par = Cr_kernel.Par

let[@inline] lane b k = Int32.to_int (Cr_kernel.Lane.get32u b (4 * k))

(* Refinement checkers (Section 2 of the paper), decided on explicit
   finite-state systems via edge classification.

   Every transition (s, s') of the concrete system C is classified against
   the abstract system A through the (tabulated) abstraction alpha:

   - Stutter      : alpha s = alpha s'   (a "τ step"; the image does not move)
   - Exact        : (alpha s, alpha s') is a transition of A
   - Compression k: a shortest A-path of length k >= 2 joins the images
                    (C drops k-1 interior states of A's computation)
   - Unmatched    : no A-path joins the images.

   [C ⊑ A]_init  — reachable-from-initial edges all Exact, initial images
                   initial, terminal images terminal.
   [C ⊑ A]       — all edges Exact, all terminals match, initial images
                   initial.
   [C ⪯ A]       — init-refinement holds; no edge Unmatched; no Compression
                   edge on a cycle of C (so omissions are finite); no cycle
                   of C made solely of Stutter edges unless its image is
                   A-terminal; terminal images terminal.
   everywhere-eventually — init-refinement holds; non-Exact edges are not
                   on cycles; terminal images terminal.

   The checks are sound: a "holds" verdict implies the trace-theoretic
   definition (matching A-paths concatenate into a computation of A, and
   maximality is preserved by the terminal conditions).

   All sweeps run over the systems' flat CSR graphs (zero-copy views).
   Classification has one code path for every job count: a chunked
   stutter/exact sweep, one batched BFS oracle for the remaining path
   queries, and a chunked resolve against it, all under the CR_JOBS
   contract of [Par].  Every verdict is memoized in a content-addressed
   [Cr_kernel.Memo] keyed by [Check_cache.key]. *)

type edge_class = Stutter | Exact | Compression of int

type failure =
  | Initial_not_initial of int
      (* concrete initial state whose image is not initial in A *)
  | Init_edge_not_exact of int * int
      (* reachable-from-init edge that is not an A-transition *)
  | Edge_unmatched of int * int  (* no A-path between the images *)
  | Compression_on_cycle of int * int
  | Stutter_cycle of int  (* a representative state of a stutter-only cycle *)
  | Terminal_not_terminal of int  (* C-terminal whose image is not A-terminal *)
  | Non_exact_on_cycle of int * int  (* everywhere-eventually violation *)

let pp_failure c a fmt = function
  | Initial_not_initial i ->
      Fmt.pf fmt "initial state %s maps outside the initial states of %s"
        (Explicit.state_to_string c i) (Explicit.name a)
  | Init_edge_not_exact (i, j) ->
      Fmt.pf fmt
        "reachable transition %s -> %s is not a transition of %s"
        (Explicit.state_to_string c i)
        (Explicit.state_to_string c j)
        (Explicit.name a)
  | Edge_unmatched (i, j) ->
      Fmt.pf fmt "transition %s -> %s matches no path of %s"
        (Explicit.state_to_string c i)
        (Explicit.state_to_string c j)
        (Explicit.name a)
  | Compression_on_cycle (i, j) ->
      Fmt.pf fmt
        "compression edge %s -> %s lies on a cycle (omissions unbounded)"
        (Explicit.state_to_string c i)
        (Explicit.state_to_string c j)
  | Stutter_cycle i ->
      Fmt.pf fmt
        "stutter-only cycle through %s whose image cannot end a computation \
         of %s"
        (Explicit.state_to_string c i)
        (Explicit.name a)
  | Terminal_not_terminal i ->
      Fmt.pf fmt "terminal state %s maps to a non-terminal state of %s"
        (Explicit.state_to_string c i)
        (Explicit.name a)
  | Non_exact_on_cycle (i, j) ->
      Fmt.pf fmt "non-exact edge %s -> %s lies on a cycle"
        (Explicit.state_to_string c i)
        (Explicit.state_to_string c j)

type stats = {
  edges : int;
  exact : int;
  stutter : int;
  compressions : int;
  max_dropped : int;  (* largest number of A-states dropped by one edge *)
}

let empty_stats =
  { edges = 0; exact = 0; stutter = 0; compressions = 0; max_dropped = 0 }

type report = {
  holds : bool;
  stats : stats;
  failures : failure list;
  total_failures : int;
      (* number of failures found, before [failures] was truncated *)
  concrete : string;
  abstract : string;
  relation : string;
  cost : Cr_obs.Obs.snapshot option;
      (* counter movement of this check on the calling domain; [None]
         unless telemetry collection is on *)
}

let pp_report fmt r =
  if r.holds then
    Fmt.pf fmt "[%s %s %s] HOLDS (%d edges: %d exact, %d stutter, %d \
                compressions, max drop %d)"
      r.concrete r.relation r.abstract r.stats.edges r.stats.exact
      r.stats.stutter r.stats.compressions r.stats.max_dropped
  else if List.length r.failures < r.total_failures then
    Fmt.pf fmt "[%s %s %s] FAILS (showing %d of %d failure(s))" r.concrete
      r.relation r.abstract (List.length r.failures) r.total_failures
  else
    Fmt.pf fmt "[%s %s %s] FAILS (%d failure(s))" r.concrete r.relation
      r.abstract r.total_failures

(* The concrete state a failure is anchored at (the source of the failing
   edge, or the failing state itself). *)
let failure_state = function
  | Initial_not_initial i
  | Terminal_not_terminal i
  | Stutter_cycle i
  | Init_edge_not_exact (i, _)
  | Edge_unmatched (i, _)
  | Compression_on_cycle (i, _)
  | Non_exact_on_cycle (i, _) ->
      i

let max_reported_failures = 10

(* Classified edges of the concrete system: its CSR and, parallel to
   the CSR's targets, the class of every edge ([cls.(k)] for the edge at
   offset [k]).  The slot of every edge is its absolute CSR offset,
   which is what lets the chunked sweep fill disjoint slices and still
   merge to a job-count-independent result. *)
type classified = { graph : Cr_kernel.Csr.t; cls : edge_class option array }

let iter_classified t f =
  let rp = Cr_kernel.Csr.row_ptr t.graph
  and tg = Cr_kernel.Csr.targets t.graph in
  for i = 0 to Cr_kernel.Csr.num_states t.graph - 1 do
    for k = lane rp i to lane rp (i + 1) - 1 do
      f i (lane tg k) t.cls.(k)
    done
  done

(* Edge-class telemetry, published once per classify from the merged
   chunk totals (the sweep itself carries no instrumentation beyond the
   oracle's own counters). *)
let c_classify_runs = Cr_obs.Obs.counter "refine.classify.runs"

(* Wall time of each step-A chunk of the classification — the
   load-balance view of the CR_JOBS fan-out (one observation per chunk;
   the chunk *count* therefore varies with the job count even though the
   classified output does not). *)
let h_chunk = Cr_obs.Obs.histogram "refine.classify.chunk_us"
let c_edges_exact = Cr_obs.Obs.counter "refine.edges.exact"
let c_edges_stutter = Cr_obs.Obs.counter "refine.edges.stutter"
let c_edges_compression = Cr_obs.Obs.counter "refine.edges.compression"
let c_edges_unmatched = Cr_obs.Obs.counter "refine.edges.unmatched"
let c_max_dropped = Cr_obs.Obs.counter ~kind:Cr_obs.Obs.Max "refine.max_dropped"

(* Classify each edge of [c] against [a] through [alpha], in three steps
   that every job count runs alike:

   A. each chunk of rows classifies its stutter and exact edges and
      leaves its path-query edges [None];
   B. one oracle BFSes the source image of every pending edge
      ([Paths.oracle]: each distinct source one BFS, as parallel items);
   C. each chunk resolves its own pending edges — the [None] slots of
      its range of [cls] — by pure lookups in that shared oracle.

   A pending edge has distinct images (equal images are a stutter), so
   its class is [Compression d] for a BFS distance d >= 2 (d = 1 would
   have been exact) and unmatched otherwise.

   CR_JOBS = 1 runs one chunk; otherwise the rows are split into many
   more contiguous chunks than domains, claimed from [Par]'s atomic item
   counter so edge-balanced stragglers stop serializing the fan-out.
   Chunk boundaries are edge-balanced (binary search of the cumulative
   edge count in [row_ptr]), every class is written at its edge's
   absolute CSR offset into one preallocated array, and per-chunk
   tallies are merged in chunk order — so the classes, the stats and
   every merged counter ([refine.*], [paths.*]) are identical for every
   job count.  Steps B and C walk [c]'s rows for the edge sources: the
   classes are all the classification adds to the CSR. *)
let classify ~alpha ~(c : _ Explicit.t) ~(a : _ Explicit.t) :
    classified * stats =
  Abstraction.check_length ~who:"Refine.classify" alpha c;
  Cr_obs.Obs.span "refine.classify" @@ fun () ->
  let succ_a = Explicit.csr a in
  let g = Explicit.csr c in
  let rp = Cr_kernel.Csr.row_ptr g and tg = Cr_kernel.Csr.targets g in
  let arp = Cr_kernel.Csr.row_ptr succ_a
  and atg = Cr_kernel.Csr.targets succ_a in
  let n = Explicit.num_states c in
  let m = Cr_kernel.Csr.num_edges g in
  let cls = Array.make m None in
  let some_stutter = Some Stutter and some_exact = Some Exact in
  (* Step A over rows [lo, hi), writing each class at its edge's offset;
     returns this chunk's exact/stutter tallies. *)
  let classify_rows (lo, hi) =
    let t0 = if Cr_obs.Obs.tracking () then Cr_obs.Obs.now_us () else 0. in
    let exact = ref 0 and stutter = ref 0 in
    for i = lo to hi - 1 do
      let klo = lane rp i and khi = lane rp (i + 1) in
      if khi > klo then begin
        (* the source image and its abstract row bounds are fixed per
           row, so they are hoisted out of the inner edge loop *)
        let ai = lane alpha i in
        let alo = lane arp ai and ahi = lane arp (ai + 1) in
        for k = klo to khi - 1 do
          let aj = lane alpha (lane tg k) in
          if ai = aj then begin
            incr stutter;
            cls.(k) <- some_stutter
          end
          else begin
            (* binary search in the sorted abstract successor row *)
            let slo = ref alo and shi = ref ahi in
            while !shi - !slo > 1 do
              let mid = (!slo + !shi) / 2 in
              if lane atg mid <= aj then slo := mid else shi := mid
            done;
            if !shi > !slo && lane atg !slo = aj then begin
              incr exact;
              cls.(k) <- some_exact
            end
          end
        done
      end
    done;
    if Cr_obs.Obs.tracking () then
      Cr_obs.Obs.observe h_chunk (int_of_float (Cr_obs.Obs.now_us () -. t0));
    (!exact, !stutter)
  in
  (* Step C over rows [lo, hi): resolve the edges step A left [None]. *)
  let resolve oracle (lo, hi) =
    let compressions = ref 0 and max_dropped = ref 0 in
    for i = lo to hi - 1 do
      for k = lane rp i to lane rp (i + 1) - 1 do
        match cls.(k) with
        | Some _ -> ()
        | None ->
            let len =
              Cr_checker.Paths.distance oracle ~src:(lane alpha i)
                ~dst:(lane alpha (lane tg k))
            in
            if len >= 2 then begin
              cls.(k) <- Some (Compression len);
              incr compressions;
              if len - 1 > !max_dropped then max_dropped := len - 1
            end
      done
    done;
    (!compressions, !max_dropped)
  in
  let jobs = min (Par.current_jobs ()) (max n 1) in
  let num_chunks = if jobs <= 1 then 1 else max jobs (min n (jobs * 8)) in
  (* Edge-balanced chunk boundaries: state index d covers edges up to
     roughly d*m/num_chunks.  [row_ptr] is nondecreasing, so the smallest
     state whose cumulative edge count reaches the quota is a binary
     search; boundaries are nondecreasing by construction. *)
  let boundary d =
    if d = 0 then 0
    else if d = num_chunks then n
    else begin
      let want = d * m / num_chunks in
      let lo = ref 0 and hi = ref n in
      (* smallest i with rp.(i) >= want *)
      while !hi - !lo > 0 do
        let mid = (!lo + !hi) / 2 in
        if lane rp mid < want then lo := mid + 1 else hi := mid
      done;
      !lo
    end
  in
  let chunks = Array.init num_chunks (fun d -> (boundary d, boundary (d + 1))) in
  let parts = Par.map_array classify_rows chunks in
  let exact, stutter =
    Array.fold_left (fun (e, s) (e', s') -> (e + e', s + s')) (0, 0) parts
  in
  (* step B: the source image of every pending edge, in edge order — one
     entry per query, which is what the oracle's accounting expects *)
  let sources = Array.make (m - exact - stutter) 0 in
  let w = ref 0 in
  for i = 0 to n - 1 do
    for k = lane rp i to lane rp (i + 1) - 1 do
      match cls.(k) with
      | Some _ -> ()
      | None ->
          sources.(!w) <- lane alpha i;
          incr w
    done
  done;
  let oracle = Cr_checker.Paths.oracle ~succ:succ_a ~sources in
  let compressions, max_dropped =
    Array.fold_left
      (fun (cp, md) (cp', md') -> (cp + cp', max md md'))
      (0, 0)
      (Par.map_array (resolve oracle) chunks)
  in
  if Cr_obs.Obs.tracking () then begin
    Cr_obs.Obs.incr c_classify_runs;
    Cr_obs.Obs.add c_edges_exact exact;
    Cr_obs.Obs.add c_edges_stutter stutter;
    Cr_obs.Obs.add c_edges_compression compressions;
    Cr_obs.Obs.add c_edges_unmatched (m - exact - stutter - compressions);
    Cr_obs.Obs.record_max c_max_dropped max_dropped
  end;
  ( { graph = g; cls },
    { edges = m; exact; stutter; compressions; max_dropped } )

(* Bounded failure evidence.  A relation can fail on every edge (E17's
   read/write ring fails on ~10^5 stutter edges at N = 8), but a report
   shows at most [max_reported_failures] of them, so the checkers count
   every failure and keep only what [make_report] can show.  A report
   lists the edge and stutter-cycle failures newest first, then the
   initial failures ascending, then the terminal failures ascending; so
   the collector keeps the newest pushes in a ring of ints (kind, source,
   target: a failing edge allocates nothing) and the leading initial and
   terminal failures. *)
type pushed_kind =
  | Init_edge
  | Unmatched
  | Compression_cycle
  | Stutter_loop
  | Non_exact_cycle

(* A failure kind counted in full but kept only up to the bound. *)
type leading = { first : int array; mutable count : int }

type collector = {
  kind : pushed_kind array;
      (* ring of the newest pushes, at slot [pushed mod max] *)
  src : int array;
  dst : int array;
  mutable pushed : int;
  initial : leading;
  terminal : leading;
}

let collector () =
  let ints () = Array.make max_reported_failures 0 in
  {
    kind = Array.make max_reported_failures Init_edge;
    src = ints ();
    dst = ints ();
    pushed = 0;
    initial = { first = ints (); count = 0 };
    terminal = { first = ints (); count = 0 };
  }

let push col kind i j =
  let slot = col.pushed mod max_reported_failures in
  col.kind.(slot) <- kind;
  col.src.(slot) <- i;
  col.dst.(slot) <- j;
  col.pushed <- col.pushed + 1

let note l i =
  if l.count < max_reported_failures then l.first.(l.count) <- i;
  l.count <- l.count + 1

let initial_failures col ~alpha ~(c : _ Explicit.t) ~(a : _ Explicit.t) =
  Array.iter
    (fun i ->
      if not (Explicit.is_initial a (lane alpha i)) then note col.initial i)
    (Explicit.initials c)

let terminal_failures col ~alpha ~(c : _ Explicit.t) ~(a : _ Explicit.t)
    ~(restrict : Cr_kernel.Bitset.t option) =
  let consider i =
    match restrict with
    | None -> true
    | Some mask -> Cr_kernel.Bitset.get mask i
  in
  for i = 0 to Explicit.num_states c - 1 do
    if consider i && Explicit.is_terminal c i
       && not (Explicit.is_terminal a (lane alpha i))
    then note col.terminal i
  done

(* The shown failures, built once: the newest pushes (newest first), then
   the leading initial and terminal failures, up to the bound. *)
let shown col =
  let pushed = min col.pushed max_reported_failures in
  let ring t =
    let slot = (col.pushed - 1 - t) mod max_reported_failures in
    let i = col.src.(slot) and j = col.dst.(slot) in
    match col.kind.(slot) with
    | Init_edge -> Init_edge_not_exact (i, j)
    | Unmatched -> Edge_unmatched (i, j)
    | Compression_cycle -> Compression_on_cycle (i, j)
    | Stutter_loop -> Stutter_cycle i
    | Non_exact_cycle -> Non_exact_on_cycle (i, j)
  in
  let initials = min col.initial.count (max_reported_failures - pushed) in
  let terminals =
    min col.terminal.count (max_reported_failures - pushed - initials)
  in
  List.init pushed ring
  @ List.init initials (fun t -> Initial_not_initial col.initial.first.(t))
  @ List.init terminals (fun t -> Terminal_not_terminal col.terminal.first.(t))

let make_report ~relation ~c ~a ~stats col =
  let total_failures = col.pushed + col.initial.count + col.terminal.count in
  {
    holds = total_failures = 0;
    stats;
    failures = shown col;
    total_failures;
    concrete = Explicit.name c;
    abstract = Explicit.name a;
    relation;
    cost = None;
  }

(* Run one checker under a named span and attach its domain-local
   counter and allocation cost ([Obs.domain_cost]) to the verdict. *)
let with_cost span_name f =
  Cr_obs.Obs.span span_name @@ fun () ->
  let report, cost = Cr_obs.Obs.domain_cost f in
  { report with cost }

(* Verdict memo shared by all four relations: the key covers the
   relation tag, both systems (names, exact transition structure,
   initial states), the resolved abstraction table and the fairness
   tables, so a hit can only return a report computed for an identical
   question (see [Check_cache.key]). *)
let memo : report Cr_kernel.Memo.t = Cr_kernel.Memo.create ~name:"check"

let same_report r1 r2 = { r1 with cost = None } = { r2 with cost = None }

(* The α-table a relation reads: the caller's, checked once against C
   here (every later read is an unchecked lane load), or the
   identity. *)
let resolve_alpha ~who ~c = function
  | Some t ->
      Abstraction.check_length ~who t c;
      t
  | None -> Abstraction.identity_table (Explicit.num_states c)

(* One journal event per verdict delivered to a caller.  [cached] is
   true when the report came out of the verdict cache without running
   the checker (under CR_CACHE_PARANOID the paranoid re-check makes a
   hit look fresh — the honest reading, since the work was done). *)
let emit_verdict ~was_cached (r : report) =
  if Cr_obs.Obs.tracking () then
    let open Cr_obs.Obs in
    event "refine.verdict"
      ([
         ("relation", S r.relation);
         ("concrete", S r.concrete);
         ("abstract", S r.abstract);
         ("holds", B r.holds);
         ("edges", I r.stats.edges);
         ("failures", I r.total_failures);
         ("cached", B was_cached);
       ]
      @ match r.cost with Some snap -> [ ("cost", Snap snap) ] | None -> [])

let cached ~relation ~alpha ~fair ~c ~a check =
  let r, ran =
    Cr_kernel.Memo.find memo
      ~key:(fun () ->
        Check_cache.key ~relation ~c_initials:true ~alpha ~fair ~c ~a)
      ~same:same_report check
  in
  emit_verdict ~was_cached:(not ran) r;
  r

(* Does edge (i, j) of [c] lie on a cycle — a weakly-fair one under
   [?fair] (computations are restricted to weakly fair ones; see
   {!Fair})?  Without fairness the SCCs are computed on demand: only
   edges that can fail query them. *)
let edge_on_cycle ~fair (succ_c : Cr_kernel.Csr.t) =
  match fair with
  | None ->
      let scc = lazy (Cr_checker.Scc.compute succ_c) in
      fun i j -> Cr_checker.Scc.edge_on_cycle (Lazy.force scc) i j
  | Some tables ->
      let analysis =
        Fair.analyze tables ~succ:succ_c
          ~mask:(Cr_kernel.Bitset.full (Cr_kernel.Csr.num_states succ_c))
      in
      fun i j -> Fair.edge_on_fair_cycle analysis i j

(* Stutter-only cycles: an infinite computation of C whose image is
   eventually constant normalizes to a finite sequence, so its (constant)
   image must be able to end a computation of A, i.e. be A-terminal.
   Pushes one [Stutter_cycle] failure per offending state.  A system
   with no stutter edge has no such cycle — the pass is skipped. *)
let stutter_check ~alpha ~fair ~(c : _ Explicit.t) ~(a : _ Explicit.t)
    ~(stats : stats) col =
  if stats.stutter > 0 then
    Cr_obs.Obs.span "refine.stutter_check" @@ fun () ->
    let n = Explicit.num_states c in
    let stutter_adj =
      Cr_kernel.Csr.filter (Explicit.csr c) (fun i j ->
          lane alpha i = lane alpha j)
    in
    let on_stutter_cycle =
      match fair with
      | None ->
          let stutter_scc = Cr_checker.Scc.compute stutter_adj in
          fun i -> Cr_checker.Scc.on_cycle stutter_scc i
      | Some tables ->
          let analysis =
            Fair.analyze tables ~succ:stutter_adj
              ~mask:(Cr_kernel.Bitset.full n)
          in
          fun i -> analysis.Fair.fair.(i)
    in
    for i = 0 to n - 1 do
      if on_stutter_cycle i && not (Explicit.is_terminal a (lane alpha i)) then
        push col Stutter_loop i i
    done

(* [C ⊑ A]_init *)
let init_refinement ?alpha ~(c : _ Explicit.t) ~(a : _ Explicit.t) () =
  let alpha = resolve_alpha ~who:"Refine.init_refinement" ~c alpha in
  cached ~relation:"⊑_init" ~alpha ~fair:None ~c ~a @@ fun () ->
  with_cost "refine.init" @@ fun () ->
  let reach = Cr_checker.Reach.reachable_from_initial c in
  let col = collector () in
  initial_failures col ~alpha ~c ~a;
  let edges = ref 0 and exact = ref 0 in
  Explicit.iter_edges c (fun i j ->
      if Cr_kernel.Bitset.get reach i then begin
        incr edges;
        if Explicit.has_edge a (lane alpha i) (lane alpha j) then incr exact
        else push col Init_edge i j
      end);
  terminal_failures col ~alpha ~c ~a ~restrict:(Some reach);
  let stats = { empty_stats with edges = !edges; exact = !exact } in
  make_report ~relation:"⊑_init" ~c ~a ~stats col

(* [C ⊑ A] — everywhere refinement *)
let everywhere_refinement ?alpha ~(c : _ Explicit.t) ~(a : _ Explicit.t) () =
  let alpha = resolve_alpha ~who:"Refine.everywhere_refinement" ~c alpha in
  cached ~relation:"⊑" ~alpha ~fair:None ~c ~a @@ fun () ->
  with_cost "refine.everywhere" @@ fun () ->
  let col = collector () in
  initial_failures col ~alpha ~c ~a;
  let edges = ref 0 and exact = ref 0 in
  Explicit.iter_edges c (fun i j ->
      incr edges;
      if Explicit.has_edge a (lane alpha i) (lane alpha j) then incr exact
      else push col Init_edge i j);
  terminal_failures col ~alpha ~c ~a ~restrict:None;
  let stats = { empty_stats with edges = !edges; exact = !exact } in
  make_report ~relation:"⊑" ~c ~a ~stats col

(* [C ⪯ A] — convergence refinement.  With [?fair], "on a cycle" means
   "on a weakly-fair cycle" (see [edge_on_cycle]). *)
let convergence_refinement ?alpha ?fair ~(c : _ Explicit.t)
    ~(a : _ Explicit.t) () =
  let alpha = resolve_alpha ~who:"Refine.convergence_refinement" ~c alpha in
  cached ~relation:"⪯" ~alpha ~fair ~c ~a @@ fun () ->
  with_cost "refine.convergence" @@ fun () ->
  let classified, stats = classify ~alpha ~c ~a in
  let succ_c = Explicit.csr c in
  let edge_on_cycle = edge_on_cycle ~fair succ_c in
  let col = collector () in
  initial_failures col ~alpha ~c ~a;
  (* 1. Init refinement: reachable edges must be Exact.  The forward
     reachability walks [c]'s own CSR from its initial mask — no
     adjacency rebuild, no seed list. *)
  Cr_obs.Obs.span "refine.init_check" (fun () ->
      let reach = Cr_checker.Reach.reachable_from_initial c in
      iter_classified classified (fun i j cls ->
          match cls with
          | Some Exact -> ()
          | _ -> if Cr_kernel.Bitset.get reach i then push col Init_edge i j));
  (* 2. Global matching + finiteness of omissions. *)
  Cr_obs.Obs.span "refine.cycle_check" (fun () ->
      iter_classified classified (fun i j cls ->
          match cls with
          | None -> push col Unmatched i j
          | Some (Compression _) when edge_on_cycle i j ->
              push col Compression_cycle i j
          | Some _ -> ()));
  (* 3. Stutter-only cycles. *)
  stutter_check ~alpha ~fair ~c ~a ~stats col;
  (* 4. Terminal matching (everywhere). *)
  terminal_failures col ~alpha ~c ~a ~restrict:None;
  make_report ~relation:"⪯" ~c ~a ~stats col

(* Everywhere-eventually refinement (Section 7): arbitrary finite prefix
   followed by a computation of A.  Unlike convergence refinement, the
   prefix is unconstrained (no per-edge matching against A), so only
   edges that can recur forever matter: any non-Exact non-Stutter edge on
   a cycle defeats the eventual suffix, as does an unbounded stutter with
   a non-terminal image.  Init refinement is still required. *)
let everywhere_eventually_refinement ?alpha ?fair ~(c : _ Explicit.t)
    ~(a : _ Explicit.t) () =
  let alpha =
    resolve_alpha ~who:"Refine.everywhere_eventually_refinement" ~c alpha
  in
  cached ~relation:"⊑_ee" ~alpha ~fair ~c ~a @@ fun () ->
  with_cost "refine.everywhere_eventually" @@ fun () ->
  let classified, stats = classify ~alpha ~c ~a in
  let succ_c = Explicit.csr c in
  let edge_on_cycle = edge_on_cycle ~fair succ_c in
  let col = collector () in
  initial_failures col ~alpha ~c ~a;
  Cr_obs.Obs.span "refine.cycle_check" (fun () ->
      let reach = Cr_checker.Reach.reachable_from_initial c in
      iter_classified classified (fun i j cls ->
          let is_exact = match cls with Some Exact -> true | _ -> false in
          if Cr_kernel.Bitset.get reach i && not is_exact then
            push col Init_edge i j
          else
            match cls with
            | Some Exact | Some Stutter -> ()
            | Some (Compression _) | None ->
                if edge_on_cycle i j then push col Non_exact_cycle i j));
  stutter_check ~alpha ~fair ~c ~a ~stats col;
  terminal_failures col ~alpha ~c ~a ~restrict:None;
  make_report ~relation:"⊑_ee" ~c ~a ~stats col
