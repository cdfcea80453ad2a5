(* Shortest-path queries (a batched BFS oracle, one shortest path) over
   CSR graphs, and the forward settle pass (who reaches a set, and for
   how long) over a successor source.  The textbook references they are
   property-tested against live in the test suite. *)

module Csr = Cr_kernel.Csr
module Par = Cr_kernel.Par
module Bitset = Cr_kernel.Bitset
module Lane = Cr_kernel.Lane

let[@inline] lane b k = Int32.to_int (Lane.get32u b (4 * k))
let[@inline] set_lane b k v = Lane.set32u b (4 * k) (Int32.of_int v)

(* Telemetry (all no-ops unless CR_STATS/CR_TRACE is on).  BFS expansion
   counts are published once per BFS from the final queue tail — every
   expanded node was enqueued exactly once — so the hot loop itself
   carries no instrumentation. *)
let c_bfs_runs = Cr_obs.Obs.counter "paths.bfs.runs"
let c_bfs_expansions = Cr_obs.Obs.counter "paths.bfs.expansions"
let c_oracle_hits = Cr_obs.Obs.counter "paths.oracle.hits"
let c_oracle_misses = Cr_obs.Obs.counter "paths.oracle.misses"

(* BFS distances from [src] over the flat CSR lanes.  [q] is
   caller-provided scratch of capacity >= n (every node is enqueued at
   most once), so one queue serves a whole batch of sources. *)
let bfs_into ~(g : Csr.t) ~(q : int array) ~src =
  let rp = Csr.row_ptr g and tg = Csr.targets g in
  let dist = Array.make (Csr.num_states g) (-1) in
  let head = ref 0 and tail = ref 0 in
  dist.(src) <- 0;
  q.(0) <- src;
  tail := 1;
  while !head < !tail do
    let i = q.(!head) in
    incr head;
    let d = dist.(i) + 1 in
    for k = lane rp i to lane rp (i + 1) - 1 do
      let j = lane tg k in
      if dist.(j) = -1 then begin
        dist.(j) <- d;
        q.(!tail) <- j;
        incr tail
      end
    done
  done;
  Cr_obs.Obs.incr c_bfs_runs;
  Cr_obs.Obs.add c_bfs_expansions !tail;
  dist

(* The BFS distance rows of a batch of query sources over a fixed graph,
   all computed up front, so a checker run that asks many (src, dst)
   questions (one per path-query edge of [Refine.classify]) pays one BFS
   per distinct source.  [sources] holds the source of every upcoming
   query, duplicates expected.  Distinct sources are searched in [Par]
   chunks; the accounting records one miss per distinct source and one hit
   per remaining entry — what a memo queried in batch order would record
   — so the merged counters do not depend on the job count.  The oracle
   is never mutated after construction, so domains may share it. *)
type oracle = int array option array  (* src -> BFS distance row *)

let oracle ~succ ~(sources : int array) : oracle =
  let n = Csr.num_states succ in
  let rows = Array.make n None in
  let distinct = Bitset.create n in
  Array.iter (Bitset.set distinct) sources;
  let fresh = Array.of_list (Bitset.members distinct) in
  let nf = Array.length fresh in
  if nf > 0 then begin
    (* Chunked so each executor allocates one scratch queue for its whole
       share (a queue per source is n words of garbage per BFS); one
       chunk at CR_JOBS = 1.  Sources are distinct, so each row slot has
       a unique writer. *)
    let jobs = Par.current_jobs () in
    let nchunks = if jobs <= 1 then 1 else min nf (jobs * 8) in
    let chunks =
      Array.init nchunks (fun d -> (d * nf / nchunks, (d + 1) * nf / nchunks))
    in
    ignore
      (Par.map_array
         (fun (lo, hi) ->
           let q = Array.make n 0 in
           for k = lo to hi - 1 do
             let src = fresh.(k) in
             rows.(src) <- Some (bfs_into ~g:succ ~q ~src)
           done)
         chunks
        : unit array)
  end;
  Cr_obs.Obs.add c_oracle_misses nf;
  Cr_obs.Obs.add c_oracle_hits (Array.length sources - nf);
  rows

let distance (o : oracle) ~src ~dst =
  match o.(src) with
  | Some d -> d.(dst)
  | None -> invalid_arg "Paths.distance: source not in the oracle's batch"

(* Reconstruct one shortest path src -> dst (list of states, inclusive);
   [None] when dst is unreachable. *)
let shortest_path ~succ ~src ~dst =
  if src = dst then Some [ src ]
  else begin
    let n = Csr.num_states succ in
    let rp = Csr.row_ptr succ and tg = Csr.targets succ in
    let parent = Array.make n (-1) in
    let dist = Array.make n (-1) in
    let q = Array.make n 0 in
    let head = ref 0 and tail = ref 0 in
    dist.(src) <- 0;
    q.(0) <- src;
    tail := 1;
    let found = ref false in
    while (not !found) && !head < !tail do
      let i = q.(!head) in
      incr head;
      for k = lane rp i to lane rp (i + 1) - 1 do
        let j = lane tg k in
        if dist.(j) = -1 then begin
          dist.(j) <- dist.(i) + 1;
          parent.(j) <- i;
          if j = dst then found := true;
          q.(!tail) <- j;
          incr tail
        end
      done
    done;
    if not !found then None
    else begin
      let rec build acc i = if i = src then src :: acc else build (i :: acc) parent.(i) in
      Some (build [] dst)
    end
  end

(* Which states reach [bad], and how long a run can stay among them —
   the non-converged region of a stabilization check and its recovery
   depths, in one forward pass (no transpose) that reads each state's
   row once, from a successor source: a built CSR, or a compile's
   emitter re-run on the state, so the graph need not be stored.

   One iterative Tarjan pass over the whole graph, roots in index order.
   An SCC closes only after every SCC it reaches, so when it closes
   each member's successors outside it are settled: the SCC reaches
   [bad] iff a member is in [bad] or steps to a settled state that
   does (members mark themselves as their rows are scanned, and a
   closed child marks its parent on return).  A reaching SCC with a
   cycle (two or more members, or a self-loop) makes the region
   cyclic; a trivial one gets its depth by rescanning its row: the most
   steps a run can take while staying in the region, the step that
   leaves it counted.  A state whose row is empty reaches [bad] only
   when it is in [bad]; the least such is [terminal].

   One lane per state is resident, after Pearce's space-efficient SCC
   algorithm ("A space-efficient algorithm for finding strongly
   connected components", IPL 116(1), 2016).  Lane [i] holds
   [unvisited], or while [i] is on the Tarjan stack its low-link: its
   DFS number, lowered in place as the scan finds lower ones, or once
   its SCC has closed a negative settled mark — [settled_out], or
   [settled_in - d] for a member that reaches [bad] with depth [d].  A
   state's DFS number is its position on the Tarjan stack (a closed
   SCC frees its positions for the next states), so the root test at a
   state's finish is whether the stack holds the state itself at the
   position its low-link names, and that position is where its SCC
   starts.  One final pass rewrites the lane to plain depths, which are
   returned.  The Tarjan stack and the DFS frames (vertex, row cursor
   and row start) are four more lanes, allocated uninitialised; each
   frame's row is read once, when the frame starts, onto an edge stack
   that holds the rows of the DFS path and grows by doubling.  So only
   as many pages as the search goes deep become resident. *)
type settled = {
  reaches : Bitset.t;
  depth : Bytes.t option;
  terminal : int option;
}

let unvisited = Lane.max_lanes (* past every DFS number *)
let settled_out = -1
let settled_in = -2 (* a member of depth [d] holds [settled_in - d] *)

let settle ~(succ : Csr.source) ~bad =
  Cr_obs.Obs.span "paths.settle" @@ fun () ->
  let n = succ.Csr.states in
  if Bitset.length bad <> n then invalid_arg "Paths.settle: bad mask length";
  let read = succ.Csr.reader () in
  let reaches = Bitset.copy bad in
  let index = Lane.make n unvisited in
  let stack = Lane.create n and sp = ref 0 in
  let dfs_v = Lane.create n and dfs_k = Lane.create n
  and dfs_lo = Lane.create n and dp = ref 0 in
  let edges = ref (Lane.create 1024) and cap = ref 1024 and ep = ref 0 in
  let push j =
    if !ep = !cap then begin
      let bigger = Lane.create (2 * !cap) in
      Bytes.blit !edges 0 bigger 0 (4 * !ep);
      edges := bigger;
      cap := 2 * !cap
    end;
    set_lane !edges !ep j;
    incr ep
  in
  let cyclic = ref false and terminal = ref n in
  let start i =
    set_lane index i !sp;
    set_lane stack !sp i;
    incr sp;
    let lo = !ep in
    read i push;
    if !ep = lo && i < !terminal && Bitset.get bad i then terminal := i;
    set_lane dfs_v !dp i;
    set_lane dfs_k !dp lo;
    set_lane dfs_lo !dp lo;
    incr dp
  in
  (* Pop the SCC on the Tarjan stack from position [base] up (its root
     [i] at [base], whose row is the top of the edge stack from [lo])
     and settle it: every member reaches [bad] or none does. *)
  let close i base lo =
    let hit = ref false in
    for p = base to !sp - 1 do
      if Bitset.get reaches (lane stack p) then hit := true
    done;
    let mark = if !hit then settled_in else settled_out in
    for p = base to !sp - 1 do
      let m = lane stack p in
      set_lane index m mark;
      if !hit then Bitset.set reaches m
    done;
    if !hit then
      if !sp - base > 1 then cyclic := true
      else if not !cyclic then begin
        let d = ref 0 in
        for k = lo to !ep - 1 do
          let j = lane !edges k in
          if j = i then cyclic := true;
          let x = lane index j in
          (* 1 + the depth of a settled member, 1 for a step out *)
          let v = if x <= settled_in then 1 + settled_in - x else 1 in
          if v > !d then d := v
        done;
        set_lane index i (settled_in - !d)
      end;
    sp := base
  in
  for root = 0 to n - 1 do
    if lane index root = unvisited then begin
      start root;
      while !dp > 0 do
        (* scan the top vertex's row until an unvisited successor *)
        let top = !dp - 1 in
        let i = lane dfs_v top and es = !edges in
        let k = ref (lane dfs_k top) and child = ref unvisited in
        let li = ref (lane index i) and hit = ref false in
        while !child = unvisited && !k < !ep do
          let j = lane es !k in
          incr k;
          let x = lane index j in
          if x = unvisited then child := j
          else if x >= 0 then begin
            if x < !li then li := x
          end
          else if x <= settled_in then hit := true
        done;
        set_lane index i !li;
        if !hit then Bitset.set reaches i;
        if !child <> unvisited then begin
          set_lane dfs_k top !k;
          start !child
        end
        else begin
          decr dp;
          let lo = lane dfs_lo top in
          if lane stack !li = i then close i !li lo;
          ep := lo;
          if !dp > 0 then begin
            let p = lane dfs_v (!dp - 1) in
            let x = lane index i in
            if x >= 0 then begin
              if x < lane index p then set_lane index p x
            end
            else if x <= settled_in then Bitset.set reaches p
          end
        end
      done
    end
  done;
  let terminal = if !terminal < n then Some !terminal else None in
  if !cyclic then { reaches; depth = None; terminal }
  else begin
    for i = 0 to n - 1 do
      let x = lane index i in
      set_lane index i (if x <= settled_in then settled_in - x else 0)
    done;
    { reaches; depth = Some index; terminal }
  end
