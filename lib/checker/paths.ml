(* Shortest-path queries (a batched BFS oracle, one shortest path) and
   DAG longest paths, over CSR graphs.  The textbook references they
   are property-tested against live in the test suite. *)

module Csr = Cr_kernel.Csr
module Par = Cr_kernel.Par
module Bitset = Cr_kernel.Bitset

(* Telemetry (all no-ops unless CR_STATS/CR_TRACE is on).  BFS expansion
   counts are published once per BFS from the final queue tail — every
   expanded node was enqueued exactly once — so the hot loop itself
   carries no instrumentation. *)
let c_bfs_runs = Cr_obs.Obs.counter "paths.bfs.runs"
let c_bfs_expansions = Cr_obs.Obs.counter "paths.bfs.expansions"
let c_oracle_hits = Cr_obs.Obs.counter "paths.oracle.hits"
let c_oracle_misses = Cr_obs.Obs.counter "paths.oracle.misses"

(* BFS distances from [src] over the flat CSR arrays.  [q] is
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
    for k = rp.(i) to rp.(i + 1) - 1 do
      let j = tg.(k) in
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
      for k = rp.(i) to rp.(i + 1) - 1 do
        let j = tg.(k) in
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

(* Longest path (number of edges) from each masked state while staying in
   the masked region, where leaving the region (or stopping) costs nothing.
   Requires the masked subgraph to be acyclic; raises otherwise.  Used for
   worst-case convergence times: the masked region is the non-converged
   part of the state space. *)
exception Cyclic

(* Iterative DFS with an explicit (node, next-child) stack — flat int
   arrays, safe for masked regions whose longest path exceeds the OCaml
   call stack and allocation-free per visit. *)
let longest_within ~succ ~mask =
  Cr_obs.Obs.span "paths.longest_within" @@ fun () ->
  let n = Csr.num_states succ in
  let rp = Csr.row_ptr succ and tg = Csr.targets succ in
  let memo = Array.make n (-1) in
  let visiting = Array.make n false in
  let call_v = Array.make n 0 in
  let call_c = Array.make n 0 in
  let cp = ref 0 in
  let compute root =
    visiting.(root) <- true;
    call_v.(0) <- root;
    call_c.(0) <- 0;
    cp := 1;
    while !cp > 0 do
      let i = call_v.(!cp - 1) in
      let c = call_c.(!cp - 1) in
      if c < rp.(i + 1) - rp.(i) then begin
        let j = tg.(rp.(i) + c) in
        call_c.(!cp - 1) <- c + 1;
        if Bitset.get mask j then begin
          if visiting.(j) then raise Cyclic;
          if memo.(j) < 0 then begin
            visiting.(j) <- true;
            call_v.(!cp) <- j;
            call_c.(!cp) <- 0;
            incr cp
          end
        end
      end
      else begin
        decr cp;
        visiting.(i) <- false;
        (* leaving the masked region (or stopping there) costs one step
           for the edge itself, nothing beyond *)
        let best = ref 0 in
        for k = rp.(i) to rp.(i + 1) - 1 do
          let j = tg.(k) in
          let v = 1 + if Bitset.get mask j then memo.(j) else 0 in
          if v > !best then best := v
        done;
        memo.(i) <- !best
      end
    done
  in
  Array.init n (fun i ->
      if not (Bitset.get mask i) then 0
      else begin
        if memo.(i) < 0 then compute i;
        memo.(i)
      end)
