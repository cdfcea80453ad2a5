open Cr_semantics
module Par = Cr_kernel.Par

let[@inline] lane b k = Int32.to_int (Cr_kernel.Lane.get32u b (4 * k))
let[@inline] set_lane b k v = Cr_kernel.Lane.set32u b (4 * k) (Int32.of_int v)

(* Stabilization checker (exact for finite systems).

   "C is stabilizing to A" iff every computation of C has a suffix that is a
   suffix of some computation of A starting at an initial state of A.

   Let L = states of A reachable from I_A (the legitimate states).  A
   transition (i, j) of C is *bad* when its image leaves L, or moves and
   is not a transition of A (one that does not move is a τ-step); a
   state of C on a cycle of τ-steps is *bad* when its image is not a
   terminal of A, and a terminal state of C when its image is not a
   reachable terminal of A.  Let Good = states of C from which no bad
   transition source and no bad state is reachable: the greatest
   successor-closed set of non-seeds.  Then C stabilizes to A iff (a)
   the subgraph of C outside Good is acyclic, and (b) no terminal of C
   lies outside Good.  The quantification is over every computation
   of C, from any state, so I_C is never read.

   Soundness/completeness: once a computation enters Good it only takes
   A-transitions and τ-steps inside L forever, stuttering forever only
   at an A-terminal image (DESIGN.md section 2: the image is compared
   modulo τ-steps), and any such path from a reachable state extends a
   prefix of A from an initial state, i.e. is a suffix of a computation
   of A.  Conversely a cycle outside Good yields a computation that
   never acquires a correct suffix, as does a bad terminal.

   A enters only through L: [legit], and [has_edge]/[is_terminal] on
   states of L.  So [a] may be any successor-closed fragment of the spec
   that contains I_A — e.g. a sparse compile of the legitimate orbit —
   with the alpha-table marking images outside the fragment by -1, which
   every test below reads as "outside L".

   Good is decided going forward, in one pass: [Paths.settle] marks the
   states that reach a bad seed (the complement of Good), tells whether
   a cycle lies among them, gives each one's longest run among them —
   the recovery depth, whose maximum is the worst case — and names the
   least terminal among them.  No transpose of C is built, and neither
   the bad-seed sweep nor the settle pass needs C as a stored graph:
   each reads a state's row once through [Explicit.source], which on a
   dense compile runs the program's emitter on the state.  So a check
   that holds never builds C's CSR; the failure path (the witness
   cycle, [Fair.analyze]) builds it and reuses everything computed so
   far.  The bad-seed sweep is domain-chunked under the CR_JOBS
   contract of [Par].  Every call runs the check: no verdict is
   memoized. *)

type report = {
  holds : bool;
  concrete : string;
  abstract : string;
  legitimate : int;  (* |L| *)
  good : int;  (* |Good| *)
  states : int;
  worst_case_recovery : int option;
      (* max transitions before entering Good, when stabilizing *)
  bad_cycle : int list option;  (* a witness cycle outside Good *)
  bad_terminal : int option;  (* a witness terminal outside Good *)
  good_mask : Cr_kernel.Bitset.t;  (* the converged region *)
  cost : Cr_obs.Obs.snapshot option;
      (* counter movement of this check on the calling domain; [None]
         unless telemetry collection is on *)
}

let pp_report fmt r =
  if r.holds then
    Fmt.pf fmt
      "%s stabilizes to %s (|Sigma|=%d, |L|=%d, |Good|=%d, worst-case \
       recovery %s)"
      r.concrete r.abstract r.states r.legitimate r.good
      (match r.worst_case_recovery with
      | Some w -> Printf.sprintf "%d steps" w
      | None -> "finite but unbounded")
  else
    Fmt.pf fmt "%s does NOT stabilize to %s (%s)" r.concrete r.abstract
      (match (r.bad_cycle, r.bad_terminal) with
      | Some _, _ -> "divergent cycle outside Good"
      | _, Some _ -> "deadlock outside Good"
      | None, None -> "no witness?")

(* Find one cycle inside the masked region, as a witness. *)
let find_cycle_within (succ : Cr_kernel.Csr.t) (mask : Cr_kernel.Bitset.t) =
  let n = Cr_kernel.Csr.num_states succ in
  let restricted = Cr_kernel.Csr.restrict succ mask in
  let scc = Cr_checker.Scc.compute restricted in
  let witness = ref None in
  for i = n - 1 downto 0 do
    if Cr_kernel.Bitset.get mask i && Cr_checker.Scc.on_cycle scc i then
      witness := Some i
  done;
  match !witness with
  | None -> None
  | Some i ->
      (* walk within the SCC back to i *)
      let comp = scc.Cr_checker.Scc.component.(i) in
      let in_comp = Cr_kernel.Bitset.create n in
      for j = 0 to n - 1 do
        if
          Cr_kernel.Bitset.get mask j
          && scc.Cr_checker.Scc.component.(j) = comp
        then Cr_kernel.Bitset.set in_comp j
      done;
      let comp_succ = Cr_kernel.Csr.restrict restricted in_comp in
      let next =
        if Cr_kernel.Csr.degree comp_succ i > 0 then
          Some (Cr_kernel.Csr.kth comp_succ i 0)
        else None
      in
      (match next with
      | None -> Some [ i ]
      | Some j -> (
          match
            Cr_checker.Paths.shortest_path ~succ:comp_succ ~src:j ~dst:i
          with
          | Some p -> Some (i :: p)
          | None -> Some [ i ]))

(* The τ-steps one sweep chunk meets, as (source, target) lane pairs in
   row order: sources ascending, each row's targets ascending.  The
   store grows by doubling. *)
type tau_steps = { mutable pairs : Bytes.t; mutable count : int }

let add_tau t i j =
  if 2 * t.count = Cr_kernel.Lane.length t.pairs then begin
    let bigger = Cr_kernel.Lane.create (max 64 (4 * t.count)) in
    Bytes.blit t.pairs 0 bigger 0 (8 * t.count);
    t.pairs <- bigger
  end;
  set_lane t.pairs (2 * t.count) i;
  set_lane t.pairs ((2 * t.count) + 1) j;
  t.count <- t.count + 1

(* The graph of the chunks' τ-steps among their sources, numbered in
   ascending state order: node [k] is state [nodes.(k)].  A state with
   no τ-step lies on no τ-cycle, so the steps into one are dropped, and
   the SCC pass costs the τ-steps, not Σ.  The chunks hold their steps
   in ascending source order, so the sources come out distinct and in
   order with no sort, and the rows sorted. *)
let tau_graph (chunks : tau_steps array) =
  let m = Array.fold_left (fun m t -> m + t.count) 0 chunks in
  let nodes = Array.make m 0 and v = ref 0 in
  Array.iter
    (fun t ->
      for p = 0 to t.count - 1 do
        let i = lane t.pairs (2 * p) in
        if !v = 0 || nodes.(!v - 1) <> i then begin
          nodes.(!v) <- i;
          incr v
        end
      done)
    chunks;
  (* the node of state [j], or -1 when [j] takes no τ-step *)
  let node j =
    let lo = ref 0 and hi = ref !v in
    while !hi - !lo > 1 do
      let mid = (!lo + !hi) / 2 in
      if nodes.(mid) <= j then lo := mid else hi := mid
    done;
    if nodes.(!lo) = j then !lo else -1
  in
  let row_ptr = Cr_kernel.Lane.create (!v + 1)
  and targets = Cr_kernel.Lane.create m in
  let k = ref 0 and src = ref (-1) in
  Array.iter
    (fun t ->
      for p = 0 to t.count - 1 do
        if !src < 0 || nodes.(!src) <> lane t.pairs (2 * p) then begin
          incr src;
          set_lane row_ptr !src !k
        end;
        let j = node (lane t.pairs ((2 * p) + 1)) in
        if j >= 0 then begin
          set_lane targets !k j;
          incr k
        end
      done)
    chunks;
  set_lane row_ptr !v !k;
  (Array.sub nodes 0 !v, Cr_kernel.Csr.unsafe_of_lanes ~states:!v ~row_ptr ~targets)

(* [?fair] switches divergence detection from "any cycle outside Good" to
   "any weakly-fair cycle outside Good" (see {!Fair}); the action tables
   must describe [c]'s transitions. *)
let c_runs = Cr_obs.Obs.counter "stabilize.runs"
let c_bad_seeds = Cr_obs.Obs.counter "stabilize.bad_seeds"

let stabilizing_to ?alpha ?fair ~(c : _ Explicit.t) ~(a : _ Explicit.t) () =
  let alpha =
    match alpha with
    | Some t -> t
    | None -> Abstraction.identity_table (Explicit.num_states c)
  in
  Abstraction.check_table ~who:"Stabilize.stabilizing_to" ~partial:true alpha
    ~c ~a;
  let run () =
    let legit = Cr_checker.Reach.reachable_from_initial a in
    let in_legit ai = ai >= 0 && Cr_kernel.Bitset.get legit ai in
    let n = Explicit.num_states c in
    (* [Fair.analyze] reads C's CSR, so a fair check builds it first
       and reads every row from it rather than expanding them too. *)
    if Option.is_some fair then ignore (Explicit.csr c : Cr_kernel.Csr.t);
    let bad_seed = Cr_kernel.Bitset.create n in
    let taus =
      Cr_obs.Obs.span "stabilize.bad_seeds" @@ fun () ->
      let succ_c = Explicit.source c in
      (* Row range [lo, hi): marks only its own sources, and returns the
         τ-steps it met.  A state whose image is outside L is a bad seed
         whatever its row, so only the others are expanded: one is a
         bad seed when it has a bad transition, or none and its image
         is not an A-terminal.  Chunk boundaries are word-aligned
         (multiples of 64), so parallel chunks write disjoint words of
         the bitset (see [Bitset]). *)
      let sweep lo hi =
        let read = succ_c.Cr_kernel.Csr.reader () in
        let taus = { pairs = Cr_kernel.Lane.create 0; count = 0 } in
        let i = ref 0 and ai = ref 0 in
        let bad = ref false and terminal = ref true in
        let edge j =
          terminal := false;
          let aj = lane alpha j in
          if aj = !ai then add_tau taus !i j
          else if
            (not !bad) && not (in_legit aj && Explicit.has_edge a !ai aj)
          then bad := true
        in
        for k = lo to hi - 1 do
          i := k;
          ai := lane alpha k;
          if not (in_legit !ai) then Cr_kernel.Bitset.set bad_seed k
          else begin
            bad := false;
            terminal := true;
            read k edge;
            if !bad || (!terminal && not (Explicit.is_terminal a !ai)) then
              Cr_kernel.Bitset.set bad_seed k
          end
        done;
        taus
      in
      let jobs = min (Par.current_jobs ()) (max n 1) in
      if jobs <= 1 then [| sweep 0 n |]
      else begin
        (* more chunks than domains (claimed from the pool's atomic
           item counter), each spanning whole 64-bit words *)
        let nwords = (n + 63) / 64 in
        let num_chunks = max 1 (min nwords (jobs * 8)) in
        let boundary d = min n (d * nwords / num_chunks * 64) in
        let chunks =
          Array.init num_chunks (fun d -> (boundary d, boundary (d + 1)))
        in
        Par.map_array (fun (lo, hi) -> sweep lo hi) chunks
      end
    in
    (* States on τ-cycles whose image is not an [a]-terminal.  A τ-step
       keeps its image, so a τ-cycle lies either among states whose
       image is outside L, which are bad seeds already, or among the
       states the sweep expanded, whose τ-steps it collected: their
       SCCs are the cycles to test, and C's CSR is not read. *)
    (if Array.exists (fun t -> t.count > 0) taus then
       let nodes, g = tau_graph taus in
       let sscc = Cr_checker.Scc.compute g in
       Array.iteri
         (fun k i ->
           if
             Cr_checker.Scc.on_cycle sscc k
             && not (Explicit.is_terminal a (lane alpha i))
           then Cr_kernel.Bitset.set bad_seed i)
         nodes);
    if Cr_obs.Obs.tracking () then begin
      Cr_obs.Obs.incr c_runs;
      Cr_obs.Obs.add c_bad_seeds (Cr_kernel.Bitset.count bad_seed)
    end;
    (* A terminal of C reaches a bad seed only by being one, so the
       least terminal outside Good is the settle pass's [terminal]. *)
    let { Cr_checker.Paths.reaches = reaches_bad; depth; terminal } =
      Cr_checker.Paths.settle ~succ:(Explicit.source c) ~bad:bad_seed
    in
    (* the longest recovery, or [None] when a cycle lies outside Good *)
    let deepest =
      Option.map
        (fun d ->
          let m = ref 0 in
          for i = 0 to n - 1 do
            if lane d i > !m then m := lane d i
          done;
          !m)
        depth
    in
    let good = Cr_kernel.Bitset.complement reaches_bad in
    (* The settle pass is the cycle test, so the SCC-based witness
       search only runs on failure, and reads C's CSR. *)
    let cycle =
      Cr_obs.Obs.span "stabilize.divergence_check" @@ fun () ->
      match fair with
      | None ->
          if deepest = None then find_cycle_within (Explicit.csr c) reaches_bad
          else None
      | Some tables -> (
          match
            (Fair.analyze tables ~succ:(Explicit.csr c) ~mask:reaches_bad)
              .Fair.sccs
          with
          | [] -> None
          | scc :: _ -> Some scc)
    in
    let holds = cycle = None && terminal = None in
    (* Under weak fairness the non-converged region may still contain
       (unfair) cycles; recovery is then finite but unbounded. *)
    let worst = if holds then deepest else None in
    {
      holds;
      concrete = Explicit.name c;
      abstract = Explicit.name a;
      legitimate = Cr_kernel.Bitset.count legit;
      good = Cr_kernel.Bitset.count good;
      states = n;
      worst_case_recovery = worst;
      bad_cycle = cycle;
      bad_terminal = terminal;
      good_mask = good;
      cost = None;
    }
  in
  let r =
    Cr_obs.Obs.span "stabilize.check" @@ fun () ->
    let r, cost = Cr_obs.Obs.domain_cost run in
    { r with cost }
  in
  (if Cr_obs.Obs.tracking () then
     let open Cr_obs.Obs in
     event "stabilize.verdict"
       ([
          ("concrete", S r.concrete);
          ("abstract", S r.abstract);
          ("holds", B r.holds);
          ("states", I r.states);
          ("legitimate", I r.legitimate);
          ("good", I r.good);
        ]
       @ (match r.worst_case_recovery with
         | Some w -> [ ("worst_case_recovery", I w) ]
         | None -> [])
       @ match r.cost with Some snap -> [ ("cost", Snap snap) ] | None -> []));
  r

(* Self-stabilization: A is stabilizing to A. *)
let self_stabilizing (a : _ Explicit.t) = stabilizing_to ~c:a ~a ()
