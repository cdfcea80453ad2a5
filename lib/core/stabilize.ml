open Cr_semantics
module Par = Cr_kernel.Par

let[@inline] lane b k = Int32.to_int (Cr_kernel.Lane.get32u b (4 * k))

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
   a cycle lies among them, and gives each one's longest run among
   them — the recovery depth, whose maximum is the worst case.  No
   transpose of C is built.  All sweeps run over the systems' flat CSR
   graphs and packed bitsets; the bad-seed sweep is domain-chunked
   under the CR_JOBS contract of [Par].  Every call runs the check: no
   verdict is memoized. *)

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
    let succ_c = Explicit.csr c in
    let rp = Cr_kernel.Csr.row_ptr succ_c
    and tg = Cr_kernel.Csr.targets succ_c in
    let bad_seed = Cr_kernel.Bitset.create n in
    let stuttered =
      Cr_obs.Obs.span "stabilize.bad_seeds" @@ fun () ->
      (* Row range [lo, hi): marks only its own sources, and tells
         whether it accepted a τ-step.  Chunk boundaries are
         word-aligned (multiples of 64), so parallel chunks write
         disjoint words of the bitset (see [Bitset]). *)
      let sweep lo hi =
        let stuttered = ref false in
        for i = lo to hi - 1 do
          let klo = lane rp i and khi = lane rp (i + 1) in
          if khi > klo then begin
            let ai = lane alpha i in
            let k = ref klo in
            let bad = ref (not (in_legit ai)) in
            while (not !bad) && !k < khi do
              let aj = lane alpha (lane tg !k) in
              if aj = ai then stuttered := true
              else if not (in_legit aj && Explicit.has_edge a ai aj) then
                bad := true;
              incr k
            done;
            if !bad then Cr_kernel.Bitset.set bad_seed i
          end
        done;
        !stuttered
      in
      let jobs = min (Par.current_jobs ()) (max n 1) in
      if jobs <= 1 then sweep 0 n
      else begin
        (* more chunks than domains (claimed from the pool's atomic
           item counter), each spanning whole 64-bit words *)
        let nwords = (n + 63) / 64 in
        let num_chunks = max 1 (min nwords (jobs * 8)) in
        let boundary d = min n (d * nwords / num_chunks * 64) in
        let chunks =
          Array.init num_chunks (fun d -> (boundary d, boundary (d + 1)))
        in
        Array.exists Fun.id (Par.map_array (fun (lo, hi) -> sweep lo hi) chunks)
      end
    in
    (* States on τ-cycles whose image is not an [a]-terminal in L.  Only
       needed when the sweep accepted a τ-step: a state on a τ-cycle
       whose cycle edge it did not accept is a bad seed already. *)
    (if stuttered then
       let sscc =
         Cr_checker.Scc.compute
           (Cr_kernel.Csr.filter succ_c (fun i j ->
                lane alpha i = lane alpha j))
       in
       for i = 0 to n - 1 do
         if
           Cr_checker.Scc.on_cycle sscc i
           && not
                  (in_legit (lane alpha i)
                  && Explicit.is_terminal a (lane alpha i))
         then Cr_kernel.Bitset.set bad_seed i
       done);
    let bad_terminal = ref None in
    for i = 0 to n - 1 do
      if Explicit.is_terminal c i then
        let ai = lane alpha i in
        if not (in_legit ai && Explicit.is_terminal a ai) then begin
          Cr_kernel.Bitset.set bad_seed i;
          if !bad_terminal = None then bad_terminal := Some i
        end
    done;
    if Cr_obs.Obs.tracking () then begin
      Cr_obs.Obs.incr c_runs;
      Cr_obs.Obs.add c_bad_seeds (Cr_kernel.Bitset.count bad_seed)
    end;
    let { Cr_checker.Paths.reaches = reaches_bad; depth } =
      Cr_checker.Paths.settle ~succ:succ_c ~bad:bad_seed
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
    (* A C-terminal outside Good is itself a bad seed; find one if any. *)
    let terminal_outside =
      match !bad_terminal with
      | Some i -> Some i
      | None ->
          let w = ref None in
          for i = n - 1 downto 0 do
            if Cr_kernel.Bitset.get reaches_bad i && Explicit.is_terminal c i
            then w := Some i
          done;
          !w
    in
    (* The settle pass is the cycle test, so the SCC-based witness
       search only runs on failure. *)
    let cycle =
      Cr_obs.Obs.span "stabilize.divergence_check" @@ fun () ->
      match fair with
      | None ->
          if deepest = None then find_cycle_within succ_c reaches_bad
          else None
      | Some tables -> (
          match
            (Fair.analyze tables ~succ:succ_c ~mask:reaches_bad).Fair.sccs
          with
          | [] -> None
          | scc :: _ -> Some scc)
    in
    let holds = cycle = None && terminal_outside = None in
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
      bad_terminal = terminal_outside;
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
