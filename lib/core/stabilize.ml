open Cr_semantics
module Par = Cr_kernel.Par

(* Stabilization checker (exact for finite systems).

   "C is stabilizing to A" iff every computation of C has a suffix that is a
   suffix of some computation of A starting at an initial state of A.

   Let L = states of A reachable from I_A (the legitimate states).  A
   transition (i, j) of C is *bad* when its image leaves L or is not a
   transition of A; a terminal state of C is *bad* when its image is not a
   reachable terminal of A.  Let Good = states of C from which no bad
   transition source and no bad terminal is reachable.  Then C stabilizes
   to A iff (a) the subgraph of C outside Good is acyclic, and (b) no
   terminal of C lies outside Good.

   Soundness/completeness: once a computation enters Good it only takes
   A-transitions inside L forever (or halts at a reachable A-terminal), and
   any path inside L from a reachable state extends a prefix of A from an
   initial state, i.e. is a suffix of a computation of A.  Conversely a
   cycle outside Good yields a computation that never acquires a correct
   suffix, as does a bad terminal.

   A enters only through L: [legit], and [has_edge]/[is_terminal] on
   states of L.  So [a] may be any successor-closed fragment of the spec
   that contains I_A — e.g. a sparse compile of the legitimate orbit —
   with the alpha-table marking images outside the fragment by -1, which
   every test below reads as "outside L".

   All sweeps run over the systems' flat CSR graphs and packed bitsets;
   the bad-seed sweep is domain-chunked under the CR_JOBS contract of
   [Par], and verdicts are memoized in a content-addressed
   [Cr_kernel.Memo] keyed by [Check_cache.key]. *)

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
  good_mask : bool array;  (* per-state membership in the converged region *)
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
   must describe [c]'s transitions.

   [?stutter:`Allow] admits τ-steps in the converged region: a transition
   whose abstract image does not move is acceptable there (the suffix is
   compared modulo stuttering), except that a cycle consisting purely of
   stutters must sit at an [a]-terminal image — an infinite stutter
   normalizes to a finite suffix, which must be able to end a computation
   of [a].  Needed when a concrete system takes several micro-steps per
   abstract step (e.g. the bytecode machine of the intro example). *)
let c_runs = Cr_obs.Obs.counter "stabilize.runs"
let c_bad_seeds = Cr_obs.Obs.counter "stabilize.bad_seeds"

(* Verdict memo: keyed on both systems' exact structure, the
   abstraction, the fairness tables and the stutter mode (see
   [Check_cache.key]). *)
let memo : report Cr_kernel.Memo.t = Cr_kernel.Memo.create ~name:"check"

let same_report r1 r2 = { r1 with cost = None } = { r2 with cost = None }

let stabilizing_to ?alpha ?fair ?(stutter = `Forbid) ~(c : _ Explicit.t)
    ~(a : _ Explicit.t) () =
  let alpha =
    match alpha with
    | Some t -> t
    | None -> Abstraction.identity_table (Explicit.num_states c)
  in
  let stutter_ok =
    match stutter with `Allow -> true | `Forbid -> false
  in
  let check () =
    Cr_obs.Obs.span "stabilize.check" @@ fun () ->
    let cost_before =
      if Cr_obs.Obs.tracking () then
        Some (Cr_obs.Obs.domain_snapshot (), Cr_obs.Obs.gc_now ())
      else None
    in
    let legit = Cr_checker.Reach.reachable_from_initial a in
    let in_legit ai = ai >= 0 && Cr_kernel.Bitset.get legit ai in
    let n = Explicit.num_states c in
    let succ_c = Explicit.csr c in
    let rp = Cr_kernel.Csr.row_ptr succ_c
    and tg = Cr_kernel.Csr.targets succ_c in
    let bad_seed = Cr_kernel.Bitset.create n in
    Cr_obs.Obs.span "stabilize.bad_seeds" (fun () ->
        (* Row range [lo, hi): marks only its own sources.  Chunk
           boundaries are word-aligned (multiples of 64), so parallel
           chunks write disjoint words of the bitset (see [Bitset]). *)
        let sweep lo hi =
          for i = lo to hi - 1 do
            let klo = rp.(i) and khi = rp.(i + 1) in
            if khi > klo then begin
              let ai = alpha.(i) in
              let k = ref klo in
              let bad = ref false in
              while (not !bad) && !k < khi do
                let aj = alpha.(tg.(!k)) in
                let fine =
                  in_legit ai && in_legit aj
                  && (Explicit.has_edge a ai aj || (stutter_ok && ai = aj))
                in
                if not fine then bad := true;
                incr k
              done;
              if !bad then Cr_kernel.Bitset.set bad_seed i
            end
          done
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
          ignore
            (Par.map_array (fun (lo, hi) -> sweep lo hi) chunks : unit array)
        end);
    (if stutter_ok then begin
       (* pure-stutter cycles must sit at an [a]-terminal image; a state
          imaged outside L is already a bad seed (its in-cycle edge
          leaves L) *)
       let sscc =
         Cr_checker.Scc.compute
           (Cr_kernel.Csr.filter succ_c (fun i j -> alpha.(i) = alpha.(j)))
       in
       for i = 0 to n - 1 do
         if Cr_checker.Scc.on_cycle sscc i
            && not (in_legit alpha.(i) && Explicit.is_terminal a alpha.(i))
         then Cr_kernel.Bitset.set bad_seed i
       done
     end);
    let bad_terminal = ref None in
    for i = 0 to n - 1 do
      if Explicit.is_terminal c i then
        let ai = alpha.(i) in
        if not (in_legit ai && Explicit.is_terminal a ai) then begin
          Cr_kernel.Bitset.set bad_seed i;
          if !bad_terminal = None then bad_terminal := Some i
        end
    done;
    if Cr_obs.Obs.tracking () then begin
      Cr_obs.Obs.incr c_runs;
      Cr_obs.Obs.add c_bad_seeds (Cr_kernel.Bitset.count bad_seed)
    end;
    let reaches_bad =
      Cr_obs.Obs.span "stabilize.reach_bad" (fun () ->
          Cr_checker.Reach.backward_of_explicit c ~seeds:bad_seed)
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
    let cycle, depths =
      Cr_obs.Obs.span "stabilize.divergence_check" @@ fun () ->
      match fair with
      | None -> (
          (* The recovery-depth DFS doubles as the cycle test: it raises
             [Cyclic] iff the masked region has one, so the SCC-based
             witness search only runs on failure. *)
          match
            Cr_checker.Paths.longest_within ~succ:succ_c
              ~mask:reaches_bad
          with
          | depths -> (None, Some depths)
          | exception Cr_checker.Paths.Cyclic ->
              (find_cycle_within succ_c reaches_bad, None))
      | Some tables -> (
          match
            (Fair.analyze tables ~succ:succ_c ~mask:reaches_bad)
              .Fair.sccs
          with
          | [] -> (None, None)
          | scc :: _ -> (Some scc, None))
    in
    let holds = cycle = None && terminal_outside = None in
    let worst =
      if holds then
        (* Under weak fairness the non-converged region may still contain
           (unfair) cycles; recovery is then finite but unbounded. *)
        match depths with
        | Some depths -> Some (Array.fold_left max 0 depths)
        | None -> (
            match
              Cr_checker.Paths.longest_within ~succ:succ_c
                ~mask:reaches_bad
            with
            | depths -> Some (Array.fold_left max 0 depths)
            | exception Cr_checker.Paths.Cyclic -> None)
      else None
    in
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
      good_mask = Cr_kernel.Bitset.to_bool_array good;
      cost =
        Option.map
          (fun (before, gc_before) ->
            (* counter movement plus gc.* allocation delta, both
               domain-local (see [Refine.with_cost]) *)
            Cr_obs.Obs.merge_snapshots
              (Cr_obs.Obs.diff ~before ~after:(Cr_obs.Obs.domain_snapshot ()))
              (Cr_obs.Obs.gc_cost_entries
                 (Cr_obs.Obs.gc_delta ~before:gc_before
                    ~after:(Cr_obs.Obs.gc_now ()))))
          cost_before;
    }
  in
  let r, ran =
    Cr_kernel.Memo.find memo
      ~key:(fun () ->
        Check_cache.key
          ~relation:(if stutter_ok then "stab+stutter" else "stab")
          ~alpha ~fair ~c ~a)
      ~same:same_report check
  in
  (if Cr_obs.Journal.enabled () then begin
     let open Cr_obs.Journal in
     let fields =
       [
         ("concrete", S r.concrete);
         ("abstract", S r.abstract);
         ("holds", B r.holds);
         ("states", I r.states);
         ("legitimate", I r.legitimate);
         ("good", I r.good);
         ("cached", B (not ran));
       ]
     in
     let fields =
       match r.worst_case_recovery with
       | Some w -> fields @ [ ("worst_case_recovery", I w) ]
       | None -> fields
     in
     let fields =
       match r.cost with
       | Some snap -> fields @ [ ("cost", Snap snap) ]
       | None -> fields
     in
     emit "stabilize.verdict" fields
   end);
  r

(* Self-stabilization: A is stabilizing to A. *)
let self_stabilizing (a : _ Explicit.t) = stabilizing_to ~c:a ~a ()
