(* Extension experiments beyond the paper's text (DESIGN.md E16-E18):

   - E16: the derived systems under a fully SYNCHRONOUS daemon (all
     enabled processes fire at once).  Dijkstra's systems were designed
     for a central daemon; synchrony is a different execution-model
     refinement and some systems lose stabilization to it.
   - E17: read/write atomicity refinement of Dijkstra's 3-state ring
     (see {!Cr_tokenring.Rw_atomicity}).
   - E18: exact expected recovery time (uniform random daemon) via the
     hitting-time solver, cross-checking the Monte-Carlo means. *)

open Cr_guarded
open Cr_tokenring

(* ---- E16: synchronous daemon ---- *)

type sync_verdict = {
  name : string;
  n : int;
  stabilizes : bool;
  witness_cycle : Layout.state list option;
      (* a synchronous execution that oscillates forever *)
}

let synchronous_stabilization ~name ~(mk : int -> Program.t)
    ~(mk_spec : int -> Program.t)
    ~(mk_alpha : int -> (Layout.state, Layout.state) Cr_semantics.Abstraction.t)
    n =
  let e = Program.to_explicit_synchronous (mk n) in
  let r = Registry.stabilizing ~alpha:(mk_alpha n) e (mk_spec n) () in
  {
    name;
    n;
    stabilizes = r.Cr_core.Stabilize.holds;
    witness_cycle =
      Option.map
        (List.map (Cr_semantics.Explicit.state e))
        r.Cr_core.Stabilize.bad_cycle;
  }

let sync_dijkstra3 n =
  synchronous_stabilization ~name:"Dijkstra-3state" ~mk:Btr3.dijkstra3
    ~mk_spec:Btr.program ~mk_alpha:Btr3.alpha n

let sync_dijkstra4 n =
  synchronous_stabilization ~name:"Dijkstra-4state" ~mk:Btr4.dijkstra4
    ~mk_spec:Btr.program ~mk_alpha:Btr4.alpha n

let sync_kstate n =
  let k = n + 1 in
  synchronous_stabilization ~name:"K-state (K=N+1)"
    ~mk:(fun n -> Kstate.program ~n ~k)
    ~mk_spec:Utr.program
    ~mk_alpha:(fun n -> Kstate.alpha ~n ~k)
    n

(* ---- E17: read/write atomicity ---- *)

type rw_verdict = {
  n : int;
  states : int;
  stabilizes_unfair : bool;
  stabilizes_fair : bool;
  init_refines_dijkstra3 : bool;
      (* from the coherent orbit, the rw system tracks Dijkstra-3 modulo
         read stutters *)
  fault_free_coherent_tokens : bool;
      (* the orbit keeps a single token on the counter projection *)
}

let rw_experiment n =
  let p = Rw_atomicity.program n in
  let e = Program.to_explicit p in
  (* the refinement half below reads the graph, so its reachable part
     is taken first: the stabilization checks then read the built
     graph's rows instead of re-running the program *)
  let reach = Cr_checker.Reach.reachable_from_initial e in
  let stab = Registry.stabilizing ~alpha:(Rw_atomicity.alpha n) e (Btr.program n) in
  let unfair = stab () in
  let fairr = stab ~fair:(Cr_sim.Glue.fair_tables p e) () in
  (* init refinement against Dijkstra-3 through the cache-forgetting
     abstraction: reachable transitions are either counter moves of
     Dijkstra-3 or pure read stutters *)
  let d3 = Program.to_explicit (Btr3.dijkstra3 n) in
  let ac = Cr_semantics.Abstraction.tabulate (Rw_atomicity.alpha_counters n) e d3 in
  let init_ok = ref true in
  Cr_semantics.Explicit.iter_edges e (fun i j ->
      if Cr_kernel.Bitset.get reach i then begin
        let ai = Cr_kernel.Lane.get ac i and aj = Cr_kernel.Lane.get ac j in
        if not (ai = aj || Cr_semantics.Explicit.has_edge d3 ai aj) then
          init_ok := false
      end);
  let tokens_ok = ref true in
  List.iter
    (fun i ->
      let s = Cr_semantics.Explicit.state e i in
      if Btr.token_count n (Rw_atomicity.to_tokens n s) <> 1 then
        tokens_ok := false)
    (Cr_kernel.Bitset.members reach);
  {
    n;
    states = Cr_semantics.Explicit.num_states e;
    stabilizes_unfair = unfair.Cr_core.Stabilize.holds;
    stabilizes_fair = fairr.Cr_core.Stabilize.holds;
    init_refines_dijkstra3 = !init_ok;
    fault_free_coherent_tokens = !tokens_ok;
  }

(* ---- E18: exact expected recovery (hitting times) ---- *)

type hitting_row = {
  system : string;
  n : int;
  worst_exact : int;  (* longest path, adversarial *)
  expected_worst : float;  (* max over states of E[steps], random daemon *)
  expected_mean : float;  (* mean over states *)
}

let hitting ~name ~(mk : int -> Program.t)
    ~(mk_spec : int -> Program.t)
    ~(mk_alpha : int -> (Layout.state, Layout.state) Cr_semantics.Abstraction.t)
    n =
  let e = Program.to_explicit (mk n) in
  (* the hitting times read the graph, so it is built before the check,
     which then reads its rows instead of re-running the program *)
  let succ = Cr_semantics.Explicit.csr e in
  let r = Registry.stabilizing ~alpha:(mk_alpha n) e (mk_spec n) () in
  let pred = Cr_semantics.Explicit.pred_csr e in
  let ex =
    Cr_checker.Hitting.expected ~succ ~pred
      ~target:r.Cr_core.Stabilize.good_mask ()
  in
  {
    system = name;
    n;
    worst_exact = Option.value ~default:0 r.Cr_core.Stabilize.worst_case_recovery;
    expected_worst = Cr_checker.Hitting.max_finite ex;
    expected_mean = Cr_checker.Hitting.mean_finite ex;
  }

let hitting_dijkstra3 n =
  hitting ~name:"Dijkstra-3state" ~mk:Btr3.dijkstra3 ~mk_spec:Btr.program
    ~mk_alpha:Btr3.alpha n

let hitting_dijkstra4 n =
  hitting ~name:"Dijkstra-4state" ~mk:Btr4.dijkstra4 ~mk_spec:Btr.program
    ~mk_alpha:Btr4.alpha n

let hitting_kstate n =
  let k = n + 1 in
  hitting ~name:"K-state (K=N+1)"
    ~mk:(fun n -> Kstate.program ~n ~k)
    ~mk_spec:Utr.program
    ~mk_alpha:(fun n -> Kstate.alpha ~n ~k)
    n
