(* Named registry of the systems built in this repository, for the
   command-line driver and the examples. *)

open Cr_guarded

type entry = {
  name : string;
  describe : string;
  program : int -> Program.t;  (* parameterized by ring size n *)
  spec : int -> Program.t;  (* the specification it stabilizes to *)
  alpha : int -> (Layout.state, Layout.state) Cr_semantics.Abstraction.t;
  converged : int -> Layout.state -> bool;
  render : int -> Layout.state -> string;  (* one-line picture for traces *)
  lint_allow : string list;
      (* lint checks to downgrade for this system; the abstract
         neighbour-writing models allowlist P1 (shared-slot writes are
         the point of the abstract execution model, cf. Section 3) *)
}

let id_alpha _n = Cr_semantics.Abstraction.identity ()

let entries : entry list =
  [
    {
      name = "dijkstra3";
      describe = "Dijkstra's 3-state stabilizing token ring (Section 5)";
      program = Cr_tokenring.Btr3.dijkstra3;
      spec = Cr_tokenring.Btr.program;
      alpha = Cr_tokenring.Btr3.alpha;
      converged = Cr_tokenring.Btr3.one_token;
      render = (fun n s -> Cr_tokenring.Render.counters3_line n s);
      lint_allow = [];
    };
    {
      name = "dijkstra4";
      describe = "Dijkstra's 4-state stabilizing token ring (Section 4)";
      program = Cr_tokenring.Btr4.dijkstra4;
      spec = Cr_tokenring.Btr.program;
      alpha = Cr_tokenring.Btr4.alpha;
      converged = Cr_tokenring.Btr4.one_token;
      render = (fun n s -> Cr_tokenring.Render.tokens_line n (Cr_tokenring.Btr4.to_tokens n s));
      lint_allow = [];
    };
    {
      name = "c1";
      describe = "C1, the 4-state concrete refinement of BTR (Section 4.2)";
      program = Cr_tokenring.Btr4.c1;
      spec = Cr_tokenring.Btr.program;
      alpha = Cr_tokenring.Btr4.alpha;
      converged = Cr_tokenring.Btr4.one_token;
      render = (fun n s -> Cr_tokenring.Render.tokens_line n (Cr_tokenring.Btr4.to_tokens n s));
      lint_allow = [];
    };
    {
      name = "c2";
      describe = "C2, the 3-state concrete refinement of BTR_3 (Section 5.2)";
      program = Cr_tokenring.Btr3.c2;
      spec = Cr_tokenring.Btr.program;
      alpha = Cr_tokenring.Btr3.alpha;
      converged = Cr_tokenring.Btr3.one_token;
      render = (fun n s -> Cr_tokenring.Render.counters3_line n s);
      lint_allow = [];
    };
    {
      name = "c2-wrapped";
      describe = "C2 [] W1'' [] W2' (Theorem 11's composition)";
      program = Cr_tokenring.Btr3.c2_wrapped;
      spec = Cr_tokenring.Btr.program;
      alpha = Cr_tokenring.Btr3.alpha;
      converged = Cr_tokenring.Btr3.one_token;
      render = (fun n s -> Cr_tokenring.Render.counters3_line n s);
      lint_allow = [];
    };
    {
      name = "c3";
      describe = "C3, the new 3-state implementation (Section 6)";
      program = Cr_tokenring.C3_system.c3;
      spec = Cr_tokenring.Btr.program;
      alpha = Cr_tokenring.C3_system.alpha;
      converged = Cr_tokenring.Btr3.one_token;
      render = (fun n s -> Cr_tokenring.Render.counters3_line n s);
      lint_allow = [];
    };
    {
      name = "new3";
      describe = "C3 [] W1'' [] W2', the new 3-state stabilizing system";
      program = Cr_tokenring.C3_system.new3;
      spec = Cr_tokenring.Btr.program;
      alpha = Cr_tokenring.C3_system.alpha;
      converged = Cr_tokenring.Btr3.one_token;
      render = (fun n s -> Cr_tokenring.Render.counters3_line n s);
      lint_allow = [];
    };
    {
      name = "btr";
      describe = "the abstract bidirectional token ring (fault-intolerant)";
      program = Cr_tokenring.Btr.program;
      spec = Cr_tokenring.Btr.program;
      alpha = id_alpha;
      converged = Cr_tokenring.Btr.invariant;
      render = (fun n s -> Cr_tokenring.Render.tokens_line n s);
      lint_allow = [ "P1" ];
    };
    {
      name = "btr-wrapped";
      describe = "BTR [] W1 [] W2, union semantics (Theorem 6's subject)";
      program = Cr_tokenring.Btr.wrapped;
      spec = Cr_tokenring.Btr.program;
      alpha = id_alpha;
      converged = Cr_tokenring.Btr.invariant;
      render = (fun n s -> Cr_tokenring.Render.tokens_line n s);
      lint_allow = [ "P1" ];
    };
    {
      name = "kstate";
      describe = "Dijkstra's K-state ring with K = N+1 (full version)";
      program = (fun n -> Cr_tokenring.Kstate.program ~n ~k:(n + 1));
      spec = Cr_tokenring.Utr.program;
      alpha = (fun n -> Cr_tokenring.Kstate.alpha ~n ~k:(n + 1));
      converged = (fun n s -> Cr_tokenring.Kstate.token_count n s = 1);
      render = (fun n s -> Cr_tokenring.Render.utr_line (Cr_tokenring.Kstate.to_tokens n s));
      lint_allow = [];
    };
    {
      name = "rw-dijkstra3";
      describe =
        "read/write atomicity refinement of Dijkstra-3 (extension E17)";
      program = Cr_tokenring.Rw_atomicity.program;
      spec = Cr_tokenring.Btr.program;
      alpha = Cr_tokenring.Rw_atomicity.alpha;
      converged =
        (fun n s ->
          Cr_tokenring.Btr.token_count n (Cr_tokenring.Rw_atomicity.to_tokens n s)
          = 1);
      render = (fun n s -> Cr_tokenring.Render.counters3_line n (Cr_tokenring.Rw_atomicity.to_counters n s));
      lint_allow = [];
    };
    {
      name = "utr";
      describe = "the abstract unidirectional token ring (fault-intolerant)";
      program = Cr_tokenring.Utr.program;
      spec = Cr_tokenring.Utr.program;
      alpha = id_alpha;
      converged = (fun _n s -> Cr_tokenring.Utr.invariant s);
      render = (fun _n s -> Cr_tokenring.Render.utr_line s);
      lint_allow = [ "P1" ];
    };
  ]

let find name = List.find_opt (fun e -> e.name = name) entries

let names () = List.map (fun e -> e.name) entries

(* Compile an entry (or its spec) at size n.  These go through
   [Program.to_explicit] and therefore the process-wide compile cache:
   a driver that compiles the same registry system at the same size
   twice pays for one compile. *)
let explicit e n = Program.to_explicit (e.program n)

let spec_explicit e n = Program.to_explicit (e.spec n)

(* Init-anchored compiles: the reachable-fragment (sparse) engine unless
   CR_SPACE forces one.  Everything the refinement checkers quantify
   over lives in the concrete fragment reachable from the initial
   states, and a stabilization verdict reads the spec only through its
   legitimate orbit (the fragment reachable from I_A, see
   [Stabilize.stabilizing_to]) — so verdicts computed here agree with
   the dense engine.  These orbits are a vanishing fraction of the
   product spaces (18 of 2^18 states for BTR at N = 9), which is what
   lets refine run at ring sizes the dense compile cannot materialize
   and keeps the spec side of verify small. *)
let anchored p =
  Program.to_explicit
    ~space:(Cr_semantics.Space.resolve ~default:Cr_semantics.Space.Sparse ())
    p

let init_explicit e n = anchored (e.program n)

let legit_explicit e n = anchored (e.spec n)

(* Verdict routing.  crcheck (verify, refine, dot), the flow audit and
   the tests ask registry questions through these, so the
   content-addressed verdict memo inside Refine/Stabilize serves one
   computed verdict to all of them.  The report tables do not:
   Ring_exps, Ext_exps, Cost_exps, Report.table_mutex and
   Cr_fault.Spans spell out their own (program, spec, α) triples and
   check against the dense spec. *)

let stabilization ?ep ?spec ?alpha ?fair e n =
  let ep = match ep with Some ep -> ep | None -> explicit e n in
  let spec = match spec with Some s -> s | None -> legit_explicit e n in
  let alpha =
    match alpha with
    | Some t -> t
    | None -> Cr_semantics.Abstraction.tabulate ~partial:true (e.alpha n) ep spec
  in
  Cr_core.Stabilize.stabilizing_to ~alpha ?fair ~c:ep ~a:spec ()

let refinements ?ep ?spec e n =
  let ep = match ep with Some ep -> ep | None -> init_explicit e n in
  let spec = match spec with Some s -> s | None -> spec_explicit e n in
  let alpha = Cr_semantics.Abstraction.tabulate (e.alpha n) ep spec in
  [
    ("init", Cr_core.Refine.init_refinement ~alpha ~c:ep ~a:spec ());
    ("everywhere", Cr_core.Refine.everywhere_refinement ~alpha ~c:ep ~a:spec ());
    ("convergence", Cr_core.Refine.convergence_refinement ~alpha ~c:ep ~a:spec ());
    ("ee", Cr_core.Refine.everywhere_eventually_refinement ~alpha ~c:ep ~a:spec ());
  ]
