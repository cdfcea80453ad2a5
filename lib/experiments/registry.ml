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

(* Ranked in the spec's layout: the identity's image is the state
   itself, so its rank is the state's own (-1 outside that layout). *)
let id_alpha layout n =
  Cr_semantics.Abstraction.identity ~rank:(Layout.checked_rank (layout n)) ()

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
      alpha = id_alpha Cr_tokenring.Btr.layout;
      converged = Cr_tokenring.Btr.invariant;
      render = (fun n s -> Cr_tokenring.Render.tokens_line n s);
      lint_allow = [ "P1" ];
    };
    {
      name = "btr-wrapped";
      describe = "BTR [] W1 [] W2, union semantics (Theorem 6's subject)";
      program = Cr_tokenring.Btr.wrapped;
      spec = Cr_tokenring.Btr.program;
      alpha = id_alpha Cr_tokenring.Btr.layout;
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
      alpha = id_alpha Cr_tokenring.Utr.layout;
      converged = (fun _n s -> Cr_tokenring.Utr.invariant s);
      render = (fun _n s -> Cr_tokenring.Render.utr_line s);
      lint_allow = [ "P1" ];
    };
  ]

let find name = List.find_opt (fun e -> e.name = name) entries

let names () = List.map (fun e -> e.name) entries

(* Compile an entry at size n: a fresh graph on every call, so a caller
   that asks several questions of one system compiles it once and
   passes the graph along ([?ep] below). *)
let explicit e n = Program.to_explicit (e.program n)

(* Init-anchored compiles: the reachable-fragment (sparse) engine unless
   CR_SPACE forces one.  Everything the refinement checkers quantify
   over lives in the concrete fragment reachable from the initial
   states, a stabilization verdict reads the spec only through its
   legitimate orbit (the fragment reachable from I_A, see
   [Stabilize.stabilizing_to]), and a refinement verdict reads it only
   through the forward closure of the α-images ([?roots]) — so verdicts
   computed here agree with the dense engine.  These fragments are a
   vanishing fraction of the product spaces (18 of 2^18 states for BTR
   at N = 9), which is what lets refine run at ring sizes the dense
   compile cannot materialize and keeps the spec side of every question
   small. *)
let anchored ?roots p =
  Program.to_explicit ?roots
    ~space:(Cr_semantics.Space.resolve ~default:Cr_semantics.Space.Sparse ())
    p

let init_explicit e n = anchored (e.program n)

(* Verdict routing.  Every (program, spec, α) stabilization question —
   crcheck's verify, dot, spans and kstate, the flow audit and every
   report table — goes through [stabilizing], and every refinement
   question — crcheck refine, [refinements] and the lemma tables —
   through [refining].  Staged: the spec's fragment and the α-table are
   built once per [~alpha c spec], and the checker can be asked again
   (the fair re-check). *)
let stabilizing ~alpha c spec =
  let a = anchored spec in
  let alpha = Cr_semantics.Abstraction.tabulate ~partial:true alpha c a in
  fun ?fair () -> Cr_core.Stabilize.stabilizing_to ~alpha ?fair ~c ~a ()

let stabilization ?ep e n =
  let ep = match ep with Some ep -> ep | None -> explicit e n in
  stabilizing ~alpha:(e.alpha n) ep (e.spec n)

type refiners = {
  abstract : Layout.state Cr_semantics.Explicit.t;
  init : unit -> Cr_core.Refine.report;
  everywhere : unit -> Cr_core.Refine.report;
  convergence : ?fair:Cr_core.Fair.tables -> unit -> Cr_core.Refine.report;
  ee : ?fair:Cr_core.Fair.tables -> unit -> Cr_core.Refine.report;
}

let[@inline] lane b k = Int32.to_int (Cr_kernel.Lane.get32u b (4 * k))
let[@inline] set_lane b k v = Cr_kernel.Lane.set32u b (4 * k) (Int32.of_int v)

(* Refine reads the spec only at α-images — is_initial, has_edge and
   is_terminal there, and BFS distances from them — all inside the
   forward closure of α(Σ_C).  So one sweep over c ranks every image
   (by α's own rank, or for an abstraction without one by ranking the
   image it builds) and numbers the distinct ranks in a [Keytbl]: each
   state's lane of the α-table holds its image's number.  The spec is
   compiled from the distinct ranks as roots (sparse unless CR_SPACE
   forces the dense spec), and each lane is then rewritten in place to
   its image's index there, through the spec's rank index. *)
let refining ~alpha c spec =
  let module E = Cr_semantics.Explicit in
  let module A = Cr_semantics.Abstraction in
  let layout = Program.layout spec in
  let rank =
    match A.rank alpha with
    | Some rank -> rank
    | None -> fun s -> Layout.checked_rank layout (A.apply alpha s)
  in
  let n = E.num_states c in
  let table = Cr_kernel.Lane.create n in
  let images = Cr_kernel.Keytbl.create 64 in
  Cr_obs.Obs.span "abstraction.tabulate" (fun () ->
      E.iter_states c (fun i s ->
          let r = rank s in
          if r < 0 then
            raise (A.not_total alpha c i ~target:(Program.name spec));
          set_lane table i (Cr_kernel.Keytbl.intern images r)));
  let ranks = Cr_kernel.Keytbl.keys images in
  let a = anchored ~roots:ranks spec in
  let index = Array.map (Option.get (E.rank_index a)) ranks in
  for i = 0 to n - 1 do
    set_lane table i index.(lane table i)
  done;
  let alpha = table in
  let open Cr_core.Refine in
  {
    abstract = a;
    init = (fun () -> init_refinement ~alpha ~c ~a ());
    everywhere = (fun () -> everywhere_refinement ~alpha ~c ~a ());
    convergence =
      (fun ?fair () -> convergence_refinement ~alpha ?fair ~c ~a ());
    ee =
      (fun ?fair () -> everywhere_eventually_refinement ~alpha ?fair ~c ~a ());
  }

let relations r =
  [
    ("init", r.init ());
    ("everywhere", r.everywhere ());
    ("convergence", r.convergence ());
    ("ee", r.ee ());
  ]

let refinements e n =
  relations (refining ~alpha:(e.alpha n) (init_explicit e n) (e.spec n))
