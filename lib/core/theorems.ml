(* The paper's theorems, packaged as runnable checks on concrete instances.
   Each function evaluates the premises and the conclusion with the
   decision procedures of {!Refine} and {!Stabilize} and reports whether
   the implication is witnessed (premises true => conclusion true).  A
   sound checker can reject a true premise, so [premises_hold = false]
   yields [Vacuous] rather than a counterexample. *)

type verdict =
  | Witnessed  (* premises hold and conclusion holds *)
  | Vacuous  (* some premise did not hold (or was not provable) *)
  | Refuted  (* premises hold but conclusion fails: a real counterexample *)

let implication premises conclusion =
  if not premises then Vacuous else if conclusion then Witnessed else Refuted

(* The α-table of [alpha_ab] after [alpha_ca], lane by lane.  Lane
   reads are unchecked, so an image of [ca] outside [ab] is refused. *)
let compose_tables ca ab =
  let module Lane = Cr_kernel.Lane in
  let n = Lane.length ca and m = Lane.length ab in
  let out = Lane.create n in
  for i = 0 to n - 1 do
    let j = Lane.get ca i in
    if j < 0 || j >= m then
      invalid_arg "Theorems: an alpha_ca image is not a state of alpha_ab";
    Lane.set out i (Lane.get ab j)
  done;
  out

(* Theorems 0 and 1 differ only in their refinement premise: [refines]
   relates C to A, A is stabilizing to B, and then C must be stabilizing
   to B through the composed abstraction. *)
let via_refinement ~refines ?alpha_ca ?alpha_ab ~c ~a ~b () =
  let alpha_cb =
    match (alpha_ca, alpha_ab) with
    | Some ca, Some ab -> Some (compose_tables ca ab)
    | ca, None -> ca
    | None, ab -> ab
  in
  let p1 = (refines ?alpha:alpha_ca ~c ~a ()).Refine.holds in
  let p2 = (Stabilize.stabilizing_to ?alpha:alpha_ab ~c:a ~a:b ()).Stabilize.holds in
  let concl =
    (Stabilize.stabilizing_to ?alpha:alpha_cb ~c ~a:b ()).Stabilize.holds
  in
  implication (p1 && p2) concl

(* Theorem 0: [C ⊑ A] and A stabilizing to B => C stabilizing to B. *)
let theorem_0 ?alpha_ca ?alpha_ab ~c ~a ~b () =
  via_refinement ~refines:Refine.everywhere_refinement ?alpha_ca ?alpha_ab ~c
    ~a ~b ()

(* Theorem 1: [C ⪯ A] and A stabilizing to B => C stabilizing to B. *)
let theorem_1 ?alpha_ca ?alpha_ab ~c ~a ~b () =
  via_refinement
    ~refines:(fun ?alpha -> Refine.convergence_refinement ?alpha ?fair:None)
    ?alpha_ca ?alpha_ab ~c ~a ~b ()

(* Theorem 3 (graybox): [C ⪯ A] and (A [] W) stabilizing to A
   => (C [] W) stabilizing to A.  All four systems over one Sigma. *)
let theorem_3 ~box ~c ~a ~w () =
  let p1 = (Refine.convergence_refinement ~c ~a ()).Refine.holds in
  let aw = box a w in
  let p2 = (Stabilize.stabilizing_to ~c:aw ~a ()).Stabilize.holds in
  let cw = box c w in
  let concl = (Stabilize.stabilizing_to ~c:cw ~a ()).Stabilize.holds in
  implication (p1 && p2) concl

(* Theorem 5 (graybox with refined wrapper): [C ⪯ A], (A [] W) stabilizing
   to A and [W' ⪯ W] => (C [] W') stabilizing to A. *)
let theorem_5 ~box ~c ~a ~w ~w' () =
  let p1 = (Refine.convergence_refinement ~c ~a ()).Refine.holds in
  let aw = box a w in
  let p2 = (Stabilize.stabilizing_to ~c:aw ~a ()).Stabilize.holds in
  let p3 = (Refine.convergence_refinement ~c:w' ~a:w ()).Refine.holds in
  let cw' = box c w' in
  let concl = (Stabilize.stabilizing_to ~c:cw' ~a ()).Stabilize.holds in
  implication (p1 && p2 && p3) concl

(* Relation strength (Section 2 and Section 7):
   everywhere => convergence => everywhere-eventually, and all imply
   init-refinement. *)
let strength_chain ?alpha ~c ~a () =
  let ev = (Refine.everywhere_refinement ?alpha ~c ~a ()).Refine.holds in
  let cv = (Refine.convergence_refinement ?alpha ~c ~a ()).Refine.holds in
  let ee = (Refine.everywhere_eventually_refinement ?alpha ~c ~a ()).Refine.holds in
  let init = (Refine.init_refinement ?alpha ~c ~a ()).Refine.holds in
  ((not ev) || cv) && ((not cv) || ee) && ((not ee) || init)
