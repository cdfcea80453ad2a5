(* The list-building report route that [Refine] replaced with a bounded
   collector, kept as its reference: every failure is consed into one
   list (edge and stutter-cycle failures prepended onto the initial
   failures, the terminal failures appended with [@]), and the report
   keeps the first ten entries and the list's length.  Uncached and
   untimed; it classifies through [Refine.classify] and decides cycles
   with the same kernels, so tests compare the two report routes field
   by field. *)

open Cr_core
open Refine
module E = Cr_semantics.Explicit

let max_reported_failures = 10

let initial_failures ~alpha ~c ~a =
  Array.to_list (E.initials c)
  |> List.filter_map (fun i ->
         if E.is_initial a alpha.(i) then None else Some (Initial_not_initial i))

let terminal_failures ~alpha ~c ~a ~restrict =
  let acc = ref [] in
  for i = 0 to E.num_states c - 1 do
    let considered =
      match restrict with None -> true | Some m -> Cr_kernel.Bitset.get m i
    in
    if considered && E.is_terminal c i && not (E.is_terminal a alpha.(i)) then
      acc := Terminal_not_terminal i :: !acc
  done;
  List.rev !acc

let make_report ~relation ~c ~a ~stats failures =
  {
    holds = failures = [];
    stats;
    failures = List.filteri (fun k _ -> k < max_reported_failures) failures;
    total_failures = List.length failures;
    concrete = E.name c;
    abstract = E.name a;
    relation;
    cost = None;
  }

let edge_on_cycle ~fair succ =
  match fair with
  | None ->
      let scc = Cr_checker.Scc.compute succ in
      Cr_checker.Scc.edge_on_cycle scc
  | Some tables ->
      let analysis =
        Fair.analyze tables ~succ
          ~mask:(Cr_kernel.Bitset.full (Cr_kernel.Csr.num_states succ))
      in
      Fair.edge_on_fair_cycle analysis

let stutter_check ~alpha ~fair ~c ~a ~(stats : stats) failures =
  if stats.stutter > 0 then begin
    let n = E.num_states c in
    let adj = Cr_kernel.Csr.filter (E.csr c) (fun i j -> alpha.(i) = alpha.(j)) in
    let on_cycle =
      match fair with
      | None -> Cr_checker.Scc.on_cycle (Cr_checker.Scc.compute adj)
      | Some tables ->
          let an = Fair.analyze tables ~succ:adj ~mask:(Cr_kernel.Bitset.full n) in
          fun i -> an.Fair.fair.(i)
    in
    for i = 0 to n - 1 do
      if on_cycle i && not (E.is_terminal a alpha.(i)) then
        failures := Stutter_cycle i :: !failures
    done
  end

(* The α-table as lanes, which [Refine.classify] reads, and as the array
   this reference reads. *)
let alpha_of ~c alpha =
  let t =
    match alpha with
    | Some t -> t
    | None -> Cr_semantics.Abstraction.identity_table (E.num_states c)
  in
  (t, Cr_kernel.Lane.to_array t)

let init_refinement ?alpha ~c ~a () =
  let _, alpha = alpha_of ~c alpha in
  let reach = Cr_checker.Reach.reachable_from_initial c in
  let failures = ref (initial_failures ~alpha ~c ~a) in
  let edges = ref 0 and exact = ref 0 in
  E.iter_edges c (fun i j ->
      if Cr_kernel.Bitset.get reach i then begin
        incr edges;
        if E.has_edge a alpha.(i) alpha.(j) then incr exact
        else failures := Init_edge_not_exact (i, j) :: !failures
      end);
  let failures =
    !failures @ terminal_failures ~alpha ~c ~a ~restrict:(Some reach)
  in
  make_report ~relation:"⊑_init" ~c ~a
    ~stats:
      { edges = !edges; exact = !exact; stutter = 0; compressions = 0;
        max_dropped = 0 }
    failures

let everywhere_refinement ?alpha ~c ~a () =
  let _, alpha = alpha_of ~c alpha in
  let failures = ref (initial_failures ~alpha ~c ~a) in
  let edges = ref 0 and exact = ref 0 in
  E.iter_edges c (fun i j ->
      incr edges;
      if E.has_edge a alpha.(i) alpha.(j) then incr exact
      else failures := Init_edge_not_exact (i, j) :: !failures);
  let failures = !failures @ terminal_failures ~alpha ~c ~a ~restrict:None in
  make_report ~relation:"⊑" ~c ~a
    ~stats:
      { edges = !edges; exact = !exact; stutter = 0; compressions = 0;
        max_dropped = 0 }
    failures

let convergence_refinement ?alpha ?fair ~c ~a () =
  let table, alpha = alpha_of ~c alpha in
  let classified, stats = classify ~alpha:table ~c ~a in
  let on_cycle = edge_on_cycle ~fair (E.csr c) in
  let failures = ref (initial_failures ~alpha ~c ~a) in
  let reach = Cr_checker.Reach.reachable_from_initial c in
  iter_classified classified (fun i j cls ->
      match cls with
      | Some Exact -> ()
      | _ ->
          if Cr_kernel.Bitset.get reach i then
            failures := Init_edge_not_exact (i, j) :: !failures);
  iter_classified classified (fun i j cls ->
      match cls with
      | None -> failures := Edge_unmatched (i, j) :: !failures
      | Some (Compression _) when on_cycle i j ->
          failures := Compression_on_cycle (i, j) :: !failures
      | Some _ -> ());
  stutter_check ~alpha ~fair ~c ~a ~stats failures;
  let failures = !failures @ terminal_failures ~alpha ~c ~a ~restrict:None in
  make_report ~relation:"⪯" ~c ~a ~stats failures

let everywhere_eventually_refinement ?alpha ?fair ~c ~a () =
  let table, alpha = alpha_of ~c alpha in
  let classified, stats = classify ~alpha:table ~c ~a in
  let on_cycle = edge_on_cycle ~fair (E.csr c) in
  let failures = ref (initial_failures ~alpha ~c ~a) in
  let reach = Cr_checker.Reach.reachable_from_initial c in
  iter_classified classified (fun i j cls ->
      let is_exact = match cls with Some Exact -> true | _ -> false in
      if Cr_kernel.Bitset.get reach i && not is_exact then
        failures := Init_edge_not_exact (i, j) :: !failures
      else
        match cls with
        | Some Exact | Some Stutter -> ()
        | Some (Compression _) | None ->
            if on_cycle i j then
              failures := Non_exact_on_cycle (i, j) :: !failures);
  stutter_check ~alpha ~fair ~c ~a ~stats failures;
  let failures = !failures @ terminal_failures ~alpha ~c ~a ~restrict:None in
  make_report ~relation:"⊑_ee" ~c ~a ~stats failures

(* The four relations, labelled as [Registry.relations] labels them. *)
let relations ?alpha ?fair ~c ~a () =
  [
    ("init", init_refinement ?alpha ~c ~a ());
    ("everywhere", everywhere_refinement ?alpha ~c ~a ());
    ("convergence", convergence_refinement ?alpha ?fair ~c ~a ());
    ("ee", everywhere_eventually_refinement ?alpha ?fair ~c ~a ());
  ]

(* Field-by-field agreement, the printed verdict line included; on a
   mismatch, which field differs. *)
let mismatch (got : report) (want : report) =
  let text r = Fmt.str "%a" pp_report r in
  if got.holds <> want.holds then Some "holds"
  else if got.stats <> want.stats then Some "stats"
  else if got.failures <> want.failures then Some "failures"
  else if got.total_failures <> want.total_failures then Some "total_failures"
  else if text got <> text want then Some "pp_report"
  else None
