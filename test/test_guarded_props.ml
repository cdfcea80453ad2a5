(* Property-based tests of the guarded-command layer: the explicit
   compilation, box composition, priority semantics and closure are
   checked against their definitions on randomly generated programs. *)

open Cr_guarded

(* ---- random program generation ---- *)

type raw_action = {
  proc : int;
  slot : int;  (* written slot *)
  guard_slot : int;
  guard_val : int;
  write_val : int;
}

type raw_prog = { doms : int list; acts : raw_action list }

let gen_prog =
  QCheck2.Gen.(
    let* nv = int_range 1 4 in
    let* doms = list_repeat nv (int_range 1 3) in
    let* na = int_bound 6 in
    let* acts =
      list_size (return na)
        (let* slot = int_bound (nv - 1) in
         let* guard_slot = int_bound (nv - 1) in
         let* guard_val = int_bound 2 in
         let* write_val = int_bound 2 in
         let* proc = int_bound 3 in
         return { proc; slot; guard_slot; guard_val; write_val })
    in
    return { doms; acts })

(* [pad] prepends that many constant (domain-1) slots to the layout and
   shifts every generated slot past them. *)
let build ?(pad = 0) { doms; acts } =
  let nv = List.length doms in
  let layout =
    Layout.make
      (List.init pad (fun i -> (Printf.sprintf "k%d" i, 1))
      @ List.mapi (fun i d -> (Printf.sprintf "v%d" i, d)) doms)
  in
  let clamp slot v = v mod Layout.dom layout slot in
  let actions =
    List.mapi
      (fun i ra ->
        (* slot indices are taken modulo the layout size so that programs
           generated against one layout can be rebuilt against another
           (used by the box/priority properties) *)
        let slot = pad + (ra.slot mod nv)
        and guard_slot = pad + (ra.guard_slot mod nv) in
        Action.make
          ~label:(Printf.sprintf "a%d" i)
          ~proc:ra.proc ~writes:[ slot ]
          ~guard:(fun s -> s.(guard_slot) = clamp guard_slot ra.guard_val)
          ~effect:(fun s -> Action.set s [ (slot, clamp slot ra.write_val) ])
          ())
      acts
  in
  Program.make ~name:"rand" ~layout ~actions ~initial:(fun s -> s.(0) = 0)

(* explicit compilation agrees with the step function *)
let prop_explicit_agrees =
  QCheck2.Test.make ~name:"to_explicit edges = step function (minus no-ops)"
    ~count:300 gen_prog (fun raw ->
      let p = build raw in
      let e = Program.to_explicit p in
      let ok = ref true in
      List.iter
        (fun s ->
          let i = Cr_semantics.Explicit.find e s in
          let expected =
            Program.step p s
            |> List.filter (fun s' -> s' <> s)
            |> List.map (Cr_semantics.Explicit.find e)
            |> List.sort_uniq compare
          in
          let actual =
            Array.to_list (Cr_semantics.Explicit.successors e i)
            |> List.sort compare
          in
          if expected <> actual then ok := false)
        (Layout.enumerate (Program.layout p));
      !ok)

(* box is the union of the step relations *)
let prop_box_union =
  QCheck2.Test.make ~name:"box = union of transitions" ~count:200
    QCheck2.Gen.(pair gen_prog gen_prog)
    (fun (r1, r2) ->
      let r2 = { r2 with doms = r1.doms } in
      let p1 = build r1 and p2 = build r2 in
      let b = Program.box p1 p2 in
      let eb = Program.to_explicit b in
      let e1 = Program.to_explicit p1 and e2 = Program.to_explicit p2 in
      let ok = ref true in
      Cr_semantics.Explicit.iter_edges eb (fun i j ->
          let s = Cr_semantics.Explicit.state eb i in
          let t = Cr_semantics.Explicit.state eb j in
          let in1 =
            Cr_semantics.Explicit.has_edge e1 (Cr_semantics.Explicit.find e1 s)
              (Cr_semantics.Explicit.find e1 t)
          in
          let in2 =
            Cr_semantics.Explicit.has_edge e2 (Cr_semantics.Explicit.find e2 s)
              (Cr_semantics.Explicit.find e2 t)
          in
          if not (in1 || in2) then ok := false);
      (* and conversely: every edge of either operand appears in the box *)
      Cr_semantics.Explicit.iter_edges e1 (fun i j ->
          let s = Cr_semantics.Explicit.state e1 i in
          let t = Cr_semantics.Explicit.state e1 j in
          if
            not
              (Cr_semantics.Explicit.has_edge eb
                 (Cr_semantics.Explicit.find eb s)
                 (Cr_semantics.Explicit.find eb t))
          then ok := false);
      !ok)

(* priority semantics: wherever the wrapper can move, the composed system
   takes exactly the wrapper moves; elsewhere the base moves *)
let prop_priority_semantics =
  QCheck2.Test.make ~name:"box_priority preempts exactly where enabled"
    ~count:200
    QCheck2.Gen.(pair gen_prog gen_prog)
    (fun (rb, rw) ->
      let rw = { rw with doms = rb.doms } in
      let base = build rb and wrapper = build rw in
      let combined, is_w = Program.box_priority base wrapper in
      let e = Program.to_explicit ~priority_of:is_w combined in
      let ok = ref true in
      List.iter
        (fun s ->
          let w_moves =
            Program.step wrapper s |> List.filter (fun t -> t <> s)
            |> List.sort_uniq compare
          in
          let b_moves =
            Program.step base s |> List.filter (fun t -> t <> s)
            |> List.sort_uniq compare
          in
          let expected = if w_moves <> [] then w_moves else b_moves in
          let actual =
            Array.to_list
              (Cr_semantics.Explicit.successors e (Cr_semantics.Explicit.find e s))
            |> List.map (Cr_semantics.Explicit.state e)
            |> List.sort_uniq compare
          in
          if List.sort compare expected <> actual then ok := false)
        (Layout.enumerate (Program.layout base));
      !ok)

(* closure is sound and complete w.r.t. the step function *)
let prop_closure =
  QCheck2.Test.make ~name:"reachable_from is the least fixed point" ~count:200
    gen_prog (fun raw ->
      let p = build raw in
      let states = Layout.enumerate (Program.layout p) in
      match states with
      | [] -> true
      | seed :: _ ->
          let closure = Program.reachable_from p [ seed ] in
          (* closed under step *)
          let closed =
            Layout.Tbl.fold
              (fun s () acc ->
                acc
                && List.for_all (fun t -> Layout.Tbl.mem closure t) (Program.step p s))
              closure true
          in
          (* minimal: every member is reachable by an explicit path *)
          let e = Program.to_explicit p in
          let reach =
            Cr_checker.Reach.forward
              ~succ:(Cr_semantics.Explicit.csr e)
              ~seeds:
                (Graph_ref.mask (Cr_semantics.Explicit.num_states e)
                   [ Cr_semantics.Explicit.find e seed ])
          in
          let minimal =
            Layout.Tbl.fold
              (fun s () acc ->
                acc && Cr_kernel.Bitset.get reach (Cr_semantics.Explicit.find e s))
              closure true
          in
          closed && minimal)

(* Reference closure for the property below: a plain worklist search
   over the polymorphic Hashtbl, independent of Layout.Tbl. *)
let reference_closure p seeds =
  let seen = Hashtbl.create 64 in
  let rec go = function
    | [] -> ()
    | s :: rest ->
        if Hashtbl.mem seen s then go rest
        else begin
          Hashtbl.replace seen s ();
          go (Program.step p s @ rest)
        end
  in
  go seeds;
  seen

(* The closure's initial-state predicate on wide layouts: with 12
   constant slots in front, every varying slot sits past the 10 fields
   the polymorphic Hashtbl.hash reads, so all states collide under it;
   the whole-state table must still decide membership exactly. *)
let prop_closure_wide =
  QCheck2.Test.make ~name:"with_initial_closure agrees with a reference BFS past field 10"
    ~count:200
    QCheck2.Gen.(pair gen_prog nat)
    (fun (raw, k) ->
      let p = build ~pad:12 raw in
      let states = Layout.enumerate (Program.layout p) in
      let seed = List.nth states (k mod List.length states) in
      let reference = reference_closure p [ seed ] in
      let closed = Program.with_initial_closure ~seeds:[ seed ] p in
      List.for_all
        (fun s -> Program.initial closed s = Hashtbl.mem reference s)
        states)

(* synchronous steps write only declared slots and respect guards *)
let prop_synchronous_writes =
  QCheck2.Test.make ~name:"synchronous step only writes enabled processes' slots"
    ~count:200 gen_prog (fun raw ->
      let p = build raw in
      let ok = ref true in
      List.iter
        (fun s ->
          match Program.synchronous_step p s with
          | None -> ()
          | Some s' ->
              let written =
                List.concat_map
                  (fun a -> if Action.enabled a s then Action.writes a else [])
                  (Program.actions p)
              in
              Array.iteri
                (fun i v -> if v <> s.(i) && not (List.mem i written) then ok := false)
                s')
        (Layout.enumerate (Program.layout p));
      !ok)

let () =
  Alcotest.run "guarded-props"
    [
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [
            prop_explicit_agrees;
            prop_box_union;
            prop_priority_semantics;
            prop_closure;
            prop_closure_wide;
            prop_synchronous_writes;
          ] );
    ]
