(* Static-analysis (Cr_lint) tests: exact read/write-set inference, one
   seeded defective program per check key, the all-registry clean pass,
   synchronous-daemon action-order sensitivity, and the JSON artifact. *)

open Cr_guarded
module Lint = Cr_lint.Lint
module Rwsets = Cr_lint.Rwsets
module Registry = Cr_experiments.Registry

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let layout3 = Layout.make [ ("x", 3); ("y", 3); ("z", 3) ]

let prog ?(name = "seeded") ?(initial = fun _ -> true) actions =
  Program.make ~name ~layout:layout3 ~actions ~initial

let act ?(label = "a") ?(proc = 0) guard assign =
  Action.make ~label ~proc ~guard ~assign ()

let keys key r = Lint.find_key key r
let fires key r = keys key r <> []

let severity_of key r =
  match keys key r with
  | f :: _ -> f.Lint.severity
  | [] -> Alcotest.failf "expected a %s finding" key

(* ---------- Rwsets: exact inference on a known action ---------- *)

let test_rwsets_exact () =
  (* Crafted action with fully known exact sets: guard reads z only,
     effect derives y from x; z passes through untouched. *)
  let a =
    act ~label:"exact" ~proc:1
      (fun s -> s.(2) = 0)
      [ (1, fun s -> (s.(0) + 1) mod 3) ]
  in
  let info = Rwsets.of_action layout3 a in
  check "writes y only" true (info.Rwsets.writes = [ 1 ]);
  check "guard reads z only" true (info.Rwsets.guard_reads = [ 2 ]);
  check "effect reads x only" true (info.Rwsets.effect_reads = [ 0 ]);
  check "fires somewhere" true (info.Rwsets.firing_states > 0);
  check "stays in domain" true (info.Rwsets.invalid_witness = None);
  (* Dijkstra-3 top at n = 2: guard c1 = c0 && p1(c1) <> c2, effect
     c2 := p1(c1).  Note the effect read on c1 is *not* reported: the
     guard forces c1 = c0 on every enabled state, so no two enabled
     states differ only in c1 and the dependence is unobservable. *)
  let p = Cr_tokenring.Btr3.dijkstra3 2 in
  let top =
    List.find (fun x -> Action.label x = "top") (Program.actions p)
  in
  let ti = Rwsets.of_action (Program.layout p) top in
  check "top writes c2" true (ti.Rwsets.writes = [ 2 ]);
  check "top guard reads c0,c1,c2" true (ti.Rwsets.guard_reads = [ 0; 1; 2 ]);
  check "top fires somewhere" true (ti.Rwsets.firing_states > 0);
  check "top stays in domain" true (ti.Rwsets.invalid_witness = None)

let test_rwsets_copy_sources () =
  (* A verbatim copy effect advertises its source. *)
  let copy =
    act ~label:"copy" ~proc:1
      (fun s -> s.(1) <> s.(0))
      [ (1, fun s -> s.(0)) ]
  in
  let info = Rwsets.of_action layout3 copy in
  check "writes y" true (info.Rwsets.writes = [ 1 ]);
  check "x is a copy source" true (List.mem 0 info.Rwsets.copy_sources);
  check "z is not a copy source" false (List.mem 2 info.Rwsets.copy_sources)

(* ---------- Rwsets = the reference (test/rwsets_ref.ml) ---------- *)

(* A table-driven action, all data so that a counterexample prints.
   Values range over 0..4 against domains of 1..4, so assignments leave
   the domains; [noop] makes the assignment a no-op at some states;
   [Copy] is the atomic read shape that yields copy sources. *)
type src =
  | Const of int
  | Copy of int  (* the value of another slot *)
  | Map of int * int array  (* a function of one slot *)
  | Tab of int array  (* a function of the whole state, by rank *)

type guard_spec = Always | Slot_ne of int * int | Gtab of bool array

type act_spec = {
  doms : int list;
  guard : guard_spec;
  assigns : (int * src) list;  (* parallel slot := value, slots distinct *)
  noop : bool array;  (* by rank: every slot keeps its value there *)
}

let pp_ints a =
  String.concat ";" (Array.to_list (Array.map string_of_int a))

let print_spec sp =
  let src = function
    | Const c -> Printf.sprintf "Const %d" c
    | Copy r -> Printf.sprintf "Copy %d" r
    | Map (r, t) -> Printf.sprintf "Map (%d, [|%s|])" r (pp_ints t)
    | Tab t -> Printf.sprintf "Tab [|%s|]" (pp_ints t)
  in
  Printf.sprintf "doms=[%s] guard=%s assigns=[%s] noop=[|%s|]"
    (String.concat ";" (List.map string_of_int sp.doms))
    (match sp.guard with
    | Always -> "Always"
    | Slot_ne (j, v) -> Printf.sprintf "Slot_ne (%d, %d)" j v
    | Gtab t ->
        Printf.sprintf "Gtab [|%s|]"
          (String.concat ";"
             (Array.to_list (Array.map string_of_bool t))))
    (String.concat "; "
       (List.map
          (fun (w, x) -> Printf.sprintf "%d := %s" w (src x))
          sp.assigns))
    (pp_ints (Array.map Bool.to_int sp.noop))

let gen_act_spec =
  QCheck2.Gen.(
    let* nv = int_range 2 4 in
    let* doms = list_repeat nv (int_range 1 4) in
    let ns = List.fold_left ( * ) 1 doms in
    let dom = Array.of_list doms in
    (* clean actions keep every value inside its domain, so copy sources
       survive *)
    let* clean = bool in
    let value w = if clean then int_bound (dom.(w) - 1) else int_bound 4 in
    let* guard =
      frequency
        [
          (1, return Always);
          ( 2,
            let* j = int_bound (nv - 1) in
            let* v = int_bound dom.(j) in
            return (Slot_ne (j, v)) );
          (1, map (fun l -> Gtab (Array.of_list l)) (list_repeat ns bool));
        ]
    in
    let* assigns =
      list_size (int_bound 3)
        (let* w = int_bound (nv - 1) in
         let* x =
           frequency
             [
               (2, map (fun c -> Const c) (value w));
               (3, map (fun r -> Copy r) (int_bound (nv - 1)));
               ( 2,
                 let* r = int_bound (nv - 1) in
                 let* t = list_repeat dom.(r) (value w) in
                 return (Map (r, Array.of_list t)) );
               ( 1,
                 map (fun t -> Tab (Array.of_list t)) (list_repeat ns (value w))
               );
             ]
         in
         return (w, x))
    in
    (* one assignment per slot: the last one generated *)
    let assigns =
      List.fold_left
        (fun acc (w, x) -> if List.mem_assoc w acc then acc else (w, x) :: acc)
        [] (List.rev assigns)
    in
    let* noop =
      list_repeat ns
        (frequency
           [ ((if clean then 9 else 7), return false); (1, return true) ])
    in
    return { doms; guard; assigns; noop = Array.of_list noop })

let act_of_spec sp =
  let layout =
    Layout.make (List.mapi (fun i d -> (Printf.sprintf "v%d" i, d)) sp.doms)
  in
  let rank = Layout.rank layout in
  let value s = function
    | Const c -> c
    | Copy r -> s.(r)
    | Map (r, t) -> t.(s.(r))
    | Tab t -> t.(rank s)
  in
  let guard s =
    match sp.guard with
    | Always -> true
    | Slot_ne (j, v) -> s.(j) <> v
    | Gtab t -> t.(rank s)
  in
  let assign =
    List.map
      (fun (w, x) ->
        (w, fun s -> if sp.noop.(rank s) then s.(w) else value s x))
      sp.assigns
  in
  (layout, act ~label:"t" ~proc:0 guard assign)

let prop_rwsets_reference =
  QCheck2.Test.make ~count:1000
    ~name:"Rwsets.of_action = reference on random table-driven actions"
    ~print:print_spec gen_act_spec (fun sp ->
      let layout, a = act_of_spec sp in
      Rwsets_ref.fields (Rwsets.of_action layout a)
      = Rwsets_ref.fields (Rwsets_ref.of_action layout a))

(* Larger table-driven actions: five slots, one of domain 9..12 and the
   rest of domains 4..7 (2,304 to 28,812 states; slot weights up to
   4,116; a wide domain over a small weight makes runs shorter than a
   word), two to four written slots.
   Each written slot is a random table over the projection of the state
   on a dependency set (so some slots go unread and their scans run to
   the end) with values in its domain, two past it, or in 0..31;
   [odd] adds no-op results.  A [wide] action depends
   on every slot with values in 0..31 and a dense guard, so more than
   255 distinct output tuples occur and the codes are two bytes wide.
   The tables come from [seed], so a counterexample prints small. *)
type big_spec = {
  bdoms : int list;
  nwrites : int;
  wide : bool;
  spread : int;  (* values: 0 in the domain, 1 two past it, 2 0..31 *)
  density : int;  (* percent of states the guard admits *)
  odd : int;  (* percent of no-op results *)
  seed : int;
}

let print_big b =
  Printf.sprintf
    "bdoms=[%s] nwrites=%d wide=%b spread=%d density=%d odd=%d seed=%d"
    (String.concat ";" (List.map string_of_int b.bdoms))
    b.nwrites b.wide b.spread b.density b.odd b.seed

let gen_big_spec =
  QCheck2.Gen.(
    let* bdoms = list_repeat 5 (int_range 4 7) in
    let* at = int_bound 4 in
    let* wide_dom = int_range 9 12 in
    let bdoms = List.mapi (fun i d -> if i = at then wide_dom else d) bdoms in
    let* nwrites = int_range 2 4 in
    let* wide = bool in
    let* spread = int_bound 2 in
    let* density = oneofl [ 50; 90; 100 ] in
    let* odd = oneofl [ 0; 3; 10 ] in
    let* seed = int_bound 1_000_000 in
    return { bdoms; nwrites; wide; spread; density; odd; seed })

let act_of_big b =
  let rnd = Random.State.make [| b.seed |] in
  let layout =
    Layout.make (List.mapi (fun i d -> (Printf.sprintf "v%d" i, d)) b.bdoms)
  in
  let nv = Layout.num_vars layout and ns = Layout.num_states layout in
  let rank = Layout.rank layout in
  let slots = Array.init nv Fun.id in
  for i = nv - 1 downto 1 do
    let j = Random.State.int rnd (i + 1) in
    let t = slots.(i) in
    slots.(i) <- slots.(j);
    slots.(j) <- t
  done;
  let written = Array.to_list (Array.sub slots 0 b.nwrites) in
  let spread = if b.wide then 2 else b.spread in
  let table w =
    let deps =
      List.filter
        (fun _ -> b.wide || Random.State.bool rnd)
        (List.init nv Fun.id)
    in
    let size = List.fold_left (fun acc j -> acc * Layout.dom layout j) 1 deps in
    let range =
      match spread with
      | 0 -> Layout.dom layout w
      | 1 -> Layout.dom layout w + 2
      | _ -> 32
    in
    let t = Array.init size (fun _ -> Random.State.int rnd range) in
    fun s ->
      t.(List.fold_left (fun acc j -> (acc * Layout.dom layout j) + s.(j)) 0 deps)
  in
  let assigns = List.map (fun w -> (w, table w)) written in
  (* the guard, too, reads a random subset of the slots, so some slots
     are guard reads only and others are not read at all *)
  let density = if b.wide then 90 else b.density in
  let gdeps =
    List.filter (fun _ -> b.wide || Random.State.bool rnd) (List.init nv Fun.id)
  in
  let gsize = List.fold_left (fun acc j -> acc * Layout.dom layout j) 1 gdeps in
  let gtab = Array.init gsize (fun _ -> Random.State.int rnd 100 < density) in
  let guard s =
    gtab.(List.fold_left (fun acc j -> (acc * Layout.dom layout j) + s.(j)) 0 gdeps)
  in
  let noop = Array.init ns (fun _ -> Random.State.int rnd 100 < b.odd) in
  let assign =
    List.map
      (fun (w, f) -> (w, fun s -> if noop.(rank s) then s.(w) else f s))
      assigns
  in
  (layout, act ~label:"big" ~proc:0 guard assign)

(* Distinct written tuples over the enabled results. *)
let distinct_tuples layout (a : Action.t) (info : Rwsets.info) =
  let seen = Hashtbl.create 64 in
  Layout.iter_states layout (fun _ s ->
      if a.Action.guard s then
        let s' = Compile_ref.apply a s in
        Hashtbl.replace seen
          (List.map (fun w -> s'.(w)) info.Rwsets.writes)
          ());
  Hashtbl.length seen

let prop_rwsets_reference_big =
  QCheck2.Test.make ~count:60
    ~name:"Rwsets.of_action = reference on large table-driven actions"
    ~print:print_big gen_big_spec (fun b ->
      let layout, a = act_of_big b in
      let info = Rwsets.of_action layout a in
      ((not b.wide) || distinct_tuples layout a info > 255)
      && Rwsets_ref.fields info = Rwsets_ref.fields (Rwsets_ref.of_action layout a))

(* Codes four bytes wide: 5 slots, 80,000 states, and an action writing
   two slots out of their domains with a distinct pair per state (more
   than 65,535 tuples); and two bytes wide over valid tuples alone:
   three written slots of domain 7, so 343 tuples occur.  There x is
   reset where p = 0 and passes through elsewhere: written, but not
   read, though its lines carry different codes, which only the
   per-pair pass-through test tells apart. *)
let test_rwsets_wide_codes () =
  let layout =
    Layout.make [ ("a", 10); ("b", 10); ("c", 10); ("d", 10); ("e", 8) ]
  in
  let rank = Layout.rank layout in
  let a =
    act ~label:"spread" ~proc:0
      (fun s -> s.(0) <> 9)
      [ (3, fun s -> rank s / 100); (4, fun s -> rank s mod 100) ]
  in
  let info = Rwsets.of_action layout a in
  check "more than 65,535 tuples" true (distinct_tuples layout a info > 65_535);
  check "= reference (4-byte codes)" true
    (Rwsets_ref.fields info = Rwsets_ref.fields (Rwsets_ref.of_action layout a));
  let layout7 =
    Layout.make [ ("p", 7); ("q", 7); ("r", 7); ("x", 7); ("y", 7); ("z", 7) ]
  in
  let b =
    act ~label:"shuffle" ~proc:0
      (fun s -> s.(5) <> 6)
      [
        (3, fun s -> if s.(0) = 0 then 0 else s.(3));
        (4, fun s -> s.(1));
        (5, fun s -> s.(2));
      ]
  in
  let info = Rwsets.of_action layout7 b in
  check "343 valid tuples" true (distinct_tuples layout7 b info = 343);
  check "x written, not read" true
    (List.mem 3 info.Rwsets.writes && not (List.mem 3 info.Rwsets.effect_reads));
  check "= reference (2-byte codes)" true
    (Rwsets_ref.fields info
    = Rwsets_ref.fields (Rwsets_ref.of_action layout7 b))

(* Runs shorter than a word: slot b has weight 7 and domain 11.  [e]
   reads b only in its guard, so b's lines are compared at every
   distance, the farthest a 7-state run; [copy] copies b verbatim, so
   each 7-state run of b = v must hold the code of v.  A word that
   reached past such a run would meet the next block's codes or the
   next value's. *)
let test_rwsets_short_runs () =
  let layout = Layout.make [ ("a", 7); ("b", 11); ("c", 4); ("d", 11) ] in
  let e =
    act ~label:"e" ~proc:0
      (fun s -> s.(1) <> 5)
      [ (3, fun s -> s.(2)) ]
  in
  let copy =
    act ~label:"copy" ~proc:0
      (fun s -> s.(0) <> 3)
      [ (3, fun s -> s.(1)) ]
  in
  List.iter
    (fun (a : Action.t) ->
      let info = Rwsets.of_action layout a in
      check (Action.label a ^ " = reference") true
        (Rwsets_ref.fields info = Rwsets_ref.fields (Rwsets_ref.of_action layout a)))
    [ e; copy ];
  let info = Rwsets.of_action layout e in
  check "e: b is read by the guard alone" true
    (List.mem 1 info.Rwsets.guard_reads
    && not (List.mem 1 info.Rwsets.effect_reads));
  check "copy: b is its copy source" true
    ((Rwsets.of_action layout copy).Rwsets.copy_sources = [ 1 ])

let test_rwsets_reference_registry () =
  List.iter
    (fun (e : Registry.entry) ->
      List.iter
        (fun n ->
          let p = e.Registry.program n in
          let layout = Program.layout p in
          List.iter2
            (fun a (info : Rwsets.info) ->
              check
                (Printf.sprintf "%s n=%d %s" e.Registry.name n (Action.label a))
                true
                (Rwsets_ref.fields info
                = Rwsets_ref.fields (Rwsets_ref.of_action layout a)))
            (Program.actions p) (Rwsets.of_program p))
        [ 2; 3 ])
    Registry.entries

(* ---------- one seeded defect per check ---------- *)

let test_w2 () =
  (* y assigned but never changed: its value is always its own *)
  let a =
    act ~label:"w2bad" ~proc:0
      (fun s -> s.(0) = 0)
      [ (0, fun _ -> 1); (1, fun s -> s.(1)) ]
  in
  let r = Lint.run (prog [ a ]) in
  check "W2 fires" true (fires "W2" r);
  check "W2 is a warning" true (severity_of "W2" r = Lint.Warning);
  check_int "no errors" 0 (Lint.errors r)

let test_p1 () =
  (* slot y written by processes 0 and 1 *)
  let a =
    act ~label:"p1a" ~proc:0
      (fun s -> s.(1) = 0)
      [ (1, fun _ -> 1) ]
  in
  let b =
    act ~label:"p1b" ~proc:1
      (fun s -> s.(1) = 1)
      [ (1, fun _ -> 2) ]
  in
  let r = Lint.run (prog [ a; b ]) in
  check "P1 fires" true (fires "P1" r);
  check "P1 is an error" true (severity_of "P1" r = Lint.Error);
  (* the abstract-model allowlist downgrades it to info *)
  let r' = Lint.run ~allow:[ "P1" ] (prog [ a; b ]) in
  check "P1 allowlisted" true (severity_of "P1" r' = Lint.Info);
  check_int "no errors when allowlisted" 0 (Lint.errors r')

let g1_program () =
  (* one process, two always-enabled actions with different effects *)
  let a1 =
    act ~label:"g1a" ~proc:0
      (fun _ -> true)
      [ (0, fun _ -> 1) ]
  in
  let a2 =
    act ~label:"g1b" ~proc:0
      (fun _ -> true)
      [ (0, fun _ -> 2) ]
  in
  prog ~name:"g1seed" [ a1; a2 ]

let test_g1 () =
  let r = Lint.run (g1_program ()) in
  check "G1 fires" true (fires "G1" r);
  check "G1 is a warning" true (severity_of "G1" r = Lint.Warning);
  (* overlap with identical merged effects is harmless and not flagged:
     the Dijkstra-3 mid actions agree where both are enabled *)
  let r' = Lint.run (Cr_tokenring.Btr3.dijkstra3 2) in
  check "no G1 on dijkstra3" false (fires "G1" r')

let test_d1 () =
  let a =
    act ~label:"d1bad" ~proc:0
      (fun s -> s.(0) = 0)
      [ (0, fun _ -> 7) ]
  in
  let r = Lint.run (prog [ a ]) in
  check "D1 fires" true (fires "D1" r);
  check "D1 is an error" true (severity_of "D1" r = Lint.Error)

let test_u1 () =
  (* full-space dead action *)
  let dead =
    act ~label:"u1dead" ~proc:0
      (fun _ -> false)
      [ (0, fun _ -> 1) ]
  in
  let r = Lint.run (prog [ dead ]) in
  check "U1 fires" true (fires "U1" r);
  check "U1 full-space is a warning" true (severity_of "U1" r = Lint.Warning);
  (* live in the full space, dead from the initial states *)
  let step =
    act ~label:"step" ~proc:0
      (fun s -> s.(0) = 0)
      [ (0, fun _ -> 1) ]
  in
  let unreachable =
    act ~label:"u1reach" ~proc:1
      (fun s -> s.(0) = 2)
      [ (1, fun _ -> 1) ]
  in
  let r' =
    Lint.run
      (prog ~initial:(fun s -> s = [| 0; 0; 0 |]) [ step; unreachable ])
  in
  let u1 = keys "U1" r' in
  check "reachable variant fires" true
    (List.exists
       (fun f -> f.Lint.action = "u1reach" && f.Lint.severity = Lint.Info)
       u1)

let test_s1 () =
  let a =
    act ~label:"s1noop" ~proc:0 (fun _ -> true) [ (0, fun s -> s.(0)) ]
  in
  let r = Lint.run (prog [ a ]) in
  check "S1 fires" true (fires "S1" r);
  check "S1 is a warning" true (severity_of "S1" r = Lint.Warning)

let test_i1 () =
  let writer =
    act ~label:"writer" ~proc:0
      (fun s -> s.(0) = 0)
      [ (0, fun _ -> 1) ]
  in
  (* reads x (proc 0's slot) and derives a new value from it *)
  let derive =
    act ~label:"derive" ~proc:1
      (fun s -> s.(0) = 1)
      [ (1, fun s -> (s.(0) + 1) mod 3) ]
  in
  let r = Lint.run (prog [ writer; derive ]) in
  check "I1 fires on a derived read" true (fires "I1" r);
  check "I1 is info" true (severity_of "I1" r = Lint.Info);
  (* the same read as a verbatim copy into a private slot is an atomic
     read step — the rw_atomicity cache-fill shape — and is exempt *)
  let copy =
    act ~label:"copy" ~proc:1
      (fun s -> s.(1) <> s.(0))
      [ (1, fun s -> s.(0)) ]
  in
  let r' = Lint.run (prog [ writer; copy ]) in
  check "no I1 on an atomic read step" false (fires "I1" r')

let test_l1 () =
  let a =
    act ~label:"dup" ~proc:0
      (fun s -> s.(0) = 0)
      [ (0, fun _ -> 1) ]
  in
  let b =
    act ~label:"dup" ~proc:1
      (fun s -> s.(1) = 0)
      [ (1, fun _ -> 1) ]
  in
  let r = Lint.run (prog [ a; b ]) in
  check "L1 fires" true (fires "L1" r);
  check "L1 is an error" true (severity_of "L1" r = Lint.Error)

(* ---------- the registry is clean ---------- *)

let test_registry_clean () =
  List.iter
    (fun (e : Registry.entry) ->
      let r = Lint.run ~allow:e.Registry.lint_allow (e.Registry.program 2) in
      Alcotest.(check int)
        (e.Registry.name ^ " has no error-severity findings")
        0 (Lint.errors r))
    Registry.entries

(* A closure program (boxed or not) hands lint's exact reachable set
   and flow's init seed its initial states straight from the closure:
   the states, and their order, a predicate sweep over Sigma finds. *)
let test_closure_states_sweep () =
  let module Dom = Cr_flow.Dom in
  let closures = ref [] in
  List.iter
    (fun (e : Registry.entry) ->
      List.iter
        (fun n ->
          let p = e.Registry.program n in
          match Program.closure_states p with
          | None -> ()
          | Some states ->
              closures := e.Registry.name :: !closures;
              let layout = Program.layout p in
              let initial = Program.initial p in
              let swept = ref [] in
              Layout.iter_states layout (fun _ s ->
                  if initial s then swept := Array.copy s :: !swept);
              let swept = List.rev !swept in
              let what = Printf.sprintf "%s n=%d" e.Registry.name n in
              check (what ^ ": closure states = sweep") true (states = swept);
              let fl = Cr_flow.Flow.analyze p in
              if not fl.Cr_flow.Flow.degraded then begin
                let nv = Layout.num_vars layout in
                let seed =
                  Array.init nv (fun i -> Dom.bottom (Layout.dom layout i))
                in
                List.iter
                  (fun s ->
                    Array.iteri (fun i v -> seed.(i) <- Dom.add seed.(i) v) s)
                  swept;
                check (what ^ ": flow init seed = sweep's") true
                  (match fl.Cr_flow.Flow.init_seed with
                  | None -> swept = []
                  | Some sigma ->
                      swept <> [] && Array.for_all2 Dom.equal sigma seed)
              end)
        [ 2; 3; 4 ])
    Registry.entries;
  List.iter
    (fun name ->
      check (name ^ " is a closure program") true (List.mem name !closures))
    [ "dijkstra3"; "c2-wrapped"; "rw-dijkstra3" ];
  (* a closure that leaves the domains: x steps 0, 1, 2, 3 (invalid), 0 *)
  let layout = Layout.make [ ("x", 3) ] in
  let p =
    Program.make ~name:"leaky" ~layout
      ~actions:
        [
          Action.make ~label:"step" ~proc:0
            ~guard:(fun _ -> true)
            ~assign:[ (0, fun s -> (s.(0) + 1) mod 4) ]
            ();
        ]
      ~initial:(fun _ -> false)
    |> Program.with_initial_closure ~seeds:[ [| 0 |] ]
  in
  check "closure states skip the invalid state" true
    (Program.closure_states p = Some [ [| 0 |]; [| 1 |]; [| 2 |] ])

(* Past the exact budget both audits degrade to one B1 finding, also
   when the state count overflows an int (3^62 states for rw-dijkstra3
   at N = 20): no exception, no wrapped count. *)
let test_b1_overflow () =
  let e = Option.get (Registry.find "rw-dijkstra3") in
  let only_b1 what findings =
    match findings with
    | [ f ] ->
        check (what ^ ": B1") true (f.Lint.key = "B1");
        check (what ^ ": count is a lower bound") true
          (String.starts_with f.Lint.message
             ~prefix:
               (Printf.sprintf "state space (more than %d states)" max_int))
    | fs ->
        Alcotest.failf "%s: expected one B1 finding, got %d" what
          (List.length fs)
  in
  let row = Cr_experiments.Lint_exps.audit_entry ~n:20 e in
  only_b1 "lint" row.Cr_experiments.Lint_exps.report.Lint.findings;
  let frow = Cr_experiments.Flow_exps.audit_entry ~n:20 e in
  let fl = frow.Cr_experiments.Flow_exps.flow in
  check "flow degraded" true fl.Cr_flow.Flow.degraded;
  only_b1 "flow" fl.Cr_flow.Flow.findings;
  check "no verdict asked" true (frow.Cr_experiments.Flow_exps.verdict = None);
  ignore (Fmt.str "%a" Cr_experiments.Flow_exps.pp_row frow)

(* E17's interference story: the shared-memory Dijkstra-3 has I1 pairs;
   the read/write-atomicity refinement has none (every remote read is an
   atomic cache-fill copy). *)
let test_interference_refined_away () =
  check "dijkstra3 has interference pairs" true
    (Cr_experiments.Lint_exps.interference_count ~n:2 "dijkstra3" > 0);
  check_int "rw-dijkstra3 has none" 0
    (Cr_experiments.Lint_exps.interference_count ~n:2 "rw-dijkstra3")

(* ---------- synchronous daemon: action-order sensitivity ---------- *)

let sync_equal p q =
  List.for_all
    (fun s -> Program.synchronous_step p s = Program.synchronous_step q s)
    (Layout.enumerate (Program.layout p))

(* Once G1 passes (and no slot is shared between processes — P1 — which
   would make the synchronous merge order-dependent across processes),
   the synchronous semantics is invariant under any action reordering. *)
let sync_clean (e : Registry.entry) p =
  let r = Lint.run ~allow:e.Registry.lint_allow p in
  keys "G1" r = [] && keys "P1" r = []

let test_sync_reorder_invariant () =
  let covered = ref 0 in
  List.iter
    (fun (e : Registry.entry) ->
      let p = e.Registry.program 2 in
      if sync_clean e p then begin
        incr covered;
        let rev = Program.with_actions (List.rev (Program.actions p)) p in
        check
          (e.Registry.name ^ " sync invariant under reversal")
          true (sync_equal p rev)
      end)
    Registry.entries;
  check "at least four G1-clean systems covered" true (!covered >= 4)

let prop_sync_shuffle_invariant =
  QCheck.Test.make ~count:20
    ~name:"dijkstra3: synchronous step invariant under action shuffles"
    QCheck.int (fun seed ->
      let p = Cr_tokenring.Btr3.dijkstra3 2 in
      let rng = Random.State.make [| seed |] in
      let shuffled =
        List.map snd
          (List.sort compare
             (List.map
                (fun a -> (Random.State.bits rng, a))
                (Program.actions p)))
      in
      sync_equal p (Program.with_actions shuffled p))

let test_sync_g1_violator () =
  (* the seeded G1 program really is order-dependent *)
  let p = g1_program () in
  let rev = Program.with_actions (List.rev (Program.actions p)) p in
  check "G1 violator is order-dependent" false (sync_equal p rev)

(* ---------- the JSON artifact ---------- *)

let test_json_artifact () =
  let rows = Cr_experiments.Lint_exps.audit ~n:2 () in
  let body = Cr_experiments.Lint_exps.to_json ~n:2 rows in
  (match Cr_obs.Json_check.validate_string body with
  | Ok () -> ()
  | Error msg -> Alcotest.failf "lint JSON artifact invalid: %s" msg);
  (* messages with quotes/backslashes survive escaping *)
  let weird =
    Lint.report_to_json ~entry:"x"
      {
        Lint.program_name = "p\"q\\r";
        findings =
          [
            {
              Lint.key = "W2";
              severity = Lint.Error;
              provenance = Lint.Exact;
              program = "p\"q\\r";
              action = "a\nb";
              message = "quote \" backslash \\ tab \t";
            };
          ];
        infos = [];
      }
  in
  match Cr_obs.Json_check.validate_string weird with
  | Ok () -> ()
  | Error msg -> Alcotest.failf "escaped JSON invalid: %s" msg

let () =
  Alcotest.run "lint"
    [
      ( "rwsets",
        [
          Alcotest.test_case "exact sets on dijkstra3 top" `Quick
            test_rwsets_exact;
          Alcotest.test_case "copy sources" `Quick test_rwsets_copy_sources;
          QCheck_alcotest.to_alcotest prop_rwsets_reference;
          QCheck_alcotest.to_alcotest prop_rwsets_reference_big;
          Alcotest.test_case "2- and 4-byte codes = reference" `Quick
            test_rwsets_wide_codes;
          Alcotest.test_case "runs shorter than a word = reference" `Quick
            test_rwsets_short_runs;
          Alcotest.test_case "registry programs n=2,3 = reference" `Quick
            test_rwsets_reference_registry;
        ] );
      ( "seeded defects",
        [
          Alcotest.test_case "W2 idle assignment" `Quick test_w2;
          Alcotest.test_case "P1 ownership" `Quick test_p1;
          Alcotest.test_case "G1 sync overlap" `Quick test_g1;
          Alcotest.test_case "D1 domain violation" `Quick test_d1;
          Alcotest.test_case "U1 dead action" `Quick test_u1;
          Alcotest.test_case "S1 stuttering-only" `Quick test_s1;
          Alcotest.test_case "I1 interference" `Quick test_i1;
          Alcotest.test_case "L1 duplicate labels" `Quick test_l1;
        ] );
      ( "registry",
        [
          Alcotest.test_case "all systems error-clean" `Quick
            test_registry_clean;
          Alcotest.test_case "I1 pairs refined away (E17)" `Quick
            test_interference_refined_away;
          Alcotest.test_case "B1 past an overflowing state count" `Quick
            test_b1_overflow;
          Alcotest.test_case "closure programs: initial states = sweep" `Quick
            test_closure_states_sweep;
        ] );
      ( "synchronous order",
        [
          Alcotest.test_case "clean systems reorder-invariant" `Quick
            test_sync_reorder_invariant;
          QCheck_alcotest.to_alcotest prop_sync_shuffle_invariant;
          Alcotest.test_case "seeded G1 violator is order-dependent" `Quick
            test_sync_g1_violator;
        ] );
      ( "json",
        [ Alcotest.test_case "artifact validates" `Quick test_json_artifact ] );
    ]
