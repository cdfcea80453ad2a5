(* Tests of the chunked explicit compiler: domain-chunked
   [Program.to_explicit] must be byte-identical to the sequential path
   for every execution mode, every compile must build the graph of its
   own program (two programs that agree on a sample of states never
   share one), predecessor rows must stay lazy until a backward query
   needs them, and the initial predicate must run once, on the first
   use of the initial states, and never during a compile or a
   stabilization check. *)

open Cr_guarded
module E = Cr_semantics.Explicit
module Par = Cr_kernel.Par

(* ---- random program generation (as in test_guarded_props) ---- *)

type raw_action = {
  proc : int;
  slot : int;
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

let build { doms; acts } =
  let nv = List.length doms in
  let layout =
    Layout.make (List.mapi (fun i d -> (Printf.sprintf "v%d" i, d)) doms)
  in
  let clamp slot v = v mod Layout.dom layout slot in
  let actions =
    List.mapi
      (fun i ra ->
        let slot = ra.slot mod nv and guard_slot = ra.guard_slot mod nv in
        Action.make
          ~label:(Printf.sprintf "a%d" i)
          ~proc:ra.proc
          ~guard:(fun s -> s.(guard_slot) = clamp guard_slot ra.guard_val)
          ~assign:[ (slot, fun _ -> clamp slot ra.write_val) ]
          ())
      acts
  in
  Program.make ~name:"rand" ~layout ~actions ~initial:(fun s -> s.(0) = 0)

(* Equality of compiled graphs: same Sigma, same transitions, same
   initial states (names may differ). *)
let same a b = E.same_transitions a b && E.initials a = E.initials b

(* ---- chunked compilation is byte-identical to sequential ---- *)

let prop_chunked_plain_sync =
  QCheck2.Test.make
    ~name:"chunked compile (jobs=4) = sequential: plain and synchronous"
    ~count:150 gen_prog
    (fun raw ->
      let p = build raw in
      same
        (Par.with_jobs 1 (fun () -> Program.to_explicit p))
        (Par.with_jobs 4 (fun () -> Program.to_explicit p))
      && same
           (Par.with_jobs 1 (fun () -> Program.to_explicit_synchronous p))
           (Par.with_jobs 4 (fun () -> Program.to_explicit_synchronous p)))

let prop_chunked_priority =
  QCheck2.Test.make
    ~name:"chunked compile (jobs=4) = sequential: priority mode" ~count:100
    QCheck2.Gen.(pair gen_prog gen_prog)
    (fun (rb, rw) ->
      let rw = { rw with doms = rb.doms } in
      let combined, is_w = Program.box_priority (build rb) (build rw) in
      same
        (Par.with_jobs 1 (fun () ->
             Program.to_explicit ~priority_of:is_w combined))
        (Par.with_jobs 4 (fun () ->
             Program.to_explicit ~priority_of:is_w combined)))

(* The same invariance through the real environment contract. *)
let test_env_jobs () =
  let p = Cr_tokenring.Btr3.dijkstra3 4 in
  let seq = Par.with_jobs 1 (fun () -> Program.to_explicit p) in
  Unix.putenv "CR_JOBS" "4";
  let par = Program.to_explicit p in
  Unix.putenv "CR_JOBS" "1";
  Alcotest.(check bool) "CR_JOBS=4 graph equals sequential" true (same seq par)

(* ---- streamed compile = the materializing reference ---- *)

(* A table-driven program, all data so that a counterexample prints:
   per action a guard table and, per assigned slot, a table of values by
   rank (a slot's own value is a no-op there), an owning process and a
   wrapper bit; plus an initial-state table.  In one program in four
   the values range one past each end of their slot's domain, so most
   of those programs leave Sigma somewhere.  Off Sigma (a state only a
   closure of such a program holds) every guard is false. *)
type tab_action = {
  tproc : int;
  wrapper : bool;
  gtab : bool array;
  atab : (int * int array) list;
}

type tab_prog = { tdoms : int list; tacts : tab_action list; itab : bool array }

let print_tab_prog p =
  let ints a = String.concat ";" (Array.to_list (Array.map string_of_int a)) in
  let bools a =
    String.concat "" (Array.to_list (Array.map (fun b -> if b then "1" else "0") a))
  in
  Printf.sprintf "doms=[%s] init=%s %s"
    (String.concat ";" (List.map string_of_int p.tdoms))
    (bools p.itab)
    (String.concat " "
       (List.map
          (fun a ->
            Printf.sprintf "{proc=%d%s guard=%s assign=[%s]}" a.tproc
              (if a.wrapper then " W" else "")
              (bools a.gtab)
              (String.concat "; "
                 (List.map
                    (fun (x, t) -> Printf.sprintf "%d := [|%s|]" x (ints t))
                    a.atab)))
          p.tacts))

let gen_tab_prog =
  QCheck2.Gen.(
    (* up to 4^5 states, so that many cases span several 64-state
       words and CR_JOBS = 2, 4 really split the sweep *)
    let* nv = int_range 1 5 in
    let* tdoms = list_repeat nv (int_range 1 4) in
    let dom = Array.of_list tdoms in
    let ns = List.fold_left ( * ) 1 tdoms in
    let* leaky = int_bound 3 in
    let value x =
      if leaky = 0 then int_range (-1) dom.(x) else int_bound (dom.(x) - 1)
    in
    let* na = int_bound 5 in
    let* tacts =
      list_repeat na
        (let* tproc = int_bound 2 in
         let* slots = list_size (int_bound nv) (int_bound (nv - 1)) in
         let* wrapper = bool in
         let* gtab = array_repeat ns bool in
         let* atab =
           flatten_l
             (List.map
                (fun x -> map (fun t -> (x, t)) (array_repeat ns (value x)))
                (List.sort_uniq compare slots))
         in
         return { tproc; wrapper; gtab; atab })
    in
    let* itab = array_repeat ns bool in
    return { tdoms; tacts; itab })

let build_tab p =
  let layout =
    Layout.make (List.mapi (fun i d -> (Printf.sprintf "v%d" i, d)) p.tdoms)
  in
  let at tab s default =
    let r = Layout.checked_rank layout s in
    if r < 0 then default else tab.(r)
  in
  let actions =
    List.mapi
      (fun i a ->
        Action.make ~label:(Printf.sprintf "t%d" i) ~proc:a.tproc
          ~guard:(fun s -> at a.gtab s false)
          ~assign:(List.map (fun (x, t) -> (x, fun s -> at t s s.(x))) a.atab)
          ())
      p.tacts
  in
  let wrappers =
    List.filteri (fun i _ -> (List.nth p.tacts i).wrapper) actions
  in
  ( Program.make ~name:"tab" ~layout ~actions
      ~initial:(fun s -> at p.itab s false),
    fun a -> List.memq a wrappers )

(* Equal CSR and initials, and the index bijection round-trips at every
   index: [state], [find_opt] and the [iter_states] sweep all agree with
   the reference's boxed enumeration. *)
let agrees_with_ref (r : Compile_ref.compiled) e =
  let n = Array.length r.Compile_ref.states in
  let swept = ref 0 in
  E.iter_states e (fun i s ->
      if i = !swept && s = r.Compile_ref.states.(i) then incr swept);
  Cr_kernel.Csr.equal (E.csr e) r.Compile_ref.succ
  && E.initials e = r.Compile_ref.initials
  && E.num_states e = n
  && !swept = n
  && Array.for_all Fun.id
       (Array.mapi
          (fun i s -> E.state e i = s && E.find_opt e s = Some i)
          r.Compile_ref.states)

(* A compile that escapes Sigma agrees with a reference that escapes
   with the same message. *)
let outcome f =
  match f () with v -> Ok v | exception E.Unknown_state msg -> Error msg

let agrees reference compiled =
  match (outcome reference, outcome compiled) with
  | Ok r, Ok e -> agrees_with_ref r e
  | Error a, Error b -> String.equal a b
  | _ -> false

let all_jobs = [ 1; 2; 4 ]

let prop_streamed_eq_reference =
  QCheck2.Test.make
    ~name:"streamed compile = materializing reference: plain, priority, sync"
    ~count:300 ~print:print_tab_prog gen_tab_prog
    (fun raw ->
      let p, is_w = build_tab raw in
      List.for_all
        (fun jobs ->
          let at_jobs f () = Par.with_jobs jobs f in
          agrees
            (fun () -> Compile_ref.compile p)
            (at_jobs (fun () -> Program.to_explicit p))
          && agrees
               (fun () -> Compile_ref.compile ~priority_of:is_w p)
               (at_jobs (fun () -> Program.to_explicit ~priority_of:is_w p))
          && agrees
               (fun () -> Compile_ref.compile ~sync:true p)
               (at_jobs (fun () -> Program.to_explicit_synchronous p)))
        all_jobs)

(* The sparse engine on the same random programs, under every job
   count: discovered from the initial states (ascending ranks), with and
   without wrapper priority; from the initial states' ranks given as
   [?roots]; and, with the initial states replaced by their closure,
   from the closure's seeds -- the graph is the closure in ascending
   rank, what a discovery from the whole sorted closure gives, and an
   escape is the one a discovery from the seeds meets first. *)
let prop_sparse_eq_reference =
  QCheck2.Test.make
    ~name:"sparse discovery = sparse reference: initial, priority, roots, \
           closure"
    ~count:300 ~print:print_tab_prog gen_tab_prog
    (fun raw ->
      let p, is_w = build_tab raw in
      let layout = Program.layout p in
      let seeds =
        Array.of_list
          (List.filter
             (fun r -> raw.itab.(r))
             (List.init (Array.length raw.itab) Fun.id))
      in
      let closed =
        Program.with_initial_closure
          ~seeds:(Array.to_list (Array.map (Layout.unrank layout) seeds))
          p
      in
      let closure () =
        let whole =
          Layout.Tbl.fold
            (fun s () acc ->
              let r = Layout.checked_rank layout s in
              if r < 0 then acc else r :: acc)
            (Program.reachable_from p
               (Array.to_list (Array.map (Layout.unrank layout) seeds)))
            []
          |> List.sort compare |> Array.of_list
        in
        match outcome (fun () -> Compile_ref.compile_sparse ~seeds closed) with
        | Error _ -> Compile_ref.compile_sparse ~seeds closed
        | Ok _ -> Compile_ref.compile_sparse ~seeds:whole closed
      in
      let sparse ?priority_of ?roots q () =
        let e =
          Program.to_explicit ?priority_of ?roots
            ~space:Cr_semantics.Space.Sparse q
        in
        ignore (E.initial_mask e);
        e
      in
      List.for_all
        (fun jobs ->
          let at_jobs f () = Par.with_jobs jobs f in
          agrees
            (fun () -> Compile_ref.compile_sparse ~seeds p)
            (at_jobs (sparse p))
          && agrees
               (fun () -> Compile_ref.compile_sparse ~priority_of:is_w ~seeds p)
               (at_jobs (sparse ~priority_of:is_w p))
          && agrees
               (fun () -> Compile_ref.compile_sparse ~seeds p)
               (at_jobs (sparse ~roots:(Array.append seeds seeds) p))
          && agrees closure (at_jobs (sparse closed)))
        all_jobs)

(* Every registry program at N = 2..4 whose dense space the reference
   can box in a test (rw-dijkstra3 at N = 4 has 3^14 states and is left
   out), interleaving and synchronous, under every job count. *)
let registry_cases =
  List.concat_map
    (fun (e : Cr_experiments.Registry.entry) ->
      List.filter_map
        (fun n ->
          if Layout.num_states (Program.layout (e.program n)) <= 1_000_000 then
            Some (e, n)
          else None)
        [ 2; 3; 4 ])
    Cr_experiments.Registry.entries

(* The initial states are swept on first use: force them under the
   same job count as the compile. *)
let forcing_initials e =
  ignore (E.initial_mask e);
  e

let test_registry_reference ((e : Cr_experiments.Registry.entry), n) () =
  let p = e.program n in
  let plain = Compile_ref.compile p in
  let sync = Compile_ref.compile ~sync:true p in
  List.iter
    (fun jobs ->
      Alcotest.(check bool)
        (Printf.sprintf "%s n=%d jobs=%d: plain = reference" e.name n jobs)
        true
        (agrees_with_ref plain
           (Par.with_jobs jobs (fun () ->
                forcing_initials (Program.to_explicit p))));
      Alcotest.(check bool)
        (Printf.sprintf "%s n=%d jobs=%d: sync = reference" e.name n jobs)
        true
        (agrees_with_ref sync
           (Par.with_jobs jobs (fun () ->
                forcing_initials (Program.to_explicit_synchronous p)))))
    all_jobs

(* ---- closure-seeded sparse compile = the sparse reference ---- *)

let sparse ?priority_of p =
  Program.to_explicit ?priority_of ~space:Cr_semantics.Space.Sparse p

(* The whole closure of [seeds] under [p]'s actions, as ascending dense
   ranks: the sparse reference's seeds. *)
let closure_ranks p seeds =
  let layout = Program.layout p in
  Layout.Tbl.fold
    (fun s () acc -> Layout.rank layout s :: acc)
    (Program.reachable_from p seeds)
    []
  |> List.sort compare |> Array.of_list

let closure_cases =
  List.concat_map
    (fun (e : Cr_experiments.Registry.entry) ->
      List.filter_map
        (fun n ->
          Option.map
            (fun seeds -> (e, n, seeds))
            (Program.closure_seeds (e.program n)))
        [ 2; 3; 4 ])
    Cr_experiments.Registry.entries

(* The registry's closure programs are exactly the unboxed rings, the
   specs BTR and UTR included: the wrapped compositions step by more
   actions than their closure was taken over, and the K-state ring has
   an initial predicate. *)
let test_closure_programs () =
  Alcotest.(check (list string))
    "closure-seeded registry programs"
    [ "btr"; "c1"; "c2"; "c3"; "dijkstra3"; "dijkstra4"; "rw-dijkstra3"; "utr" ]
    (List.sort_uniq compare
       (List.map
          (fun ((e : Cr_experiments.Registry.entry), _, _) -> e.name)
          closure_cases))

(* Discovered from the closure's seeds alone, the graph is the one a
   discovery from the whole sorted closure gives: same state order,
   transitions and (all-true) initial mask, for every job count. *)
let test_closure_seeded ((e : Cr_experiments.Registry.entry), n, seeds) () =
  let p = e.program n in
  let reference = Compile_ref.compile_sparse ~seeds:(closure_ranks p seeds) p in
  Alcotest.(check int)
    "every closure state initial"
    (Array.length reference.Compile_ref.states)
    (Array.length reference.Compile_ref.initials);
  List.iter
    (fun jobs ->
      Alcotest.(check bool)
        (Printf.sprintf "%s n=%d jobs=%d: closure-seeded = reference" e.name n
           jobs)
        true
        (agrees_with_ref reference (Par.with_jobs jobs (fun () -> sparse p))))
    all_jobs

(* ---- initial- and root-seeded sparse compiles = the sparse reference ---- *)

(* Every registry program without closure seeds at N = 2..4, discovered
   from its initial states: the reference seeds from the ascending ranks
   of the states its initial predicate accepts, swept over Sigma. *)
let initial_cases =
  List.concat_map
    (fun (e : Cr_experiments.Registry.entry) ->
      List.filter_map
        (fun n ->
          if Program.closure_seeds (e.program n) = None then Some (e, n)
          else None)
        [ 2; 3; 4 ])
    Cr_experiments.Registry.entries

let test_initial_seeded ((e : Cr_experiments.Registry.entry), n) () =
  let p = e.program n in
  let seeds = ref [] in
  Layout.iter_states (Program.layout p) (fun r s ->
      if Program.initial p s then seeds := r :: !seeds);
  let reference =
    Compile_ref.compile_sparse ~seeds:(Array.of_list (List.rev !seeds)) p
  in
  List.iter
    (fun jobs ->
      Alcotest.(check bool)
        (Printf.sprintf "%s n=%d jobs=%d: initial-seeded = reference" e.name n
           jobs)
        true
        (agrees_with_ref reference
           (Par.with_jobs jobs (fun () -> forcing_initials (sparse p)))))
    all_jobs

(* Every registry spec at N = 2..4 discovered from the α-images of its
   system's sparse compile, the roots [Registry.refining] seeds it
   from. *)
let roots_cases =
  List.concat_map
    (fun (e : Cr_experiments.Registry.entry) ->
      List.map (fun n -> (e, n)) [ 2; 3; 4 ])
    Cr_experiments.Registry.entries

let test_roots_seeded ((e : Cr_experiments.Registry.entry), n) () =
  let spec = e.spec n in
  let layout = Program.layout spec in
  let images = ref [] in
  E.iter_states (sparse (e.program n)) (fun _ s ->
      images :=
        Layout.rank layout (Cr_semantics.Abstraction.apply (e.alpha n) s)
        :: !images);
  let roots = Array.of_list (List.sort_uniq compare !images) in
  let reference = Compile_ref.compile_sparse ~seeds:roots spec in
  List.iter
    (fun jobs ->
      Alcotest.(check bool)
        (Printf.sprintf "%s n=%d jobs=%d: root-seeded spec = reference" e.name
           n jobs)
        true
        (agrees_with_ref reference
           (Par.with_jobs jobs (fun () ->
                forcing_initials
                  (Program.to_explicit ~roots ~space:Cr_semantics.Space.Sparse
                     spec)))))
    all_jobs

(* Variants whose step relation is not the one the closure was taken
   over seed from the whole closure.  Each is built so that the
   shortcut would show: the escape action leaves the closure (new
   states, not initial), and dropping [top] shrinks the orbit of the
   seeds below the closure. *)
let test_closure_variants () =
  let n = 3 in
  let p = Cr_tokenring.Btr3.dijkstra3 n in
  let seeds = Option.get (Program.closure_seeds p) in
  let layout = Program.layout p in
  let escape =
    Program.make ~name:"escape" ~layout
      ~actions:
        [
          Action.make ~label:"bump0" ~proc:0
            ~guard:(fun _ -> true)
            ~assign:[ (0, fun s -> (s.(0) + 1) mod 3) ]
            ();
        ]
      ~initial:(fun _ -> false)
  in
  let boxed = Program.box p escape in
  let fewer = Program.with_actions (List.tl (Program.actions p)) p in
  let prio, is_w = Program.box_priority p escape in
  let roots = closure_ranks p seeds in
  List.iter
    (fun (label, q, priority_of) ->
      Alcotest.(check bool)
        (label ^ ": no closure seeds") true
        (Program.closure_seeds q = None);
      let reference = Compile_ref.compile_sparse ?priority_of ~seeds:roots q in
      List.iter
        (fun jobs ->
          Alcotest.(check bool)
            (Printf.sprintf "%s jobs=%d: = reference from the closure" label
               jobs)
            true
            (agrees_with_ref reference
               (Par.with_jobs jobs (fun () -> sparse ?priority_of q))))
        all_jobs)
    [ ("boxed", boxed, None); ("with_actions", fewer, None);
      ("priority", prio, Some is_w) ];
  (* [priority_of] over the closure program's own action list: x = 0
     steps to 1 or 2, and the wrapper step to 1 preempts the other, so
     the seed's orbit under priority ({0, 1}) is smaller than the
     closure ({0, 1, 2}) the initial set was taken over *)
  let tiny =
    let layout = Layout.make [ ("x", 3) ] in
    let step label v =
      Action.make ~label ~proc:0
        ~guard:(fun s -> s.(0) = 0)
        ~assign:[ (0, fun _ -> v) ]
        ()
    in
    Program.make ~name:"tiny" ~layout
      ~actions:[ step "to1" 1; step "to2" 2 ]
      ~initial:(fun _ -> false)
    |> Program.with_initial_closure ~seeds:[ [| 0 |] ]
  in
  let priority_of a = Action.label a = "to1" in
  let reference =
    Compile_ref.compile_sparse ~priority_of ~seeds:[| 0; 1; 2 |] tiny
  in
  Alcotest.(check bool)
    "priority over the closure's own actions: = reference from the closure"
    true
    (agrees_with_ref reference
       (Par.with_jobs 1 (fun () -> sparse ~priority_of tiny)))

(* An effect that leaves Sigma is reported exactly as the reference
   reports it, from whichever chunk the escaping state falls in. *)
let test_escape_message () =
  (* 384 states: six 64-state words, so jobs = 2 and 4 split the sweep;
     the first escape is at rank 142, in the third word *)
  let layout = Layout.make [ ("x", 2); ("y", 4); ("z", 3); ("w", 16) ] in
  let escaping =
    Action.make ~label:"escape" ~proc:0
      ~guard:(fun s -> s.(2) = 2 && s.(1) = 3 && s.(3) >= 5)
      ~assign:[ (1, fun _ -> 4) ]
      ()
  in
  let step_x =
    Action.make ~label:"flip" ~proc:1
      ~guard:(fun _ -> true)
      ~assign:[ (0, fun s -> 1 - s.(0)) ]
      ()
  in
  let p =
    Program.make ~name:"leaky" ~layout ~actions:[ step_x; escaping ]
      ~initial:(fun _ -> true)
  in
  let message f =
    match f () with
    | _ -> None
    | exception E.Unknown_state msg -> Some msg
  in
  List.iter
    (fun (label, reference, streamed) ->
      let expected = message reference in
      Alcotest.(check bool) (label ^ ": reference raises") true (expected <> None);
      List.iter
        (fun jobs ->
          Alcotest.(check (option string))
            (Printf.sprintf "%s jobs=%d: same Unknown_state message" label jobs)
            expected
            (message (fun () -> Par.with_jobs jobs streamed)))
        all_jobs)
    [
      ( "plain",
        (fun () -> Compile_ref.compile p),
        fun () -> Program.to_explicit p );
      ( "sync",
        (fun () -> Compile_ref.compile ~sync:true p),
        fun () -> Program.to_explicit_synchronous p );
    ]

(* A boxed closure program whose closure leaves Sigma (x steps 0, 1, 2,
   then 3): the sparse compile seeds from the closure's valid states, so
   both engines fail at the escaping step with the same Unknown_state,
   not the sparse one on the closure's invalid state as a seed. *)
let test_closure_escape () =
  let layout = Layout.make [ ("x", 3) ] in
  let program name action =
    Program.make ~name ~layout ~actions:[ action ] ~initial:(fun _ -> false)
  in
  let step =
    Action.make ~label:"step" ~proc:0
      ~guard:(fun _ -> true)
      ~assign:[ (0, fun s -> (s.(0) + 1) mod 4) ]
      ()
  in
  let never =
    Action.make ~label:"never" ~proc:0
      ~guard:(fun _ -> false)
      ~assign:[ (0, fun s -> s.(0)) ]
      ()
  in
  let p =
    Program.box
      (program "leaky" step |> Program.with_initial_closure ~seeds:[ [| 0 |] ])
      (program "never" never)
  in
  let message f =
    match f () with
    | _ -> None
    | exception E.Unknown_state msg -> Some msg
  in
  List.iter
    (fun space ->
      Alcotest.(check (option string))
        (Cr_semantics.Space.engine_name space ^ ": fails at the escaping step")
        (Some "leaky[]never: step produced a state outside Sigma: {x=3}")
        (message (fun () -> Program.to_explicit ~space p)))
    [ Cr_semantics.Space.Dense; Cr_semantics.Space.Sparse ]

(* ---- state counts past what an array or an int can index ---- *)

(* [bits] binary slots; one action flips slot 0, and the initial states
   are the closure of the all-zero state, so the reachable fragment has
   two states whatever the size of Sigma (and the sparse engine seeds
   from the closure instead of scanning Sigma). *)
let flip_program bits =
  let layout = Layout.make (List.init bits (fun i -> (Printf.sprintf "b%d" i, 2))) in
  let flip =
    Action.make ~label:"flip" ~proc:0
      ~guard:(fun _ -> true)
      ~assign:[ (0, fun s -> 1 - s.(0)) ]
      ()
  in
  Program.make ~name:(Printf.sprintf "flip%d" bits) ~layout ~actions:[ flip ]
    ~initial:(fun _ -> false)
  |> Program.with_initial_closure ~seeds:[ Array.make bits 0 ]

(* 2^60 states, two of them reachable: the sparse compile reads only
   those two, and no step of theirs leaves Sigma. *)
let test_sparse_2_60 () =
  let e = Program.to_explicit ~space:Cr_semantics.Space.Sparse (flip_program 60) in
  Alcotest.(check int) "two reachable states" 2 (E.num_states e);
  Alcotest.(check (list (pair int int)))
    "one flip each way" [ (0, 1); (1, 0) ]
    (E.fold_edges e (fun i j acc -> (i, j) :: acc) [] |> List.rev)

let too_large f =
  match f () with
  | _ -> None
  | exception Cr_semantics.Space.Too_large msg -> Some msg

let test_dense_refuses () =
  Alcotest.(check (option string))
    "2^60 states: more than a lane holds"
    (Some
       "flip60: the dense engine cannot index 1152921504606846976 states (at \
        most 2147483647 states)")
    (too_large (fun () -> Program.to_explicit (flip_program 60)));
  Alcotest.(check (option string))
    "2^70 states: the count saturates, worded like lint's B1"
    (Some
       (Printf.sprintf
          "flip70[sync]: the dense engine cannot index more than %d states \
           (at most 2147483647 states)"
          max_int))
    (too_large (fun () -> Program.to_explicit_synchronous (flip_program 70)));
  Alcotest.(check bool)
    "2^70 states: ranks overflow, so the sparse engine refuses too" true
    (too_large (fun () ->
         Program.to_explicit ~space:Cr_semantics.Space.Sparse (flip_program 70))
    <> None)

(* [bits] boolean slots and [k] actions, action [a] flipping slot [a]. *)
let flips_program bits k =
  let layout = Layout.make (List.init bits (fun i -> (Printf.sprintf "b%d" i, 2))) in
  let flip a =
    Action.make ~label:(Printf.sprintf "flip%d" a) ~proc:a
      ~guard:(fun _ -> true)
      ~assign:[ (a, fun s -> 1 - s.(a)) ]
      ()
  in
  Program.make ~name:(Printf.sprintf "flips%d" bits) ~layout
    ~actions:(List.init k flip) ~initial:(fun _ -> false)

(* The lane bounds, each refused before the compile allocates: the
   graph they ask for would take 8 GiB or more of lanes. *)
let test_lane_bounds () =
  let refused what want f =
    let before = Gc.allocated_bytes () in
    Alcotest.(check (option string)) what (Some want) (too_large f);
    Alcotest.(check bool)
      (what ^ ": refused without allocating the graph") true
      (Gc.allocated_bytes () -. before < 1e6)
  in
  refused "2^31 states: one more than a lane indexes"
    "flip31: the dense engine cannot index 2147483648 states (at most \
     2147483647 states)"
    (fun () -> Program.to_explicit (flip_program 31));
  refused "2^28 states at 8 edge lanes each: 2^31 lanes"
    "flips28: the dense engine cannot index 268435456 states (at most \
     268435455 states with 8 actions)"
    (fun () -> Program.to_explicit (flips_program 28 8))

(* ---- every compile builds its own program's graph ---- *)

let test_compiles_agree () =
  let e1 = Program.to_explicit (Cr_tokenring.Btr.program 3) in
  let e2 = Program.to_explicit (Cr_tokenring.Btr.program 3) in
  Alcotest.(check bool) "identical graphs" true (same e1 e2);
  Alcotest.(check bool)
    "each compile builds its own successor rows" false (E.csr e1 == E.csr e2)

(* A closure-seeded compile is renumbered in ascending rank; a compile
   from the same seeds given as [?roots] keeps discovery order.  Two
   index orders of one graph: whichever is compiled first, each keeps
   its own. *)
let test_closure_and_roots_orders () =
  let p = Cr_tokenring.Btr3.dijkstra3 3 in
  let roots =
    Array.of_list
      (List.map (Layout.rank (Program.layout p))
         (Option.get (Program.closure_seeds p)))
  in
  let sparse ?roots () =
    Program.to_explicit ?roots ~space:Cr_semantics.Space.Sparse p
  in
  let closure () = sparse () and from_roots () = sparse ~roots () in
  let fresh_closure = closure () in
  let fresh_roots = from_roots () in
  Alcotest.(check bool)
    "the two index orders differ" false
    (E.same_transitions fresh_closure fresh_roots);
  List.iter
    (fun closure_first ->
      let label = if closure_first then "closure first" else "roots first" in
      let c, r =
        if closure_first then
          let c = closure () in
          (c, from_roots ())
        else
          let r = from_roots () in
          (closure (), r)
      in
      Alcotest.(check bool)
        (label ^ ": closure-seeded graph") true (same c fresh_closure);
      Alcotest.(check bool) (label ^ ": roots graph") true (same r fresh_roots))
    [ true; false ]

(* Two programs that differ only in their initial predicate: the same
   transitions, each graph with its own initial states. *)
let test_own_initials () =
  let p = Cr_tokenring.Btr.program 3 in
  let q = Program.with_initial (fun s -> s.(0) = 1) p in
  let ep = Program.to_explicit p in
  let eq = Program.to_explicit q in
  Alcotest.(check bool)
    "same transitions across initial predicates" true
    (E.same_transitions ep eq);
  let expected_initials e pred =
    Array.for_all (fun i -> pred (E.state e i)) (E.initials e)
  in
  Alcotest.(check bool)
    "each graph obeys its own program's initial predicate" true
    (expected_initials eq (fun s -> s.(0) = 1)
    && E.initials ep <> E.initials eq)

(* Nine boolean slots (512 states) and two programs named [p] whose one
   [flip] action differs only in its guard: [true], or [b0 = 0 || b1 =
   0], which is false exactly where b0 = b1 = 1, on odd ranks only, so
   no key that samples the even ranks tells them apart.  In either
   order, on the dense, synchronous and root-seeded sparse routes, each
   graph keeps its own transition count. *)
let test_near_identical_programs () =
  let layout = Layout.make (List.init 9 (fun i -> (Printf.sprintf "b%d" i, 2))) in
  let program guard =
    let flip =
      Action.make ~label:"flip" ~proc:0 ~guard
        ~assign:[ (8, fun s -> 1 - s.(8)) ]
        ()
    in
    Program.make ~name:"p" ~layout ~actions:[ flip ] ~initial:(fun _ -> true)
  in
  let always = (program (fun _ -> true), 512) in
  let mostly = (program (fun s -> s.(0) = 0 || s.(1) = 0), 384) in
  let roots = Array.init 512 Fun.id in
  List.iter
    (fun (route, compile) ->
      List.iter
        (fun ((p1, n1), (p2, n2)) ->
          let e1 = compile p1 in
          let e2 = compile p2 in
          Alcotest.(check (pair int int))
            (Printf.sprintf "%s: %d then %d transitions" route n1 n2)
            (n1, n2)
            (E.num_transitions e1, E.num_transitions e2))
        [ (always, mostly); (mostly, always) ])
    [
      ("dense", fun p -> Program.to_explicit p);
      ("synchronous", fun p -> Program.to_explicit_synchronous p);
      ( "sparse from every root",
        fun p -> Program.to_explicit ~roots ~space:Cr_semantics.Space.Sparse p );
    ]

(* A step that leaves Sigma only from a state the sparse discovery
   never reaches (y := 2 at y = 1, from x = y = 0): the sparse compile
   succeeds on the two reachable states.  The dense compile visits the
   escaping state and fails, with one message, also after the same
   program with that step disabled was compiled. *)
let test_unreached_escape () =
  let layout = Layout.make [ ("x", 3); ("y", 2) ] in
  let set label slot ~at v =
    Action.make ~label ~proc:slot
      ~guard:(fun s -> s.(slot) = at)
      ~assign:[ (slot, fun _ -> v) ]
      ()
  in
  let program y_at =
    Program.make ~name:"p" ~layout
      ~actions:[ set "x1" 0 ~at:0 1; set "y2" 1 ~at:y_at 2 ]
      ~initial:(fun s -> s.(0) = 0 && s.(1) = 0)
  in
  let p = program 1 and disabled = program 2 in
  let message f =
    match f () with _ -> None | exception E.Unknown_state msg -> Some msg
  in
  List.iter
    (fun (label, compile) ->
      let e = compile Cr_semantics.Space.Sparse p in
      Alcotest.(check (pair int int))
        (label ^ ": 2 states, 1 transition") (2, 1)
        (E.num_states e, E.num_transitions e);
      let dense () = message (fun () -> compile Cr_semantics.Space.Dense p) in
      let first = dense () in
      Alcotest.(check bool) (label ^ ": dense raises") true (first <> None);
      ignore (compile Cr_semantics.Space.Dense disabled);
      Alcotest.(check (option string))
        (label ^ ": the same message after the disabled step's compile") first
        (dense ()))
    [
      ("plain", fun space p -> Program.to_explicit ~space p);
      ("sync", fun space p -> Program.to_explicit_synchronous ~space p);
    ]

(* Compiles of random programs agree with the step function. *)
let prop_agrees_with_step =
  QCheck2.Test.make ~name:"compile agrees with step function" ~count:200
    gen_prog
    (fun raw ->
      let p = build raw in
      let e = Program.to_explicit p in
      let ok = ref true in
      List.iter
        (fun s ->
          let i = E.find e s in
          let expected =
            Program.step p s
            |> List.filter (fun s' -> s' <> s)
            |> List.map (E.find e)
            |> List.sort_uniq compare
          in
          let actual = Array.to_list (E.successors e i) in
          if expected <> actual then ok := false)
        (Layout.enumerate (Program.layout p));
      !ok)

(* ---- lazy predecessors ---- *)

let test_lazy_pred () =
  let e = Program.to_explicit (Cr_tokenring.Btr3.dijkstra3 3) in
  Alcotest.(check bool) "pred not forced by compile" false (E.pred_forced e);
  ignore (E.successors e 0);
  ignore (E.num_transitions e);
  Alcotest.(check bool)
    "forward queries leave pred lazy" false (E.pred_forced e);
  ignore (E.predecessors e 0);
  Alcotest.(check bool) "backward query forces pred" true (E.pred_forced e);
  (* the transpose is consistent with the successor rows *)
  let n = E.num_states e in
  let ok = ref true in
  for i = 0 to n - 1 do
    Array.iter
      (fun j ->
        if not (Array.exists (fun i' -> i' = i) (E.predecessors e j)) then
          ok := false)
      (E.successors e i)
  done;
  for j = 0 to n - 1 do
    Array.iter
      (fun i -> if not (E.has_edge e i j) then ok := false)
      (E.predecessors e j)
  done;
  Alcotest.(check bool) "pred = transpose of succ" true !ok

(* A stabilization check never reads the transpose: the verdict is
   decided in one forward pass. *)
let test_stabilization_leaves_pred_lazy () =
  let e = Option.get (Cr_experiments.Registry.find "dijkstra3") in
  let ep = Cr_experiments.Registry.explicit e 3 in
  let r = Cr_experiments.Registry.stabilization ~ep e 3 () in
  Alcotest.(check bool) "dijkstra3 stabilizes" true r.Cr_core.Stabilize.holds;
  Alcotest.(check bool)
    "pred not forced by a stabilization check" false (E.pred_forced ep)

(* ---- lazy initial states ---- *)

(* dijkstra3 at N = 3 with an initial predicate that counts its calls
   (an atomic counter: a chunked sweep calls it on several domains). *)
let counting_dijkstra3 () =
  let calls = Atomic.make 0 in
  let one_token = Cr_tokenring.Btr3.one_token 3 in
  ( Program.with_initial
      (fun s ->
        Atomic.incr calls;
        one_token s)
      (Cr_tokenring.Btr3.dijkstra3 3),
    calls )

let test_lazy_initials () =
  let p, calls = counting_dijkstra3 () in
  let e = Program.to_explicit p in
  Alcotest.(check int) "a dense compile calls it 0 times" 0 (Atomic.get calls);
  let entry = Option.get (Cr_experiments.Registry.find "dijkstra3") in
  let r =
    Cr_experiments.Registry.stabilizing ~alpha:(entry.alpha 3) e
      (entry.spec 3) ()
  in
  Alcotest.(check bool) "stabilizes" true r.Cr_core.Stabilize.holds;
  Alcotest.(check int) "a stabilization check calls it 0 times" 0
    (Atomic.get calls);
  let inits = E.initials e in
  Alcotest.(check int)
    "the first initials call sweeps every state once" (E.num_states e)
    (Atomic.get calls);
  ignore (E.initials e);
  ignore (E.initial_mask e);
  ignore (E.is_initial e 0);
  Alcotest.(check int) "and it is never called again" (E.num_states e)
    (Atomic.get calls);
  Alcotest.(check (array int))
    "the swept states are the one-token states"
    (Compile_ref.compile p).Compile_ref.initials inits

let () =
  Alcotest.run "compile"
    [
      ( "chunking",
        List.map QCheck_alcotest.to_alcotest
          [ prop_chunked_plain_sync; prop_chunked_priority ]
        @ [ Alcotest.test_case "env CR_JOBS=4" `Quick test_env_jobs ] );
      ( "own graph",
        [
          Alcotest.test_case "two compiles give identical graphs" `Quick
            test_compiles_agree;
          Alcotest.test_case "each graph keeps its own initial states" `Quick
            test_own_initials;
          Alcotest.test_case "closure and roots compiles keep their orders"
            `Quick test_closure_and_roots_orders;
          Alcotest.test_case "programs that differ on odd ranks only" `Quick
            test_near_identical_programs;
          Alcotest.test_case "an escape the discovery never reaches" `Quick
            test_unreached_escape;
        ]
        @ List.map QCheck_alcotest.to_alcotest [ prop_agrees_with_step ] );
      ( "reference",
        List.map QCheck_alcotest.to_alcotest
          [ prop_streamed_eq_reference; prop_sparse_eq_reference ]
        @ Alcotest.test_case "escaping effect: same Unknown_state" `Quick
            test_escape_message
          :: Alcotest.test_case "escaping closure: same Unknown_state" `Quick
               test_closure_escape
          :: List.map
               (fun ((e : Cr_experiments.Registry.entry), n) ->
                 Alcotest.test_case
                   (Printf.sprintf "registry %s n=%d" e.name n)
                   `Quick
                   (test_registry_reference (e, n)))
               registry_cases );
      ( "closure",
        Alcotest.test_case "closure programs of the registry" `Quick
          test_closure_programs
        :: Alcotest.test_case "boxed, with_actions and priority variants"
             `Quick test_closure_variants
        :: List.map
             (fun (((e : Cr_experiments.Registry.entry), n, _) as c) ->
               Alcotest.test_case
                 (Printf.sprintf "closure-seeded %s n=%d" e.name n)
                 `Quick (test_closure_seeded c))
             closure_cases
        @ List.map
            (fun (((e : Cr_experiments.Registry.entry), n) as c) ->
              Alcotest.test_case
                (Printf.sprintf "initial-seeded %s n=%d" e.name n)
                `Quick (test_initial_seeded c))
            initial_cases
        @ List.map
            (fun (((e : Cr_experiments.Registry.entry), n) as c) ->
              Alcotest.test_case
                (Printf.sprintf "root-seeded spec of %s n=%d" e.name n)
                `Quick (test_roots_seeded c))
            roots_cases );
      ( "overflow",
        [
          Alcotest.test_case "a sparse compile of a 2^60-state space" `Quick
            test_sparse_2_60;
          Alcotest.test_case "dense engine refuses unindexable spaces" `Quick
            test_dense_refuses;
          Alcotest.test_case "past 2^31 - 1 states or edge lanes" `Quick
            test_lane_bounds;
        ] );
      ( "lazy-pred",
        [
          Alcotest.test_case "forced only on backward use" `Quick
            test_lazy_pred;
          Alcotest.test_case "a stabilization check leaves it lazy" `Quick
            test_stabilization_leaves_pred_lazy;
        ] );
      ( "lazy-init",
        [
          Alcotest.test_case "swept once, on first use only" `Quick
            test_lazy_initials;
        ] );
    ]
