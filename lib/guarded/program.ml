(* A guarded-command program over a layout: the uniform substrate for
   every system in the paper (rings, wrappers and their compositions). *)

module Space = Cr_semantics.Space

type state = Layout.state

(* What [with_initial_closure] records: its seeds, the action list it
   closes them over, and the closure itself (computed on first use). *)
type closure = {
  seeds : state list;
  over : Action.t list;
  states : unit -> unit Layout.Tbl.t;
}

type t = {
  name : string;
  layout : Layout.t;
  actions : Action.t list;
  initial : state -> bool;
  (* Set by [with_initial_closure]: the initial states are the closure
     of [seeds] under [over], so the sparse engine seeds its BFS from
     them instead of scanning Sigma for the predicate. *)
  closure : closure option;
}

(* A slot outside the layout would otherwise surface as a bare index
   error in the middle of a compile. *)
let check_slots ~name layout actions =
  List.iter
    (fun a ->
      List.iter
        (fun x ->
          if x < 0 || x >= Layout.num_vars layout then
            invalid_arg
              (Printf.sprintf "Program %s: action %s assigns slot %d outside \
                               the layout" name (Action.label a) x))
        (Action.writes a))
    actions

let make ~name ~layout ~actions ~initial =
  check_slots ~name layout actions;
  { name; layout; actions; initial; closure = None }

let name t = t.name
let layout t = t.layout
let actions t = t.actions
let initial t = t.initial
let rename n t = { t with name = n }
let with_initial initial t = { t with initial; closure = None }
let with_actions actions t =
  check_slots ~name:t.name t.layout actions;
  { t with actions }

(* Distinct owning processes (>= 0) of the program's actions, sorted.
   Global wrapper actions (proc -1) are not listed. *)
let procs t =
  List.filter_map
    (fun a ->
      let p = Action.proc a in
      if p >= 0 then Some p else None)
    t.actions
  |> List.sort_uniq compare

let same_layout t1 t2 =
  (* Layouts are compared structurally via their printed variables. *)
  Layout.num_vars t1.layout = Layout.num_vars t2.layout
  && List.for_all
       (fun i ->
         Layout.dom t1.layout i = Layout.dom t2.layout i
         && String.equal (Layout.var_name t1.layout i) (Layout.var_name t2.layout i))
       (List.init (Layout.num_vars t1.layout) (fun i -> i))

(* The paper's box operator []: union of the actions.  Initial states are
   those of the left (base) operand. *)
let box ?name t1 t2 =
  if not (same_layout t1 t2) then
    invalid_arg "Program.box: incompatible layouts";
  let name = match name with Some n -> n | None -> t1.name ^ "[]" ^ t2.name in
  { t1 with name; actions = t1.actions @ t2.actions }

let box_list ?name base wrappers =
  let t = List.fold_left (fun acc w -> box acc w) base wrappers in
  match name with Some n -> { t with name = n } | None -> t

(* Transitions enabled at [s]: (action, successor) pairs, no-ops dropped. *)
let firings t s =
  List.filter_map
    (fun a -> Option.map (fun s' -> (a, s')) (Action.fire a s))
    t.actions

let step t s = List.map snd (firings t s)

(* Box with wrapper priority: wrapper actions preempt the base
   program's actions wherever one can fire (see [to_explicit]). *)
let box_priority ?name base wrapper =
  if not (same_layout base wrapper) then
    invalid_arg "Program.box_priority: incompatible layouts";
  let name =
    match name with Some n -> n | None -> base.name ^ "[]!" ^ wrapper.name
  in
  let combined = { base with name; actions = base.actions @ wrapper.actions } in
  (* classify by physical identity: the combined program shares the very
     action values of its operands, and labels may collide between base
     and wrapper *)
  let is_wrapper a = List.memq a wrapper.actions in
  (combined, is_wrapper)

(* Synchronous (distributed-daemon) semantics: in each step, every process
   with an enabled action fires simultaneously; guards read the old state
   and the assigned slots of each chosen action are merged (first
   enabled action per process).  The resulting system is deterministic.
   Only meaningful for programs whose actions write their own process's
   variables (the paper's concrete systems). *)
let synchronous_step t s =
  let seen = Hashtbl.create 8 in
  let chosen =
    List.filter
      (fun (a, _) ->
        let pr = Action.proc a in
        if Hashtbl.mem seen pr then false
        else begin
          Hashtbl.add seen pr ();
          true
        end)
      (firings t s)
  in
  match chosen with
  | [] -> None
  | _ ->
      let s' = Array.copy s in
      List.iter
        (fun (a, target) ->
          List.iter (fun slot -> s'.(slot) <- target.(slot)) (Action.writes a))
        chosen;
      if Array.for_all2 Int.equal s s' then None else Some s'

(* ------------------------------------------------------------------ *)
(* Explicit compilation: allocation-lean and domain-chunked.          *)
(* ------------------------------------------------------------------ *)

(* Execution modes a program compiles under.  [Priority bits] carries,
   per action (in list order), whether it is a preempting wrapper
   action. *)
type mode = Plain | Priority of bool array | Sync

let mode_name ~mode t =
  match mode with Sync -> t.name ^ "[sync]" | Plain | Priority _ -> t.name

let escape_error ~name ~layout s' =
  Cr_semantics.Explicit.Unknown_state
    (Fmt.str "%s: step produced a state outside Sigma: %a" name
       (Layout.pp_state layout) s')

(* Rank a successor, raising exactly like the generic compiler would on
   a step that escapes Sigma. *)
let rank_checked ~name layout s' =
  let j = Layout.checked_rank layout s' in
  if j >= 0 then j else raise (escape_error ~name ~layout s')

(* Every slot's mixed-radix weight and domain, by slot. *)
let radix layout =
  let nv = Layout.num_vars layout in
  (Array.init nv (Layout.weight layout), Array.init nv (Layout.dom layout))

(* The rank of the state [a]'s assignment leads to from the valid state
   [s] of rank [i], without building it: [i] plus [(v - s.(x)) * weight
   x] per assignment [x := v] -- [i] itself on a no-op ([rank] is
   injective on valid states), [-1] once a value leaves its slot's
   domain.  The guard is not tested. *)
let target ~weight ~dom (a : Action.t) s i =
  let j = ref i in
  for k = 0 to Array.length a.Action.assign - 1 do
    let x, e = a.Action.assign.(k) in
    let v = e s in
    if !j >= 0 then
      j := if v < 0 || v >= dom.(x) then -1 else !j + ((v - s.(x)) * weight.(x))
  done;
  !j

(* [target], failing like [rank_checked] on an assignment that leaves
   Sigma.  Only then is the post-state built ([Action.fire] returns it:
   a value outside its domain differs from the pre-state's). *)
let target_checked ~name layout ~weight ~dom a s i =
  let j = target ~weight ~dom a s i in
  if j >= 0 then j else rank_checked ~name layout (Option.get (Action.fire a s))

(* Per-chunk successor-key emitter shared by both engines: guard test and
   rank delta per action, no state built, no firing lists, no per-state
   rows.  [i] is the state's own dense rank, so dropping [j = i] is
   exactly the no-op test of [Action.fire].  Under [Priority], wrapper
   firings preempt base firings, and a wrapper whose assignment is a
   no-op does not count as a wrapper move (matching [firings], which
   drops no-ops before the preemption test). *)
let step_keys ~mode t () =
  let layout = t.layout in
  let name = mode_name ~mode t in
  let weight, dom = radix layout in
  match mode with
  | Plain ->
      (* loops, not [Array.iter]: a closure per state would be the sweep's
         only allocation *)
      let actions = Array.of_list t.actions in
      fun s i emit ->
        for k = 0 to Array.length actions - 1 do
          let a = actions.(k) in
          if a.Action.guard s then begin
            let j = target_checked ~name layout ~weight ~dom a s i in
            if j <> i then emit j
          end
        done
  | Priority bits ->
      let actions = Array.of_list t.actions in
      let bbuf = Array.make (max 1 (Array.length actions)) 0 in
      fun s i emit ->
        let wk = ref 0 and bk = ref 0 in
        for k = 0 to Array.length actions - 1 do
          let a = actions.(k) in
          if a.Action.guard s then begin
            let j = target_checked ~name layout ~weight ~dom a s i in
            if j <> i then
              if bits.(k) then begin
                emit j;
                incr wk
              end
              else begin
                bbuf.(!bk) <- j;
                incr bk
              end
          end
        done;
        if !wk = 0 then
          for k = 0 to !bk - 1 do
            emit bbuf.(k)
          done
  | Sync -> (
      fun s i emit ->
        match synchronous_step t s with
        | None -> ()
        | Some s' ->
            let j = rank_checked ~name layout s' in
            if j <> i then emit j)

(* The dense engine: Sigma itself, indexed by rank (so its rank index
   is the identity), swept by the layout's odometer and read state by
   state into one scratch state per reader — never materialized. *)
let dense_space layout =
  let n = Layout.num_states layout in
  Space.dense ~size:n ~state_of_index:(Layout.unrank layout)
    ~index_of_state:(fun s ->
      let r = Layout.checked_rank layout s in
      if r < 0 then None else Some r)
    ~index_of_key:(fun r -> if r >= 0 && r < n then r else -1)
    ~iter_range:(fun lo hi f -> Layout.iter_range layout ~lo ~hi f)
    ~reader:(fun () ->
      let s = Array.make (Layout.num_vars layout) 0 in
      fun r ->
        Layout.unrank_into layout r s;
        s)
    ()

(* The most successors one state can have: one per action, or the one
   synchronous step.  A dense graph's CSR reserves this many edge lanes
   per state when it is built. *)
let max_degree ~mode t =
  match mode with Sync -> 1 | Plain | Priority _ -> List.length t.actions

(* The emitter over Sigma, kept: [Explicit.source] runs it on one state
   at a time, and the first use of the CSR runs it over the odometer's
   scratch state in one streamed pass that writes each sorted row
   straight into the CSR.  The initial predicate is kept, not
   evaluated: it is swept on the first use of the initial states. *)
let compile_fresh ~mode t =
  let layout = t.layout in
  let name = mode_name ~mode t in
  Cr_semantics.Explicit.of_space ~name ~space:(dense_space layout)
    ~max_degree:(max_degree ~mode t) ~step:(step_keys ~mode t)
    ~is_initial:t.initial ~pp_state:(Layout.pp_state layout)

(* The closure's seeds while the program still steps by the action
   list the closure was taken over: [box] and [with_actions] replace the
   list, and with it the step relation. *)
let closure_seeds t =
  match t.closure with
  | Some c when c.over == t.actions -> Some c.seeds
  | _ -> None

(* A closure's valid states with their ranks, in ascending rank: the
   closure may also hold domain-invalid successors, which no sweep over
   Sigma meets. *)
let closure_ranked t c =
  let layout = t.layout in
  Layout.Tbl.fold
    (fun s () acc ->
      let r = Layout.checked_rank layout s in
      if r < 0 then acc else (r, s) :: acc)
    (c.states ()) []
  |> List.sort (fun (a, _) (b, _) -> Int.compare a b)

(* A closure program's initial states without a predicate sweep over
   Sigma. *)
let closure_states t =
  Option.map (fun c -> List.map snd (closure_ranked t c)) t.closure

(* The initial states in ascending rank: a closure program's valid
   closure states, or else one sweep of the predicate over Sigma that
   copies out only the states it accepts. *)
let initial_states t =
  match closure_states t with
  | Some states -> states
  | None ->
      let acc = ref [] in
      Layout.iter_states t.layout (fun _ s ->
          if t.initial s then acc := Array.copy s :: !acc);
      List.rev !acc

(* Sorted, deduplicated dense ranks of initial states. *)
let ranks_of t states =
  let layout = t.layout in
  List.rev_map
    (fun s ->
      let r = Layout.checked_rank layout s in
      if r < 0 then
        invalid_arg (Printf.sprintf "%s: initial state outside Sigma" t.name)
      else r)
    states
  |> List.sort_uniq compare |> Array.of_list

(* Sorted dense ranks of the program's initial states: the BFS roots of
   the sparse engine.  Programs built by [with_initial_closure]
   enumerate their initial set directly: its valid states, so a closure
   that leaves Sigma fails in the discovery, at the escaping step, as on
   every other route; anything else pays one allocation-free predicate
   scan over Sigma. *)
let seed_ranks t =
  match t.closure with
  | Some c -> Array.of_list (List.map fst (closure_ranked t c))
  | None ->
      let acc = ref [] and count = ref 0 in
      Layout.iter_states t.layout (fun r s ->
          if t.initial s then begin
            acc := r :: !acc;
            incr count
          end);
      let a = Array.make (max 1 !count) 0 in
      List.iteri (fun i r -> a.(!count - 1 - i) <- r) !acc;
      Array.sub a 0 !count

(* Where a sparse compile starts its discovery: the initial states
   ([seed_ranks]), a closure program's seeds ([closure_seeds]), or the
   caller's [?roots]. *)
type seeding = Initial | Closure | Roots

let seeding_name = function
  | Initial -> "initial"
  | Closure -> "closure"
  | Roots -> "roots"

(* A closure-seeded discovery from the closure's seeds finds exactly the
   closure — the initial set — so it is renumbered in ascending rank
   (the order a discovery seeded with the whole sorted closure has) and
   marked initial throughout ([Explicit.all_initial]), without forcing
   the predicate or sweeping it. *)
let compile_sparse ~mode ~seeding t ~seed_ranks:seeds =
  let layout = t.layout in
  let name = mode_name ~mode t in
  let closure = seeding = Closure in
  let sparse =
    Space.discover ~sort_keys:closure ~state_of_key:(Layout.unrank layout)
      ~key_of_state:(Layout.checked_rank layout)
      ~step:(step_keys ~mode t) ~seed_keys:seeds ()
  in
  let e =
    Cr_semantics.Explicit.of_sparse ~name sparse ~is_initial:t.initial
      ~pp_state:(Layout.pp_state layout)
  in
  if closure then Cr_semantics.Explicit.all_initial e else e

(* Refuse, before any allocation, a space the engine cannot index.  The
   dense engine indexes states and reserves [max_degree] edge lanes per
   state in four-byte lanes, so both counts must stay within
   [Lane.max_lanes]; both engines key states by their [int] rank, which
   a saturated [Layout.num_states] no longer covers.  (The sparse
   discovery checks its own lanes as it grows.) *)
let check_size ~mode ~space t =
  let n = Layout.num_states t.layout in
  let degree = max_degree ~mode t in
  let limit =
    match (space : Space.engine) with
    | Space.Dense -> Cr_kernel.Lane.max_lanes / max 1 degree
    | Space.Sparse -> max_int - 1
  in
  if n > limit then
    Fmt.kstr
      (fun msg -> raise (Space.Too_large msg))
      "%s: the %s engine cannot index %s (at most %s%s)" (mode_name ~mode t)
      (Space.engine_name space) (Layout.states_string n)
      (Layout.states_string limit)
      (if space = Space.Dense && degree > 1 then
         Printf.sprintf " with %d actions" degree
       else "")

(* One [compile] span per compile: which engine built the graph, where
   a sparse discovery started ([seeds]), how much of the product space
   ([full]) it holds, and its [transitions] when the compile built its
   CSR (a sparse one; a dense graph builds it on first use, and the
   span must not force it).  Nothing is memoized: each call builds a
   fresh graph, and a caller that asks several questions of one program
   passes its graph along. *)
let compile ~mode ~space ?roots t =
  let module E = Cr_semantics.Explicit in
  check_size ~mode ~space t;
  let seeding, compile =
    match (space : Space.engine) with
    | Space.Dense -> (None, fun () -> compile_fresh ~mode t)
    | Space.Sparse ->
        let seeding, seeds =
          match (roots, mode, closure_seeds t) with
          | Some r, _, _ ->
              (Roots, Array.of_list (List.sort_uniq compare (Array.to_list r)))
          | None, Plain, Some s -> (Closure, ranks_of t s)
          | _ -> (Initial, seed_ranks t)
        in
        ( Some seeding,
          fun () -> compile_sparse ~mode ~seeding t ~seed_ranks:seeds )
  in
  Cr_obs.Obs.span "compile" compile ~fields:(fun e ->
      let open Cr_obs.Obs in
      [
        ("engine", S (Space.engine_name space)); ("states", I (E.num_states e));
      ]
      @ (if E.succ_forced e then [ ("transitions", I (E.num_transitions e)) ]
         else [])
      @ [ ("full", I (Layout.num_states t.layout)) ]
      @ match seeding with
        | Some s -> [ ("seeds", S (seeding_name s)) ]
        | None -> [])

(* There is no compile cache to empty: kept for callers that reset
   every cache between measured runs (scenario_bench/replay.ml). *)
let clear_compile_cache () = ()

let to_explicit ?priority_of ?roots ?(space = Space.Dense) t =
  let mode =
    match priority_of with
    | None -> Plain
    | Some is_wrapper ->
        Priority (Array.of_list (List.map is_wrapper t.actions))
  in
  compile ~mode ~space ?roots t

let to_explicit_synchronous ?(space = Space.Dense) t = compile ~mode:Sync ~space t

(* One sweep over [e] ranks every firing's successor by rank delta, into
   one four-byte lane per state and action.  On a dense compile a rank
   is its index; any other graph (a sparse one) maps the ranks through
   [find_opt] afterwards. *)
let action_tables t (e : state Cr_semantics.Explicit.t) =
  let module E = Cr_semantics.Explicit in
  let module Lane = Cr_kernel.Lane in
  let layout = t.layout and actions = Array.of_list t.actions in
  let weight, dom = radix layout in
  let n = E.num_states e in
  let tables = Array.map (fun _ -> Lane.make n (-1)) actions in
  let dense = ref (n = Layout.num_states layout) in
  E.iter_states e (fun i s ->
      let r = Layout.rank layout s in
      if r <> i then dense := false;
      for a = 0 to Array.length actions - 1 do
        if actions.(a).Action.guard s then
          let j = target ~weight ~dom actions.(a) s r in
          if j >= 0 && j <> r then
            Lane.set32u tables.(a) (4 * i) (Int32.of_int j)
      done);
  let index j = E.find_opt e (Layout.unrank layout j) in
  if not !dense then
    Array.iter
      (fun table ->
        for i = 0 to n - 1 do
          let j = Lane.get table i in
          if j >= 0 then
            Lane.set table i (Option.value ~default:(-1) (index j))
        done)
      tables;
  tables

(* Reachability closure at the program level, used to define the initial
   states of concrete systems as the orbit of canonical legitimate
   configurations (the paper's "initial states follow from those of BTR
   using the mapping"). *)
let reachable_from t seeds =
  (* a forced closure lives as long as its program's predicate, and most
     are small: the table starts small and grows on demand *)
  let seen = Layout.Tbl.create 16 in
  let queue = Queue.create () in
  let push s =
    if not (Layout.Tbl.mem seen s) then begin
      Layout.Tbl.replace seen s ();
      Queue.push s queue
    end
  in
  List.iter push seeds;
  while not (Queue.is_empty queue) do
    let s = Queue.pop queue in
    List.iter push (step t s)
  done;
  seen

let with_initial_closure ~seeds t =
  (* Computed on first use, under a lock rather than as a [lazy]: a
     chunked compile evaluates [initial] on several domains at once, and
     racing forces of one lazy value raise [Lazy.Undefined]. *)
  let cell = Atomic.make None and lock = Mutex.create () in
  let rec states () =
    match Atomic.get cell with
    | Some c -> c
    | None ->
        Mutex.protect lock (fun () ->
            if Option.is_none (Atomic.get cell) then
              Atomic.set cell
                (Some
                   (Cr_obs.Obs.span "closure"
                      (fun () -> reachable_from t seeds)
                      ~fields:(fun c ->
                        [ ("states", Cr_obs.Obs.I (Layout.Tbl.length c)) ]))));
        states ()
  in
  {
    t with
    initial = (fun s -> Layout.Tbl.mem (states ()) s);
    closure = Some { seeds; over = t.actions; states };
  }

let pp fmt t =
  Fmt.pf fmt "@[<v>program %s:@,%a@]" t.name
    (Fmt.list ~sep:Fmt.cut (fun fmt a -> Fmt.pf fmt "  %s" (Action.label a)))
    t.actions
