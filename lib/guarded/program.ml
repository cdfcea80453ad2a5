(* A guarded-command program over a layout: the uniform substrate for
   every system in the paper (rings, wrappers and their compositions). *)

module Space = Cr_semantics.Space
module Memo = Cr_kernel.Memo

type state = Layout.state

type t = {
  name : string;
  layout : Layout.t;
  actions : Action.t list;
  initial : state -> bool;
  (* Enumerator of the complete initial-state set, when one is known
     without scanning Sigma (set by [with_initial_closure]).  The sparse
     compile engine seeds its BFS from it; [None] falls back to a
     full-space predicate scan. *)
  init_enum : (unit -> state list) option;
}

let make ~name ~layout ~actions ~initial =
  { name; layout; actions; initial; init_enum = None }

let name t = t.name
let layout t = t.layout
let actions t = t.actions
let initial t = t.initial
let rename n t = { t with name = n }
let with_initial initial t = { t with initial; init_enum = None }
let with_actions actions t = { t with actions }

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
   and the declared [writes] of each chosen action are merged (first
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
      if s' = s then None else Some s'

(* ------------------------------------------------------------------ *)
(* Explicit compilation: allocation-lean, domain-chunked, memoized.    *)
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

(* Telemetry satellite of the two-engine compile path: which engine
   built the graph and how much of the product space it materialized.
   Emitted by both engines, between the compile.start/finish pair of
   every compile that actually runs. *)
let emit_space ~name ~engine ~states ~full =
  Cr_obs.Journal.emit "compile.space"
    [
      ("name", Cr_obs.Journal.S name);
      ("engine", Cr_obs.Journal.S (Space.engine_name engine));
      ("states", Cr_obs.Journal.I states);
      ("full", Cr_obs.Journal.I full);
      ( "ratio",
        Cr_obs.Journal.F
          (if full = 0 then 1.0 else float_of_int states /. float_of_int full)
      );
    ]

(* Per-chunk successor-key emitter shared by both engines: guard test,
   effect, checked rank — no firing lists, no per-state rows.  [i] is
   the state's own dense rank, so dropping [j = i] is exactly the no-op
   test of [Action.fire] ([rank] is injective on valid states).  Under
   [Priority], wrapper firings preempt base firings, and a wrapper whose
   effect is a no-op does not count as a wrapper move (matching
   [firings], which drops no-ops before the preemption test). *)
let step_keys ~mode t () =
  let layout = t.layout in
  let name = mode_name ~mode t in
  match mode with
  | Plain ->
      let actions = Array.of_list t.actions in
      fun s i emit ->
        Array.iter
          (fun (a : Action.t) ->
            if a.Action.guard s then begin
              let j = rank_checked ~name layout (a.Action.effect s) in
              if j <> i then emit j
            end)
          actions
  | Priority bits ->
      let actions = Array.of_list t.actions in
      let bbuf = Array.make (max 1 (Array.length actions)) 0 in
      fun s i emit ->
        let wk = ref 0 and bk = ref 0 in
        Array.iteri
          (fun ai (a : Action.t) ->
            if a.Action.guard s then begin
              let j = rank_checked ~name layout (a.Action.effect s) in
              if j <> i then
                if bits.(ai) then begin
                  emit j;
                  incr wk
                end
                else begin
                  bbuf.(!bk) <- j;
                  incr bk
                end
            end)
          actions;
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

(* The dense engine: Sigma itself, indexed by rank, swept by the
   layout's odometer — never materialized. *)
let dense_space layout =
  Space.dense ~size:(Layout.num_states layout)
    ~state_of_index:(Layout.unrank layout)
    ~index_of_state:(fun s ->
      let r = Layout.checked_rank layout s in
      if r < 0 then None else Some r)
    ~iter_range:(fun lo hi f -> Layout.iter_range layout ~lo ~hi f)
    ()

(* One streamed pass over Sigma: the emitter runs on the odometer's
   scratch state, and [Explicit.of_space] appends each sorted row
   straight into the CSR and marks the initial states as it goes. *)
let compile_fresh ~mode t =
  let layout = t.layout in
  let name = mode_name ~mode t in
  let n = Layout.num_states layout in
  let e =
    Cr_semantics.Explicit.of_space ~name ~space:(dense_space layout)
      ~step:(step_keys ~mode t) ~is_initial:t.initial
      ~pp_state:(Layout.pp_state layout)
  in
  emit_space ~name ~engine:Space.Dense ~states:n ~full:n;
  e

(* Sorted dense ranks of the program's initial states: the BFS roots of
   the sparse engine, and part of its cache key (a sparse graph depends
   on where discovery starts; dense graphs are initial-independent and
   get re-targeted on every hit instead).  Programs built by
   [with_initial_closure] enumerate their initial set directly; anything
   else pays one allocation-free predicate scan over Sigma. *)
let seed_ranks t =
  let layout = t.layout in
  match t.init_enum with
  | Some enum ->
      let ranks =
        List.rev_map
          (fun s ->
            let r = Layout.checked_rank layout s in
            if r < 0 then
              invalid_arg
                (Printf.sprintf "%s: initial state outside Sigma" t.name)
            else r)
          (enum ())
      in
      Array.of_list (List.sort_uniq compare ranks)
  | None ->
      let acc = ref [] and count = ref 0 in
      Layout.iter_states layout (fun r s ->
          if t.initial s then begin
            acc := r :: !acc;
            incr count
          end);
      let a = Array.make (max 1 !count) 0 in
      List.iteri (fun i r -> a.(!count - 1 - i) <- r) !acc;
      Array.sub a 0 !count

let compile_sparse ~mode t ~seed_ranks:seeds =
  let layout = t.layout in
  let name = mode_name ~mode t in
  let full = Layout.num_states layout in
  let sparse =
    Space.discover ~state_of_key:(Layout.unrank layout)
      ~key_of_state:(Layout.checked_rank layout)
      ~step:(step_keys ~mode t) ~seed_keys:seeds ()
  in
  let rows = sparse.Space.rows in
  let e =
    Cr_semantics.Explicit.of_space ~name ~space:sparse.Space.space
      ~step:(fun () _ i emit -> Array.iter emit rows.(i))
      ~is_initial:t.initial
      ~pp_state:(Layout.pp_state layout)
  in
  emit_space ~name ~engine:Space.Sparse
    ~states:(Cr_semantics.Explicit.num_states e)
    ~full;
  e

(* How many states the semantic fingerprint probe samples.  Systems at
   most this big are keyed by their complete transition semantics
   (collision-free); larger ones by an evenly spread sample plus the
   structural part below. *)
let probe_budget = 256

(* Semantic probe: fold ([Memo.Fp]) the complete firing observations —
   per sampled state, per action in order, the successor's rank (or a
   disabled marker) — of up to [probe_budget] evenly spread states
   (every state when the space is that small).  The raw firing sequence determines
   the compiled graph for the plain AND priority modes (the wrapper bits
   live in the structural header), so one probe serves both; the
   synchronous mode folds its deterministic step instead.  Escaping
   steps raise [Unknown_state] exactly like the compile, so a hit and a
   miss fail identically on ill-formed programs. *)
let probe ~mode t =
  let layout = t.layout in
  let n = Layout.num_states layout in
  let budget = min n probe_budget in
  (* [k * n / budget] without forming [k * n], which overflows once [n]
     passes [max_int / budget] *)
  let sample k = (k * (n / budget)) + (k * (n mod budget) / budget) in
  let name = mode_name ~mode t in
  let fp = Memo.Fp.create () in
  let fold = Memo.Fp.add_int fp in
  (match mode with
  | Sync ->
      for k = 0 to budget - 1 do
        let i = sample k in
        fold i;
        match synchronous_step t (Layout.unrank layout i) with
        | None -> fold (-2)
        | Some s' -> fold (rank_checked ~name layout s')
      done
  | Plain | Priority _ ->
      let actions = Array.of_list t.actions in
      for k = 0 to budget - 1 do
        let i = sample k in
        let s = Layout.unrank layout i in
        fold i;
        Array.iter
          (fun (a : Action.t) ->
            if a.Action.guard s then
              fold (rank_checked ~name layout (a.Action.effect s))
            else fold (-1))
          actions
      done);
  Memo.Fp.to_hex fp

(* Content-addressed cache key: execution mode, layout (variable names
   and domain sizes), per-action metadata (label, owning process,
   declared writes, wrapper bit) — plus the semantic {!probe}, which is
   what separates programs whose actions carry identical labels but
   different guards or effects.  The initial-state predicate is
   deliberately NOT part of the key: a cached graph is re-targeted via
   [Explicit.with_initials] on every hit.  (The probe is a 126-bit
   rolling hash, not the exact rows; CR_CACHE_PARANOID=1 turns every
   hit into a checked recompile for the paranoid.) *)
let fingerprint ~mode t =
  let layout = t.layout in
  let buf = Buffer.create 256 in
  Buffer.add_string buf
    (match mode with
    | Plain -> "plain"
    | Priority _ -> "priority"
    | Sync -> "sync");
  for i = 0 to Layout.num_vars layout - 1 do
    Buffer.add_char buf '|';
    Buffer.add_string buf (Layout.var_name layout i);
    Buffer.add_char buf ':';
    Buffer.add_string buf (string_of_int (Layout.dom layout i))
  done;
  List.iteri
    (fun i a ->
      Buffer.add_string buf
        (Printf.sprintf "|%s;%d;%s%s" (Action.label a) (Action.proc a)
           (String.concat "," (List.map string_of_int (Action.writes a)))
           (match mode with
           | Priority bits when bits.(i) -> ";W"
           | _ -> "")))
    t.actions;
  Buffer.add_char buf '|';
  Buffer.add_string buf (probe ~mode t);
  Digest.to_hex (Digest.string (Buffer.contents buf))

let memo : Layout.state Cr_semantics.Explicit.t Memo.t =
  Memo.create ~name:"compile"

let clear_compile_cache () = Memo.clear memo

(* Cache keys carry the engine: a dense and a sparse compile of the
   same program must never alias (their graphs are different objects).
   The sparse key additionally folds the seed-rank set — a sparse graph
   depends on where its BFS starts, so programs that share a structural
   fingerprint but differ in initial states get distinct sparse entries,
   while dense entries keep being shared and re-targeted via [reinit]. *)
let sparse_key ~mode t seeds =
  let fp = Memo.Fp.create () in
  Array.iter (Memo.Fp.add_int fp) seeds;
  Printf.sprintf "%s|space:sparse:%d:%s" (fingerprint ~mode t)
    (Array.length seeds) (Memo.Fp.to_hex fp)

(* Refuse, before any key or probe is computed, a space the engine
   cannot index: the dense engine allocates a [row_ptr] slot per state
   plus one, and both engines key states by their [int] rank, which a
   saturated [Layout.num_states] no longer covers. *)
let check_size ~mode ~space t =
  let n = Layout.num_states t.layout in
  let limit =
    match (space : Space.engine) with
    | Space.Dense -> Sys.max_array_length - 1
    | Space.Sparse -> max_int - 1
  in
  if n > limit then
    Fmt.kstr
      (fun msg -> raise (Space.Too_large msg))
      "%s: the %s engine cannot index %s (at most %s)" (mode_name ~mode t)
      (Space.engine_name space) (Layout.states_string n)
      (Layout.states_string limit)

let compile ~mode ~space t =
  let module E = Cr_semantics.Explicit in
  check_size ~mode ~space t;
  let reinit e = E.with_initials (E.rename (mode_name ~mode t) e) t.initial in
  let key, compile =
    match (space : Space.engine) with
    | Space.Dense ->
        ( (fun () -> fingerprint ~mode t ^ "|space:dense"),
          fun () -> compile_fresh ~mode t )
    | Space.Sparse ->
        let seeds = seed_ranks t in
        ( (fun () -> sparse_key ~mode t seeds),
          fun () -> compile_sparse ~mode t ~seed_ranks:seeds )
  in
  let key = lazy (key ()) in
  let compile () =
    let open Cr_obs.Journal in
    let journal = enabled () in
    if journal then emit "compile.start" [ ("key", S (Lazy.force key)) ];
    let t0 = Cr_obs.Obs.now_us () in
    let e = compile () in
    if journal then
      emit "compile.finish"
        [
          ("key", S (Lazy.force key));
          ("states", I (E.num_states e));
          ("transitions", I (E.num_transitions e));
          ("wall_us", F (Cr_obs.Obs.now_us () -. t0));
        ];
    e
  in
  (* paranoid mode: the re-targeted cached graph must equal a fresh
     compile, transitions and initial states alike *)
  let same cached fresh =
    let cached = reinit cached in
    E.same_transitions fresh cached && E.initials fresh = E.initials cached
  in
  match Memo.find memo ~key:(fun () -> Lazy.force key) ~same compile with
  | e, true -> e
  | e, false -> reinit e

let to_explicit ?priority_of ?(space = Space.Dense) t =
  let mode =
    match priority_of with
    | None -> Plain
    | Some is_wrapper ->
        Priority (Array.of_list (List.map is_wrapper t.actions))
  in
  compile ~mode ~space t

let to_explicit_synchronous ?(space = Space.Dense) t = compile ~mode:Sync ~space t

(* Reachability closure at the program level, used to define the initial
   states of concrete systems as the orbit of canonical legitimate
   configurations (the paper's "initial states follow from those of BTR
   using the mapping"). *)
let reachable_from t seeds =
  let seen = Layout.Tbl.create 1024 in
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
  let rec closure () =
    match Atomic.get cell with
    | Some c -> c
    | None ->
        Mutex.protect lock (fun () ->
            if Option.is_none (Atomic.get cell) then
              Atomic.set cell (Some (reachable_from t seeds)));
        closure ()
  in
  {
    t with
    initial = (fun s -> Layout.Tbl.mem (closure ()) s);
    init_enum =
      Some
        (fun () -> Layout.Tbl.fold (fun s () acc -> s :: acc) (closure ()) []);
  }

let pp fmt t =
  Fmt.pf fmt "@[<v>program %s:@,%a@]" t.name
    (Fmt.list ~sep:Fmt.cut (fun fmt a -> Fmt.pf fmt "  %s" (Action.label a)))
    t.actions
