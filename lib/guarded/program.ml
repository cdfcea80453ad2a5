(* A guarded-command program over a layout: the uniform substrate for
   every system in the paper (rings, wrappers and their compositions). *)

module Space = Cr_semantics.Space

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

let enabled_actions t s = List.filter (fun a -> Action.enabled a s) t.actions

(* Transitions enabled at [s]: (action, successor) pairs, no-ops dropped. *)
let firings t s =
  List.filter_map
    (fun a -> Option.map (fun s' -> (a, s')) (Action.fire a s))
    t.actions

let step t s = List.map snd (firings t s)

let step_fn ?(priority_of : (Action.t -> bool) option) t =
  match priority_of with
  | None -> step t
  | Some is_wrapper ->
      (* Wrapper actions preempt base actions wherever one can fire. *)
      fun s ->
        let fs = firings t s in
        let wrapper_moves =
          List.filter_map
            (fun (a, s') -> if is_wrapper a then Some s' else None)
            fs
        in
        if wrapper_moves <> [] then wrapper_moves else List.map snd fs

let to_system ?priority_of t =
  Cr_semantics.System.make ~name:t.name
    ~states:(Layout.enumerate t.layout)
    ~step:(step_fn ?priority_of t) ~is_initial:t.initial
    ~pp:(Layout.pp_state t.layout)
    ()

(* Box with wrapper priority, compiled directly to a system: wrapper
   actions preempt the base program's actions. *)
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

let to_system_synchronous t =
  Cr_semantics.System.make
    ~name:(t.name ^ "[sync]")
    ~states:(Layout.enumerate t.layout)
    ~step:(fun s ->
      match synchronous_step t s with None -> [] | Some s' -> [ s' ])
    ~is_initial:t.initial
    ~pp:(Layout.pp_state t.layout)
    ()

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

(* Sort the first [k] slots of [buf] in place (insertion sort — rows are
   at most num-actions long) and return them deduplicated as a fresh
   row. *)
let sorted_row_of_prefix buf k =
  if k = 0 then [||]
  else begin
    for i = 1 to k - 1 do
      let x = buf.(i) in
      let j = ref (i - 1) in
      while !j >= 0 && buf.(!j) > x do
        buf.(!j + 1) <- buf.(!j);
        decr j
      done;
      buf.(!j + 1) <- x
    done;
    let m = ref 1 in
    for i = 1 to k - 1 do
      if buf.(i) <> buf.(i - 1) then incr m
    done;
    let out = Array.make !m buf.(0) in
    let w = ref 1 in
    for i = 1 to k - 1 do
      if buf.(i) <> buf.(i - 1) then begin
        out.(!w) <- buf.(i);
        incr w
      end
    done;
    out
  end

(* Interleaving rows: iterate the actions directly — guard test, effect,
   immediate rank — with no (action, successor) pair lists.  [rank] is
   injective on valid states, so "successor rank = own rank" is exactly
   the no-op test of [Action.fire]. *)
let plain_rows ~name layout (actions : Action.t array) state_of () =
  let buf = Array.make (max 1 (Array.length actions)) 0 in
  fun i ->
    let s = state_of i in
    let k = ref 0 in
    Array.iter
      (fun (a : Action.t) ->
        if a.Action.guard s then begin
          let j = rank_checked ~name layout (a.Action.effect s) in
          if j <> i then begin
            buf.(!k) <- j;
            incr k
          end
        end)
      actions;
    sorted_row_of_prefix buf !k

(* Priority rows: wrapper firings preempt base firings.  A wrapper
   action whose effect is a no-op does not count as a wrapper move
   (matching [firings], which drops no-ops before the preemption
   test). *)
let priority_rows ~name layout (actions : Action.t array)
    (is_wrapper : bool array) state_of () =
  let n = max 1 (Array.length actions) in
  let wbuf = Array.make n 0 in
  let bbuf = Array.make n 0 in
  fun i ->
    let s = state_of i in
    let wk = ref 0 and bk = ref 0 in
    Array.iteri
      (fun ai (a : Action.t) ->
        if a.Action.guard s then begin
          let j = rank_checked ~name layout (a.Action.effect s) in
          if j <> i then
            if is_wrapper.(ai) then begin
              wbuf.(!wk) <- j;
              incr wk
            end
            else begin
              bbuf.(!bk) <- j;
              incr bk
            end
        end)
      actions;
    if !wk > 0 then sorted_row_of_prefix wbuf !wk
    else sorted_row_of_prefix bbuf !bk

(* Synchronous rows are 0- or 1-element: the daemon is deterministic. *)
let sync_rows ~name layout t state_of () i =
  match synchronous_step t (state_of i) with
  | None -> [||]
  | Some s' ->
      let j = rank_checked ~name layout s' in
      if j = i then [||] else [| j |]

(* A per-chunk row-builder factory for the mode, over any index-to-state
   view (an enumeration array during compiles, bare [unrank] during
   fingerprint probes). *)
let row_builder ~mode t state_of =
  let layout = t.layout in
  let name = mode_name ~mode t in
  match mode with
  | Plain -> plain_rows ~name layout (Array.of_list t.actions) state_of
  | Priority bits ->
      priority_rows ~name layout (Array.of_list t.actions) bits state_of
  | Sync -> sync_rows ~name layout t state_of

(* Telemetry satellite of the two-engine compile path: which engine
   built the graph and how much of the product space it materialized.
   Emitted by both engines, between the cache's compile.start/finish
   pair on a miss. *)
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

let compile_fresh ~mode t =
  let layout = t.layout in
  let name = mode_name ~mode t in
  let n = Layout.num_states layout in
  let states = Array.init n (Layout.unrank layout) in
  let space =
    Space.dense ~size:n
      ~state_of_index:(fun i -> states.(i))
      ~index_of_state:(fun s ->
        if Layout.valid layout s then Some (Layout.rank layout s) else None)
      ()
  in
  let rows = row_builder ~mode t (fun i -> states.(i)) in
  let e =
    Cr_semantics.Explicit.of_space ~name ~space ~rows ~is_initial:t.initial
      ~pp_state:(Layout.pp_state layout)
  in
  emit_space ~name ~engine:Space.Dense ~states:n ~full:n;
  e

(* Per-chunk successor-key iterator for the sparse engine: the same
   guard / effect / checked-rank loop as the row builders, but emitting
   dense ranks through a callback instead of buffering sorted rows —
   the discovery BFS assigns its own (sparse) indices and sorts.  The
   self-loop test is dense-rank equality, exactly as in the dense
   rows. *)
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
    Space.discover ~full_size:full ~state_of_key:(Layout.unrank layout)
      ~key_of_state:(Layout.checked_rank layout)
      ~step:(step_keys ~mode t) ~seed_keys:seeds ()
  in
  let rows = sparse.Space.rows in
  let e =
    Cr_semantics.Explicit.of_space ~name ~space:sparse.Space.space
      ~rows:(fun () -> Array.get rows)
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

(* Two independent FNV-1a-style folds over native ints: 126 bits of
   accumulated probe state, no allocation per step.  Native-int
   multiplication wraps silently, which is exactly what a rolling hash
   wants. *)
let fnv1 = 0x100000001b3
let fnv2 = 0x27d4eb2f165667c5

(* Semantic probe: fold the complete firing observations — per sampled
   state, per action in order, the successor's rank (or a disabled
   marker) — of up to [probe_budget] evenly spread states (every state
   when the space is that small).  The raw firing sequence determines
   the compiled graph for the plain AND priority modes (the wrapper bits
   live in the structural header), so one probe serves both; the
   synchronous mode folds its deterministic step instead.  Escaping
   steps raise [Unknown_state] exactly like the compile, so a hit and a
   miss fail identically on ill-formed programs. *)
let probe ~mode t =
  let layout = t.layout in
  let n = Layout.num_states layout in
  let budget = min n probe_budget in
  let name = mode_name ~mode t in
  let h1 = ref 0x3bf29ce484222325 and h2 = ref 0x1e3779b97f4a7c15 in
  let fold x =
    h1 := (!h1 lxor x) * fnv1;
    h2 := (!h2 lxor x) * fnv2
  in
  (match mode with
  | Sync ->
      for k = 0 to budget - 1 do
        let i = k * n / budget in
        fold i;
        match synchronous_step t (Layout.unrank layout i) with
        | None -> fold (-2)
        | Some s' -> fold (rank_checked ~name layout s')
      done
  | Plain | Priority _ ->
      let actions = Array.of_list t.actions in
      for k = 0 to budget - 1 do
        let i = k * n / budget in
        let s = Layout.unrank layout i in
        fold i;
        Array.iter
          (fun (a : Action.t) ->
            if a.Action.guard s then
              fold (rank_checked ~name layout (a.Action.effect s))
            else fold (-1))
          actions
      done);
  (!h1, !h2)

(* Content-addressed cache key: execution mode, layout (variable names
   and domain sizes), per-action metadata (label, owning process,
   declared writes, wrapper bit) — plus the semantic {!probe}, which is
   what separates programs whose actions carry identical labels but
   different guards or effects.  The initial-state predicate is
   deliberately NOT part of the key: a cached graph is re-targeted via
   [Explicit.with_initials] on every hit.  (The probe is a 126-bit
   rolling hash, not the exact rows; CR_COMPILE_PARANOID=1 turns every
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
  let p1, p2 = probe ~mode t in
  Buffer.add_string buf (Printf.sprintf "|%x.%x" p1 p2);
  Digest.to_hex (Digest.string (Buffer.contents buf))

let compile_fingerprint ?priority_of t =
  let mode =
    match priority_of with
    | None -> Plain
    | Some is_wrapper ->
        Priority (Array.of_list (List.map is_wrapper t.actions))
  in
  fingerprint ~mode t

let compile_cache : Layout.state Cr_semantics.Compile_cache.t =
  Cr_semantics.Compile_cache.create ()

let clear_compile_cache () = Cr_semantics.Compile_cache.clear compile_cache

(* Cache keys carry the engine: a dense and a sparse compile of the
   same program must never alias (their graphs are different objects).
   The sparse key additionally folds the seed-rank set — a sparse graph
   depends on where its BFS starts, so programs that share a structural
   fingerprint but differ in initial states get distinct sparse entries,
   while dense entries keep being shared and re-targeted via [reinit]. *)
let sparse_key ~mode t seeds =
  let h1 = ref 0x3bf29ce484222325 and h2 = ref 0x1e3779b97f4a7c15 in
  Array.iter
    (fun r ->
      h1 := (!h1 lxor r) * fnv1;
      h2 := (!h2 lxor r) * fnv2)
    seeds;
  Printf.sprintf "%s|space:sparse:%d:%x.%x" (fingerprint ~mode t)
    (Array.length seeds) !h1 !h2

let compile ~mode ~space t =
  let reinit e =
    Cr_semantics.Explicit.with_initials
      (Cr_semantics.Explicit.rename (mode_name ~mode t) e)
      t.initial
  in
  match (space : Space.engine) with
  | Space.Dense ->
      let compile = fun () -> compile_fresh ~mode t in
      if not (Cr_semantics.Compile_cache.enabled ()) then compile ()
      else
        Cr_semantics.Compile_cache.find_or_compile compile_cache
          ~key:(fingerprint ~mode t ^ "|space:dense")
          ~reinit ~compile
  | Space.Sparse ->
      let seeds = seed_ranks t in
      let compile = fun () -> compile_sparse ~mode t ~seed_ranks:seeds in
      if not (Cr_semantics.Compile_cache.enabled ()) then compile ()
      else
        Cr_semantics.Compile_cache.find_or_compile compile_cache
          ~key:(sparse_key ~mode t seeds) ~reinit ~compile

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
  let closure = lazy (reachable_from t seeds) in
  {
    t with
    initial = (fun s -> Layout.Tbl.mem (Lazy.force closure) s);
    init_enum =
      Some
        (fun () ->
          Layout.Tbl.fold (fun s () acc -> s :: acc) (Lazy.force closure) []);
  }

let pp fmt t =
  Fmt.pf fmt "@[<v>program %s:@,%a@]" t.name
    (Fmt.list ~sep:Fmt.cut (fun fmt a -> Fmt.pf fmt "  %s" (Action.label a)))
    t.actions
