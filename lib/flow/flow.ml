(* The abstract interpreter.  See flow.mli for the design contract; the
   load-bearing facts are the Rwsets differencing theorems:

     (1) a guard's value is exactly a function of its guard-read slots
         (over the whole space);
     (2) among enabled states, the effect's output on a written slot is
         exactly a function of the effect-read slots plus the written
         slot itself (pass-through lines), and every non-written slot
         passes through.

   So a transfer that enumerates the product of the abstract state over
   support = guard_reads + effect_reads + writes, with all other slots
   pinned to arbitrary members of their abstract values, computes the
   exact set of enabled combinations and written outputs for the
   concretization — the only over-approximation left is the cartesian
   per-slot abstraction itself. *)

open Cr_guarded
open Cr_lint

let c_programs = Cr_obs.Obs.counter "lint.flow.programs"
let c_degraded = Cr_obs.Obs.counter "lint.flow.degraded"
let c_transfers = Cr_obs.Obs.counter "lint.flow.transfers"
let c_combos = Cr_obs.Obs.counter "lint.flow.combos"
let c_rounds = Cr_obs.Obs.counter "lint.flow.rounds"
let c_findings = Cr_obs.Obs.counter "lint.flow.findings"
let h_support = Cr_obs.Obs.histogram "lint.flow.support_combos"

type fact = {
  info : Rwsets.info;
  top_enabled : bool;
  top_outputs : (int * Dom.t) list;
  init_enabled : bool option;
  init_invalid : Layout.state option;
}

type t = {
  program : Program.t;
  layout : Layout.t;
  num_states : int;
  degraded : bool;
  facts : fact list;
  init_seed : Dom.t array option;
  init_state : Dom.t array option;
  init_rounds : int;
  init_sound : bool;
  findings : Lint.finding list;
}

(* ---- transfer ---- *)

type transfer = {
  t_enabled : bool;
  t_outputs : (int * Dom.t) list;
  t_invalid : Layout.state option;
  t_truncated : bool;
}

let eval ~budget layout (info : Rwsets.info) (sigma : Dom.t array) : transfer =
  Cr_obs.Obs.incr c_transfers;
  let a = info.Rwsets.action in
  let nv = Layout.num_vars layout in
  let writes = info.Rwsets.writes in
  let bot_outputs () =
    List.map (fun w -> (w, Dom.bottom (Layout.dom layout w))) writes
  in
  if Array.exists Dom.is_bottom sigma then
    (* empty concretization: nothing is enabled *)
    { t_enabled = false; t_outputs = bot_outputs (); t_invalid = None;
      t_truncated = false }
  else begin
    let support =
      List.sort_uniq compare
        (info.Rwsets.guard_reads @ info.Rwsets.effect_reads @ writes)
    in
    let product =
      List.fold_left (fun acc i -> acc * Dom.count sigma.(i)) 1 support
    in
    Cr_obs.Obs.observe h_support product;
    if product > budget then
      (* sound but maximally imprecise: may fire, may write anything *)
      { t_enabled = true;
        t_outputs = List.map (fun w -> (w, Dom.top (Layout.dom layout w))) writes;
        t_invalid = None;
        t_truncated = true }
    else begin
      Cr_obs.Obs.add c_combos product;
      let s = Array.init nv (fun i -> Dom.choose sigma.(i)) in
      let slots = Array.of_list support in
      let vals =
        Array.map (fun i -> Array.of_list (Dom.to_list sigma.(i))) slots
      in
      let outs =
        List.map (fun w -> (w, ref (Dom.bottom (Layout.dom layout w)))) writes
      in
      let enabled = ref false in
      let invalid = ref None in
      for k = 0 to product - 1 do
        let r = ref k in
        Array.iteri
          (fun idx i ->
            let vs = vals.(idx) in
            let m = Array.length vs in
            s.(i) <- vs.(!r mod m);
            r := !r / m)
          slots;
        if a.Action.guard s then begin
          enabled := true;
          let s' = a.Action.effect s in
          if (not (Layout.valid layout s')) && !invalid = None then
            invalid := Some (Array.copy s);
          let len = Array.length s' in
          List.iter
            (fun (w, acc) ->
              if w < len then
                let v = s'.(w) in
                if v >= 0 && v < Layout.dom layout w then acc := Dom.add !acc v)
            outs
        end
      done;
      { t_enabled = !enabled;
        t_outputs = List.map (fun (w, acc) -> (w, !acc)) outs;
        t_invalid = !invalid;
        t_truncated = false }
    end
  end

(* ---- the two analyses ---- *)

let state_str layout s = Fmt.str "%a" (Layout.pp_state layout) s

let analyze ?(exact_budget = Lint.default_exact_budget) (p : Program.t) : t =
  Cr_obs.Obs.span "lint.flow.analyze" @@ fun () ->
  Cr_obs.Obs.incr c_programs;
  let layout = Program.layout p in
  let nv = Layout.num_vars layout in
  let ns = Layout.num_states layout in
  let name = Program.name p in
  let mk key severity provenance action message =
    { Lint.key; severity; provenance; program = name; action; message }
  in
  if ns > exact_budget then begin
    (* The localization substrate (exact Rwsets support) is itself a
       full-space pass; past the budget the honest answer is "not
       analyzed", not a blow-up. *)
    Cr_obs.Obs.incr c_degraded;
    let f =
      mk "B1" Lint.Info Lint.Exact "-"
        (Printf.sprintf
           "state space (%s) exceeds the exact-analysis budget (%d); \
            flow analysis skipped (Rwsets support inference is full-space)"
           (Layout.states_string ns) exact_budget)
    in
    Cr_obs.Obs.incr c_findings;
    { program = p; layout; num_states = ns; degraded = true; facts = [];
      init_seed = None; init_state = None; init_rounds = 0;
      init_sound = false; findings = [ f ] }
  end
  else begin
    let infos = Rwsets.of_program p in
    (* Fixpoint from ⊤: one transfer round — ⊤ is already the (trivial)
       fixpoint, so its value is the per-action byproducts, which are
       exact full-space facts by the support theorems. *)
    let top_sigma = Array.init nv (fun i -> Dom.top (Layout.dom layout i)) in
    let top_trs =
      List.map (fun info -> eval ~budget:exact_budget layout info top_sigma) infos
    in
    (* σ0: abstraction of the initial predicate. *)
    let init_seed =
      Cr_obs.Obs.span "lint.flow.init_seed" @@ fun () ->
      let sigma = Array.init nv (fun i -> Dom.bottom (Layout.dom layout i)) in
      let any = ref false in
      let initial = Program.initial p in
      Layout.iter_states layout (fun _ s ->
          if initial s then begin
            any := true;
            for i = 0 to nv - 1 do
              sigma.(i) <- Dom.add sigma.(i) s.(i)
            done
          end);
      if !any then Some sigma else None
    in
    (* lfp of σ0 ⊔ post by chaotic iteration (the lattice is finite and
       every join only grows, so termination is immediate). *)
    let init_state, init_rounds, init_sound, init_trs =
      match init_seed with
      | None -> (None, 0, false, None)
      | Some seed ->
          Cr_obs.Obs.span "lint.flow.fixpoint" @@ fun () ->
          let sigma = Array.copy seed in
          let rounds = ref 0 in
          let sound = ref true in
          let changed = ref true in
          while !changed do
            changed := false;
            incr rounds;
            List.iter
              (fun info ->
                let tr = eval ~budget:exact_budget layout info sigma in
                if tr.t_truncated || tr.t_invalid <> None then sound := false;
                List.iter
                  (fun (w, dv) ->
                    let j = Dom.join sigma.(w) dv in
                    if not (Dom.equal j sigma.(w)) then begin
                      sigma.(w) <- j;
                      changed := true
                    end)
                  tr.t_outputs)
              infos
          done;
          Cr_obs.Obs.add c_rounds !rounds;
          (* Final per-action evaluation under the fixpoint. *)
          let trs =
            List.map (fun info -> eval ~budget:exact_budget layout info sigma) infos
          in
          List.iter
            (fun tr ->
              if tr.t_truncated || tr.t_invalid <> None then sound := false)
            trs;
          (Some sigma, !rounds, !sound, Some trs)
    in
    let facts =
      List.map2
        (fun info (ttr, itr) ->
          {
            info;
            top_enabled = ttr.t_enabled || ttr.t_truncated;
            top_outputs = ttr.t_outputs;
            init_enabled =
              (match itr with
              | Some it when init_sound && not it.t_truncated ->
                  Some it.t_enabled
              | _ -> None);
            init_invalid =
              (match itr with Some it -> it.t_invalid | None -> None);
          })
        infos
        (List.combine top_trs
           (match init_trs with
           | Some trs -> List.map (fun tr -> Some tr) trs
           | None -> List.map (fun _ -> None) infos))
    in
    (* ---- the flow finding battery ---- *)
    let findings = ref [] in
    let add f = findings := f :: !findings in
    List.iter
      (fun fact ->
        let lbl = Action.label fact.info.Rwsets.action in
        (* F1: dead guards *)
        if not fact.top_enabled then
          add
            (mk "F1" Lint.Warning Lint.Exact lbl
               "statically dead: guard unsatisfiable in the full state space")
        else if fact.init_enabled = Some false then
          add
            (mk "F1" Lint.Info Lint.Abstract lbl
               "dead from initial states: guard unsatisfiable over the \
                abstract init fixpoint (all fault-free executions)");
        (* F2: domain violations *)
        (match fact.info.Rwsets.invalid_witness with
        | Some s ->
            add
              (mk "F2" Lint.Error Lint.Exact lbl
                 (Printf.sprintf "effect leaves the variable domains at %s"
                    (state_str layout s)))
        | None -> ());
        match fact.init_invalid with
        | Some s ->
            add
              (mk "F2" Lint.Warning Lint.Abstract lbl
                 (Printf.sprintf
                    "effect may leave the variable domains from fault-free \
                     reachable values (abstract witness %s)"
                    (state_str layout s)))
        | None -> ())
      facts;
    (* F3: constant slots *)
    for i = 0 to nv - 1 do
      if Layout.dom layout i > 1 then begin
        let written =
          List.exists (fun f -> List.mem i f.info.Rwsets.writes) facts
        in
        if not written then
          add
            (mk "F3" Lint.Info Lint.Exact "-"
               (Printf.sprintf
                  "slot %s is constant: no enabled action ever writes it"
                  (Layout.var_name layout i)))
        else
          match init_state with
          | Some sigma when init_sound && Dom.is_singleton sigma.(i) ->
              add
                (mk "F3" Lint.Info Lint.Abstract "-"
                   (Printf.sprintf
                      "slot %s is fixed at %d across all fault-free \
                       executions (abstract init fixpoint)"
                      (Layout.var_name layout i)
                      (Dom.choose sigma.(i))))
          | _ -> ()
      end
    done;
    let findings = Lint.sort_findings (List.rev !findings) in
    Cr_obs.Obs.add c_findings (List.length findings);
    { program = p; layout; num_states = ns; degraded = false; facts;
      init_seed; init_state; init_rounds; init_sound; findings }
  end

(* ---- lint v2 integration ---- *)

let init_dead t label =
  List.exists
    (fun f ->
      Action.label f.info.Rwsets.action = label && f.init_enabled = Some false)
    t.facts

let errors t =
  List.length (List.filter (fun f -> f.Lint.severity = Lint.Error) t.findings)

(* The findings worth merging into a classic lint report: F1 facts are
   already represented there as U1 (exact full-space, or abstract via
   the init_dead pre-filter), and F2-exact is D1 — so only F2-abstract
   and F3 add information. *)
let supplemental t =
  List.filter
    (fun f ->
      f.Lint.key = "F3"
      || (f.Lint.key = "F2" && f.Lint.provenance = Lint.Abstract))
    t.findings

let lint ?allow ?exact_budget p =
  let t = analyze ?exact_budget p in
  if t.degraded then
    (* Lint.run over the same budget yields the matching B1 report
       without starting its own full-space pass. *)
    (Lint.run ?allow ?exact_budget p, t)
  else
    let infos = List.map (fun f -> f.info) t.facts in
    let report =
      Lint.run ?allow ?exact_budget ~infos
        ~init_dead:(init_dead t) p
    in
    (Lint.merge report (supplemental t), t)

(* ---- rendering ---- *)

let pp_state layout fmt (sigma : Dom.t array) =
  let items = ref [] in
  for i = Layout.num_vars layout - 1 downto 0 do
    if Layout.dom layout i > 1 then
      items :=
        Fmt.str "%s=%a" (Layout.var_name layout i) Dom.pp sigma.(i) :: !items
  done;
  Fmt.pf fmt "{%s}" (String.concat " " !items)

let pp_summary fmt t =
  if t.degraded then
    Fmt.pf fmt "%s: degraded (%s over budget)@."
      (Program.name t.program) (Layout.states_string t.num_states)
  else begin
    let dead_top =
      List.length (List.filter (fun f -> not f.top_enabled) t.facts)
    in
    let dead_init =
      List.length
        (List.filter (fun f -> f.init_enabled = Some false) t.facts)
    in
    Fmt.pf fmt
      "%s: %d action(s), %d dead (full space), %d dead from init, %d \
       finding(s), init fixpoint in %d round(s)%s@."
      (Program.name t.program) (List.length t.facts) dead_top dead_init
      (List.length t.findings) t.init_rounds
      (if t.init_sound then "" else " [init claims suppressed]")
  end
