(* The abstract interpreter.  See flow.mli for the design contract; the
   load-bearing facts are the Rwsets differencing theorems:

     (1) a guard's value is exactly a function of its guard-read slots
         (over the whole space);
     (2) among enabled states, the value assigned to a written slot is
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
}

(* The support product needs no budget of its own: it is at most the
   number of states, which [Lint.over_budget] has bounded before any
   transfer runs. *)
let eval layout (info : Rwsets.info) (sigma : Dom.t array) : transfer =
  Cr_obs.Obs.incr c_transfers;
  let a = info.Rwsets.action in
  let nv = Layout.num_vars layout in
  let writes = info.Rwsets.writes in
  let outs =
    List.map (fun w -> (w, ref (Dom.bottom (Layout.dom layout w)))) writes
  in
  let result enabled invalid =
    { t_enabled = enabled;
      t_outputs = List.map (fun (w, acc) -> (w, !acc)) outs;
      t_invalid = invalid }
  in
  if Array.exists Dom.is_bottom sigma then
    (* empty concretization: nothing is enabled *)
    result false None
  else begin
    let support =
      List.sort_uniq compare
        (info.Rwsets.guard_reads @ info.Rwsets.effect_reads @ writes)
    in
    let product =
      List.fold_left (fun acc i -> acc * Dom.count sigma.(i)) 1 support
    in
    Cr_obs.Obs.observe h_support product;
    Cr_obs.Obs.add c_combos product;
    let s = Array.init nv (fun i -> Dom.choose sigma.(i)) in
    let slots = Array.of_list support in
    let vals =
      Array.map (fun i -> Array.of_list (Dom.to_list sigma.(i))) slots
    in
    (* per assignment, the output it feeds: none for an assigned slot
       that no firing changes (its value is always its input) *)
    let feeds =
      Array.map (fun (x, e) -> (x, e, List.assoc_opt x outs)) a.Action.assign
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
        Array.iter
          (fun (x, e, out) ->
            let v = e s in
            if v < 0 || v >= Layout.dom layout x then begin
              if !invalid = None then invalid := Some (Array.copy s)
            end
            else Option.iter (fun acc -> acc := Dom.add !acc v) out)
          feeds
      end
    done;
    result !enabled !invalid
  end

(* ---- the analysis ---- *)

let state_str layout s = Fmt.str "%a" (Layout.pp_state layout) s

let analyze ?(exact_budget = Lint.default_exact_budget) (p : Program.t) : t =
  Cr_obs.Obs.span "lint.flow.analyze" @@ fun () ->
  Cr_obs.Obs.incr c_programs;
  let layout = Program.layout p in
  let nv = Layout.num_vars layout in
  let ns = Layout.num_states layout in
  match Lint.over_budget ~exact_budget p with
  | Some b1 ->
      (* The localization substrate (exact Rwsets support) is itself a
         full-space pass; past the budget the honest answer is "not
         analyzed", not a blow-up. *)
      Cr_obs.Obs.incr c_degraded;
      Cr_obs.Obs.incr c_findings;
      { program = p; layout; num_states = ns; degraded = true; facts = [];
        init_seed = None; init_state = None; init_rounds = 0;
        init_sound = false; findings = [ b1 ] }
  | None ->
      let infos = Rwsets.of_program p in
      (* σ0: abstraction of the initial states.  The full space needs no
         analysis of its own: under ⊤ a transfer's enabledness and domain
         violations are exactly Rwsets' [enabled_states] and
         [invalid_witness]. *)
      let init_seed =
        Cr_obs.Obs.span "lint.flow.init_seed" @@ fun () ->
        match Program.initial_states p with
        | [] -> None
        | states ->
            let sigma =
              Array.init nv (fun i -> Dom.bottom (Layout.dom layout i))
            in
            List.iter
              (Array.iteri (fun i v -> sigma.(i) <- Dom.add sigma.(i) v))
              states;
            Some sigma
      in
      (* lfp of σ0 ⊔ post by chaotic iteration (the lattice is finite and
         every join only grows, so termination is immediate).  The last
         round changed nothing, so it evaluated every action at the
         fixpoint: its transfers are the per-action facts. *)
      let init_state, init_rounds, init_sound, init_trs =
        match init_seed with
        | None -> (None, 0, false, List.map (fun _ -> None) infos)
        | Some seed ->
            Cr_obs.Obs.span "lint.flow.fixpoint" @@ fun () ->
            let sigma = Array.copy seed in
            let sound = ref true in
            let rec round r =
              let changed = ref false in
              let trs =
                List.map
                  (fun info ->
                    let tr = eval layout info sigma in
                    if tr.t_invalid <> None then sound := false;
                    List.iter
                      (fun (w, dv) ->
                        let j = Dom.join sigma.(w) dv in
                        if not (Dom.equal j sigma.(w)) then begin
                          sigma.(w) <- j;
                          changed := true
                        end)
                      tr.t_outputs;
                    Some tr)
                  infos
              in
              if !changed then round (r + 1) else (r, trs)
            in
            let rounds, trs = round 1 in
            Cr_obs.Obs.add c_rounds rounds;
            (Some sigma, rounds, !sound, trs)
      in
      let facts =
        List.map2
          (fun info itr ->
            {
              info;
              init_enabled =
                (match itr with
                | Some it when init_sound -> Some it.t_enabled
                | _ -> None);
              init_invalid = Option.bind itr (fun it -> it.t_invalid);
            })
          infos init_trs
      in
      (* ---- the flow finding battery ---- *)
      let findings = ref [] in
      let add f = findings := f :: !findings in
      List.iter
        (fun fact ->
          (* D1 and U1/S1 through lint's own checks: one key per fact *)
          List.iter add (Lint.check_domains p fact.info);
          List.iter add
            (Lint.check_liveness p
               ~init_dead:(fun _ -> fact.init_enabled = Some false)
               ~live_from_init:(fun _ -> true) fact.info);
          (* F2: domain violations from fault-free values *)
          match fact.init_invalid with
          | Some s ->
              add
                (Lint.finding p Lint.Abstract "F2" Lint.Warning
                   (Action.label fact.info.Rwsets.action)
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
              (Lint.finding p Lint.Exact "F3" Lint.Info "-"
                 (Printf.sprintf
                    "slot %s is constant: no enabled action ever writes it"
                    (Layout.var_name layout i)))
          else
            match init_state with
            | Some sigma when init_sound && Dom.is_singleton sigma.(i) ->
                add
                  (Lint.finding p Lint.Abstract "F3" Lint.Info "-"
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

(* ---- lint v2 integration ---- *)

let init_dead t label =
  List.exists
    (fun f ->
      Action.label f.info.Rwsets.action = label && f.init_enabled = Some false)
    t.facts

let errors t =
  List.length (List.filter (fun f -> f.Lint.severity = Lint.Error) t.findings)

(* The findings worth merging into a classic lint report: flow's D1 and
   U1/S1 come from the checks lint's battery runs too, so only its own
   F2 and F3 add information. *)
let supplemental t =
  List.filter (fun f -> f.Lint.key = "F2" || f.Lint.key = "F3") t.findings

(* Over the budget, Lint.run yields the same B1 without starting its own
   full-space pass, and flow has nothing to add. *)
let lint ?allow ?exact_budget p =
  let t = analyze ?exact_budget p in
  let infos = List.map (fun f -> f.info) t.facts in
  let report =
    Lint.run ?allow ?exact_budget ~infos ~init_dead:(init_dead t) p
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
      List.length
        (List.filter (fun f -> f.info.Rwsets.enabled_states = 0) t.facts)
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
