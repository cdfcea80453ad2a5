(* The read/write-set inference that Cr_lint.Rwsets.of_action replaced:
   the independent reference its rank-cached kernel is property-tested
   against.  Same finite differencing, written directly over states: a
   fresh [Layout.unrank] array per state, one cached effect array per
   enabled state, and slot-by-slot comparison of those arrays along each
   slot line.  Slower and allocation-heavy, which the small layouts of
   the tests can afford. *)

open Cr_guarded
module Rwsets = Cr_lint.Rwsets

let slots_of_mask mask =
  let acc = ref [] in
  Array.iteri (fun i b -> if b then acc := i :: !acc) mask;
  List.rev !acc

let of_action layout (a : Action.t) : Rwsets.info =
  let nv = Layout.num_vars layout in
  let ns = Layout.num_states layout in
  let guard = a.Action.guard and effect = a.Action.effect in
  (* Pass 1: evaluate every state once; cache guard bits and effect
     results by rank; collect the exact write set. *)
  let gcache = Bytes.make ns '\000' in
  let ecache = Array.make ns [||] in
  (* [||] marks a disabled state *)
  let enabled = ref 0 and firing = ref 0 in
  let wmask = Array.make nv false in
  let invalid = ref None in
  for k = 0 to ns - 1 do
    let s = Layout.unrank layout k in
    if guard s then begin
      Bytes.unsafe_set gcache k '\001';
      incr enabled;
      let s' = effect s in
      ecache.(k) <- s';
      if not (Layout.valid layout s') && !invalid = None then
        invalid := Some s;
      let changed = ref (Array.length s' <> nv) in
      let m = min (Array.length s') nv in
      for i = 0 to m - 1 do
        if s'.(i) <> s.(i) then begin
          wmask.(i) <- true;
          changed := true
        end
      done;
      if !changed then incr firing
    end
  done;
  let writes = slots_of_mask wmask in
  (* Copy sources: single-write actions whose written value is a verbatim
     copy of one other slot on every enabled state. *)
  let copy_sources =
    match writes with
    | [ w ] ->
        let cand = Array.make nv true in
        cand.(w) <- false;
        for k = 0 to ns - 1 do
          if Bytes.unsafe_get gcache k = '\001' then begin
            let s = Layout.unrank layout k in
            let s' = ecache.(k) in
            if Array.length s' = nv then
              for r = 0 to nv - 1 do
                if cand.(r) && s'.(w) <> s.(r) then cand.(r) <- false
              done
          end
        done;
        slots_of_mask cand
    | _ -> []
  in
  (* Pass 2: finite differencing along slot lines, all from the caches.
     For effect reads, only the exact write slots can differ between two
     enabled states (pass 1 makes every other slot a pass-through); the
     perturbed slot itself counts only when the difference is not two
     pass-throughs. *)
  let greads = Array.make nv false and ereads = Array.make nv false in
  for i = 0 to nv - 1 do
    let d = Layout.dom layout i in
    if d > 1 then begin
      let w = Layout.weight layout i in
      let lines = ns / (w * d) in
      let line = ref 0 in
      while !line < lines && not (greads.(i) && ereads.(i)) do
        let hi = !line in
        let lo = ref 0 in
        while !lo < w && not (greads.(i) && ereads.(i)) do
          let base = !lo + (w * d * hi) in
          let g0 = Bytes.unsafe_get gcache base in
          (if not greads.(i) then
             let v = ref 1 in
             while !v < d do
               if Bytes.unsafe_get gcache (base + (!v * w)) <> g0 then begin
                 greads.(i) <- true;
                 v := d
               end
               else incr v
             done);
          if not ereads.(i) then begin
            (* pairwise over the enabled states of the line *)
            let va = ref 0 in
            while !va < d - 1 && not ereads.(i) do
              let ka = base + (!va * w) in
              if Bytes.unsafe_get gcache ka = '\001' then begin
                let ea = ecache.(ka) in
                let vb = ref (!va + 1) in
                while !vb < d && not ereads.(i) do
                  let kb = base + (!vb * w) in
                  if Bytes.unsafe_get gcache kb = '\001' then begin
                    let eb = ecache.(kb) in
                    if Array.length ea = nv && Array.length eb = nv then
                      List.iter
                        (fun k ->
                          if not ereads.(i) then
                            if k <> i then begin
                              if ea.(k) <> eb.(k) then ereads.(i) <- true
                            end
                            else if
                              ea.(i) <> eb.(i)
                              && not (ea.(i) = !va && eb.(i) = !vb)
                            then ereads.(i) <- true)
                        writes
                  end;
                  incr vb
                done
              end;
              incr va
            done
          end;
          incr lo
        done;
        incr line
      done
    end
  done;
  {
    Rwsets.action = a;
    enabled_states = !enabled;
    firing_states = !firing;
    writes;
    guard_reads = slots_of_mask greads;
    effect_reads = slots_of_mask ereads;
    copy_sources;
    invalid_witness = !invalid;
  }

(* Every field of an [info], the action by its label: what the kernel
   and this reference must agree on. *)
let fields (i : Rwsets.info) =
  ( Action.label i.Rwsets.action,
    i.Rwsets.enabled_states,
    i.Rwsets.firing_states,
    i.Rwsets.writes,
    i.Rwsets.guard_reads,
    i.Rwsets.effect_reads,
    i.Rwsets.copy_sources,
    i.Rwsets.invalid_witness )
