(* Exact per-action read/write sets by finite differencing.

   Guards and effects are opaque closures, but domains are finite, so
   dependence is decidable by perturbation: slot i is read iff changing
   only slot i can change the guard's value (guard read) or the effect's
   written values (effect read), and written iff some enabled state's
   effect changes it.  All sets are exact w.r.t. the program semantics:
   reads are compared only across states the guard admits (a disabled
   state never fires), and a slot the effect merely passes through
   (output = input on every enabled state) is neither read nor written —
   extensionally the effect does not touch it.

   Cost per action: one allocation-free Layout.iter_states sweep that
   evaluates every state once, caching the guard bit in a Bytes and the
   effect's result as its rank (Layout.checked_rank) in one unboxed int
   array; then one arithmetic pass per slot over the "slot lines" (states
   differing only in that slot, enumerated via Layout.weight) that
   compares integers only.  A result outside the layout (rank -1: an
   out-of-domain or wrong-length effect, D1 material) keeps its array in
   a side table keyed by source rank, so every comparison stays exact.
   Memory is one byte plus one word per state, plus the side table.

   Why integers suffice.  Let ka, kb be enabled states on one line of a
   slot i outside the write set, with valid results of ranks ra, rb.
   Every slot but the write slots passes through, i included, so the
   results write the same values iff they differ only in slot i (where
   they hold the inputs' values va, vb), iff ra - rb = ka - kb: forward
   by the mixed-radix rank formula; backward because the result at ka
   with slot i moved from va to vb is a valid state of rank rb, and rank
   is a bijection on valid states.  Write slots (where a constant write
   breaks the argument) and copy sources compare digits
   (rank / weight j) mod dom j of the same caches instead. *)

open Cr_guarded

type info = {
  action : Action.t;
  enabled_states : int;  (* states where the guard holds *)
  firing_states : int;  (* enabled states where the effect is not a no-op *)
  writes : int list;  (* slots some enabled state's effect changes *)
  guard_reads : int list;  (* slots the guard's value depends on *)
  effect_reads : int list;  (* slots the written values depend on *)
  copy_sources : int list;
      (* when [writes = [w]]: slots r <> w with effect(s).(w) = s.(r) on
         every enabled state — the signature of an atomic read step *)
  invalid_witness : Layout.state option;
      (* an enabled state whose effect leaves the layout's domains *)
}

let c_actions = Cr_obs.Obs.counter "lint.rwsets.actions"
let c_state_evals = Cr_obs.Obs.counter "lint.rwsets.state_evals"

let slots_of_mask mask =
  let acc = ref [] in
  Array.iteri (fun i b -> if b then acc := i :: !acc) mask;
  List.rev !acc

let of_action layout (a : Action.t) : info =
  Cr_obs.Obs.span "lint.rwsets" @@ fun () ->
  let nv = Layout.num_vars layout in
  let ns = Layout.num_states layout in
  let dom = Array.init nv (Layout.dom layout) in
  let weight = Array.init nv (Layout.weight layout) in
  let guard = a.Action.guard and effect = a.Action.effect in
  (* Pass 1: evaluate every state once; cache guard bits and effect
     ranks by source rank; collect the exact write set. *)
  let gcache = Bytes.make ns '\000' in
  let erank = Array.make ns 0 in
  (* results of rank -1, by source rank *)
  let outside = Hashtbl.create 8 in
  let enabled = ref 0 and firing = ref 0 in
  let wmask = Array.make nv false in
  let invalid = ref None in
  Layout.iter_states layout (fun k s ->
      if guard s then begin
        Bytes.unsafe_set gcache k '\001';
        incr enabled;
        let s' = effect s in
        let r = Layout.checked_rank layout s' in
        Array.unsafe_set erank k r;
        if r < 0 then begin
          Hashtbl.replace outside k s';
          if !invalid = None then invalid := Some (Array.copy s)
        end;
        (* rank -1 always fires: a wrong length or an out-of-domain slot *)
        if r <> k then begin
          incr firing;
          for i = 0 to min (Array.length s') nv - 1 do
            if s'.(i) <> s.(i) then wmask.(i) <- true
          done
        end
      end);
  Cr_obs.Obs.incr c_actions;
  Cr_obs.Obs.add c_state_evals ns;
  let writes = slots_of_mask wmask in
  let enabled_at k = Bytes.unsafe_get gcache k = '\001' in
  let digit r j = r / Array.unsafe_get weight j mod Array.unsafe_get dom j in
  (* Results of the wrong length are never compared slot by slot. *)
  let full k =
    Array.unsafe_get erank k >= 0
    || Array.length (Hashtbl.find outside k) = nv
  in
  (* Slot [j] of the (full) result at enabled state [k]. *)
  let out k j =
    let r = Array.unsafe_get erank k in
    if r >= 0 then digit r j else (Hashtbl.find outside k).(j)
  in
  (* Copy sources: single-write actions whose written value is a verbatim
     copy of one other slot on every enabled state. *)
  let copy_sources =
    match writes with
    | [ w ] ->
        let copies r =
          let k = ref 0 in
          while
            !k < ns
            && not (enabled_at !k && full !k && out !k w <> digit !k r)
          do
            incr k
          done;
          !k = ns
        in
        List.filter (fun r -> r <> w && copies r) (List.init nv Fun.id)
    | _ -> []
  in
  (* Pass 2: finite differencing along slot lines, all from the caches.
     For effect reads, only the exact write slots can differ between two
     enabled states (pass 1 makes every other slot a pass-through); the
     perturbed slot itself counts only when the difference is not two
     pass-throughs. *)
  let is_write = Array.make nv false in
  List.iter (fun w -> is_write.(w) <- true) writes;
  let writes_a = Array.of_list writes in
  (* Do the results at enabled states [ka], [kb] of one slot-[i] line,
     holding [va < vb] there, write different values? *)
  let differ i ka kb va vb =
    let ra = Array.unsafe_get erank ka and rb = Array.unsafe_get erank kb in
    if ra >= 0 && rb >= 0 && not is_write.(i) then ra - rb <> ka - kb
    else if full ka && full kb then begin
      let d = ref false and x = ref 0 in
      while (not !d) && !x < Array.length writes_a do
        let j = writes_a.(!x) in
        let ea = out ka j and eb = out kb j in
        if ea <> eb && (j <> i || not (ea = va && eb = vb)) then d := true;
        incr x
      done;
      !d
    end
    else false
  in
  let greads = Array.make nv false and ereads = Array.make nv false in
  for i = 0 to nv - 1 do
    let d = dom.(i) in
    if d > 1 then begin
      let w = weight.(i) in
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
              if enabled_at ka then begin
                let vb = ref (!va + 1) in
                while !vb < d && not ereads.(i) do
                  let kb = base + (!vb * w) in
                  if enabled_at kb && differ i ka kb !va !vb then
                    ereads.(i) <- true;
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
    action = a;
    enabled_states = !enabled;
    firing_states = !firing;
    writes;
    guard_reads = slots_of_mask greads;
    effect_reads = slots_of_mask ereads;
    copy_sources;
    invalid_witness = !invalid;
  }

(* Per-action inference is embarrassingly parallel: each [of_action]
   touches only its own caches, so the CR_JOBS fan-out merges back by
   index into exactly the sequential list. *)
let of_program (p : Program.t) : info list =
  let layout = Program.layout p in
  Cr_kernel.Par.map (of_action layout) (Program.actions p)

let reads info =
  List.sort_uniq compare (info.guard_reads @ info.effect_reads)

let pp fmt (layout, info) =
  let names l =
    String.concat "," (List.map (Layout.var_name layout) l)
  in
  Fmt.pf fmt "%s: writes={%s} guard_reads={%s} effect_reads={%s} enabled=%d firing=%d"
    (Action.label info.action) (names info.writes) (names info.guard_reads)
    (names info.effect_reads) info.enabled_states info.firing_states
