(* Exact per-action read/write sets by finite differencing.

   Guards and right-hand sides are opaque closures, but domains are
   finite, so dependence is decidable by perturbation: slot i is read
   iff changing only slot i can change the guard's value (guard read) or
   the assigned values (effect read), and written iff some enabled
   state's assignment changes it.  All sets are exact w.r.t. the program
   semantics: reads are compared only across states the guard admits (a
   disabled state never fires), and an assigned slot whose value always
   equals its input on enabled states is neither read nor written —
   extensionally the action does not touch it.

   Cost per action: one allocation-free Layout.iter_states sweep, the
   only pass that evaluates anything.  It calls the guard once per state
   and each right-hand side once per enabled state, and keeps a byte per
   state (the guard bit) and a four-byte lane per state (the result's
   rank, the state's own moved by the assigned values times their slots'
   weights; all ones outside the layout).  A slot joins the exact write
   set W where an assigned value differs from its input.  A result
   outside the layout (an out-of-domain value, D1 material) keeps its
   post-state in a side table keyed by source rank.  Then:

   - Codes.  One pass gives every enabled result a code for its W-tuple
     (the values it writes to W), 0 for a disabled state, written over
     the ranks in place and packed into
     the narrowest lanes that hold them: one byte while at most 255
     tuples occur, 2 or 4 only when more do.  A valid tuple is looked up
     by its W digits in a table over W's domains; an out-of-domain tuple
     (its bad value is always in W) by its values.  Sources that agree
     on W and move the rank by as much write the same tuple, since
     outside W every slot passes through; so the digits are only taken
     where the move changes.
   - Questions as compares of byte runs.  Slot i is a guard read iff two
     neighbours on a slot-i line (states differing only in slot i, one
     step apart) have different guard bits.  Slot i outside W is an
     effect read iff two states of a slot-i line carry two nonzero codes
     that differ: i passes through, so the written values differ iff the
     W-tuples do.  Slot r is a copy source of W = {w} iff every nonzero
     code of a state whose slot r holds v is the code of the tuple (v).
     Within a block of slot i (weight w, domain d: w * d consecutive
     states, the digit of i running 0 .. d - 1 in runs of w), the states
     with digit below d - δ form one contiguous run, and their partners
     δ steps along the line lie w * δ further on; so each question
     compares two runs (or one run and a constant) eight bytes at a time,
     with lane-wise nonzero tests (SWAR) where a zero code must not
     count; two equal words cost one compare.
   - One scan for an unread slot.  Code 0 means disabled, so a slot
     whose neighbouring codes are equal everywhere is neither a guard nor
     an effect read; only a slot that fails that scan is asked the
     questions above.
   - Only a write slot i keeps a per-pair test: there two results may
     differ in i alone by each passing its own input through, which is
     no read.  It runs only where the run compares flag a pair.

   Memory is five bytes per state (guard bits, then ranks turned codes),
   plus the side table and the table over W's domains. *)

open Cr_guarded
module Lane = Cr_kernel.Lane

type info = {
  action : Action.t;
  enabled_states : int;  (* states where the guard holds *)
  firing_states : int;  (* enabled states where the assignment is not a no-op *)
  writes : int list;  (* slots some enabled state's assignment changes *)
  guard_reads : int list;  (* slots the guard's value depends on *)
  effect_reads : int list;  (* slots the written values depend on *)
  copy_sources : int list;
      (* when [writes = [w]]: slots r <> w whose value is assigned to w
         on every enabled state — the signature of an atomic read step *)
  invalid_witness : Layout.state option;
      (* an enabled state whose assignment leaves the layout's domains *)
}

let c_actions = Cr_obs.Obs.counter "lint.rwsets.actions"
let c_state_evals = Cr_obs.Obs.counter "lint.rwsets.state_evals"

let slots_of_mask mask =
  let acc = ref [] in
  Array.iteri (fun i b -> if b then acc := i :: !acc) mask;
  List.rev !acc

(* ---- byte runs, a word at a time ---- *)

(* Buffers carry one word past their last lane, so the word that holds
   a run shorter than a word can be loaded whole. *)
let pad = 8

(* [Lane.get64u prefix (8 - n)] keeps the first [n] bytes of a word: n bytes
   of ones, then zeros, in memory order under either endianness. *)
let prefix = Bytes.init 16 (fun i -> if i < 8 then '\255' else '\000')

(* The high bit of every lane of [u] bytes, and the value 1 in every
   lane.  Lanes are stored and loaded in native order, so a word holds
   whole lanes whatever the endianness. *)
let lane_high = function
  | 1 -> 0x8080808080808080L
  | 2 -> 0x8000800080008000L
  | _ -> 0x8000000080000000L

let lane_one = function
  | 1 -> 0x0101010101010101L
  | 2 -> 0x0001000100010001L
  | _ -> 0x0000000100000001L

(* The high bit of every nonzero lane of [v]: a lane's low bits plus
   their maximum carry into its high bit iff one of them is set, and
   never into the next lane. *)
let[@inline] nonzero h v =
  let l = Int64.lognot h in
  Int64.logand (Int64.logor (Int64.add (Int64.logand v l) l) v) h

(* What makes a lane x signal against its partner y. *)
type test =
  | Differ  (* x <> y *)
  | Both_differ  (* x <> 0, y <> 0 and x <> y *)
  | Not_target  (* x <> 0 and x <> y *)

(* Whether a lane of [x] selected by [mask] signals against [y] ([h]:
   the lanes' high bits).  Equal words never do, and most words are
   equal, so that test comes first. *)
let[@inline] signal test h mask x y =
  let z = Int64.logand (Int64.logxor x y) mask in
  z <> 0L
  &&
  match test with
  | Differ -> true
  | Both_differ ->
      Int64.logand (Int64.logand (nonzero h x) (nonzero h y)) (nonzero h z)
      <> 0L
  | Not_target -> Int64.logand (nonzero h x) (nonzero h z) <> 0L

(* Over every block of a slot of weight [w] and domain [d] in [buf]
   ([ns] states, [u] bytes each), does a state whose digit lies in
   [v0, v1) signal under [test] against its partner: the state [off]
   further on, or the constant [target] when [off = 0]?  Those states
   form one contiguous run per block.  A run shorter than a word is one
   masked word; a longer one ends in a word overlapping its
   predecessor. *)
let signals buf ~u ~ns ~w ~d ~v0 ~v1 ~off ~target test =
  let h = lane_high u in
  let t = Int64.mul (Int64.of_int target) (lane_one u) in
  let block = w * d * u and offb = off * u in
  let len = (v1 - v0) * w * u in
  let short = if len >= 8 then -1L else Lane.get64u prefix (8 - len) in
  let stop = ns * u in
  let found = ref false and blk = ref (v0 * w * u) in
  while (not !found) && !blk < stop do
    let fin = !blk + len in
    let p = ref !blk in
    while (not !found) && !p < fin do
      let q =
        if !p + 8 <= fin then !p else if fin - 8 > !blk then fin - 8 else !blk
      in
      let x = Lane.get64u buf q in
      let y = if offb = 0 then t else Lane.get64u buf (q + offb) in
      let mask = if fin - q >= 8 then -1L else short in
      if signal test h mask x y then found := true;
      p := !p + 8
    done;
    blk := !blk + block
  done;
  !found

(* ---- codes ---- *)

(* Lane [k] of [u] bytes in [b] ([u] in 1, 2, 4), unsigned. *)
let[@inline] get_lane b u k =
  match u with
  | 1 -> Char.code (Bytes.unsafe_get b k)
  | 2 -> Lane.get16u b (2 * k)
  | _ -> Int32.to_int (Lane.get32u b (4 * k)) land 0xffff_ffff

let[@inline] set_lane b u k v =
  match u with
  | 1 -> Bytes.unsafe_set b k (Char.unsafe_chr v)
  | 2 -> Lane.set16u b (2 * k) v
  | _ -> Lane.set32u b (4 * k) (Int32.of_int v)

(* The sweep keeps each result's rank in a four-byte lane, all ones (a
   value of at least [ns]) for a result outside the layout; so a layout
   may have at most [max_states] states. *)
let rank_bytes = 4
let max_states = Lane.max_lanes

(* The codes of an action's results and what they stand for. *)
type codes = {
  u : int;  (* bytes per code *)
  buf : Bytes.t;  (* code of state k in lane k *)
  tuples : int array;  (* the W-tuple of code c at [c * nw ..] *)
  valid : int array;
      (* the code of each valid W-tuple, by its mixed-radix index over
         W's domains; 0 while no result has it *)
  bad : (int array, int) Hashtbl.t;  (* out-of-domain tuples *)
}

let code c k = get_lane c.buf c.u k

(* The coding pass over the sweep's [lanes] (the result rank of each
   enabled state, all ones outside the layout).  Codes are written in
   place, packed into the narrowest lanes that hold them: lane k moves
   down to byte k * u, never over a rank not yet read.  When W's domains
   and the out-of-layout results bound the tuples below 256, the pass
   writes bytes at once; otherwise it writes codes over the ranks and
   packs them after. *)
let code_results layout ~ns ~gcache ~lanes ~outside wa =
  let nw = Array.length wa in
  let wdom = Array.map (Layout.dom layout) wa in
  let wweight = Array.map (Layout.weight layout) wa in
  let radix = Array.make nw 1 in
  for x = 1 to nw - 1 do
    radix.(x) <- radix.(x - 1) * wdom.(x - 1)
  done;
  let valid = Array.make (Array.fold_left ( * ) 1 wdom) 0 in
  let bad = Hashtbl.create 8 in
  let tuples = ref (Array.make (16 * nw) 0) and ncodes = ref 0 in
  let add_tuple value =
    incr ncodes;
    let base = !ncodes * nw in
    if base + nw > Array.length !tuples then begin
      let bigger = Array.make (2 * (base + nw)) 0 in
      Array.blit !tuples 0 bigger 0 (Array.length !tuples);
      tuples := bigger
    end;
    for x = 0 to nw - 1 do
      !tuples.(base + x) <- value x
    done
  in
  let bound =
    Array.fold_left (fun b d -> min 0x100 (b * d)) 1 wdom
    + Hashtbl.length outside
  in
  let u0 = if bound < 0x100 then 1 else rank_bytes in
  (* Within a chunk of [chunk] states (the weight of W's lowest slot) the
     sources agree on W, and outside W every slot passes through, so
     results that moved the rank by as much write the same W-tuple. *)
  let chunk = if nw = 0 then ns else wweight.(0) in
  let k0 = ref 0 in
  while !k0 < ns do
    let last_move = ref min_int and last_code = ref 0 in
    for k = !k0 to !k0 + chunk - 1 do
      let c =
        if Bytes.unsafe_get gcache k <> '\001' then 0
        else
          let r = get_lane lanes rank_bytes k in
          if r < ns then begin
            if r - k <> !last_move then begin
              let t = ref 0 in
              for x = 0 to nw - 1 do
                t := !t + (r / wweight.(x) mod wdom.(x) * radix.(x))
              done;
              if valid.(!t) = 0 then begin
                add_tuple (fun x -> r / wweight.(x) mod wdom.(x));
                valid.(!t) <- !ncodes
              end;
              last_move := r - k;
              last_code := valid.(!t)
            end;
            !last_code
          end
          else
            let s' = Hashtbl.find outside k in
            let t = Array.map (fun j -> s'.(j)) wa in
            match Hashtbl.find_opt bad t with
            | Some c -> c
            | None ->
                add_tuple (fun x -> t.(x));
                Hashtbl.replace bad t !ncodes;
                !ncodes
      in
      set_lane lanes u0 k c
    done;
    k0 := !k0 + chunk
  done;
  let u = if !ncodes < 0x100 then 1 else if !ncodes < 0x10000 then 2 else 4 in
  if u < u0 then
    for k = 0 to ns - 1 do
      set_lane lanes u k (get_lane lanes u0 k)
    done;
  if u < rank_bytes then Bytes.fill lanes (ns * u) pad '\000';
  { u; buf = lanes; tuples = !tuples; valid; bad }

let of_action layout (a : Action.t) : info =
  Cr_obs.Obs.span "lint.rwsets" @@ fun () ->
  let nv = Layout.num_vars layout in
  let ns = Layout.num_states layout in
  let dom = Array.init nv (Layout.dom layout) in
  let weight = Array.init nv (Layout.weight layout) in
  let guard = a.Action.guard and assign = a.Action.assign in
  if ns > max_states then
    invalid_arg
      (Printf.sprintf "Rwsets.of_action: %s (at most %d)"
         (Layout.states_string ns) max_states);
  (* The sweep: evaluate every state once; cache guard bits and result
     ranks by source rank; collect the exact write set. *)
  let gcache = Bytes.make (ns + pad) '\000' in
  let lanes = Bytes.make ((ns * rank_bytes) + pad) '\000' in
  (* results outside the layout, by source rank *)
  let outside = Hashtbl.create 8 in
  let enabled = ref 0 and firing = ref 0 in
  let wmask = Array.make nv false in
  let invalid = ref None in
  Layout.iter_states layout (fun k s ->
      if guard s then begin
        Bytes.unsafe_set gcache k '\001';
        incr enabled;
        (* the result's rank moves by (v - s.(x)) * weight x per
           assignment x := v, while every v stays in its domain *)
        let r = ref k and moved = ref false in
        for x = 0 to Array.length assign - 1 do
          let j, e = Array.unsafe_get assign x in
          let v = e s in
          if v <> s.(j) then begin
            moved := true;
            wmask.(j) <- true;
            if v < 0 || v >= dom.(j) then r := -1
            else if !r >= 0 then r := !r + ((v - s.(j)) * weight.(j))
          end
        done;
        if !moved then incr firing;
        set_lane lanes rank_bytes k !r;
        if !r < 0 then begin
          let s' = Array.copy s in
          Array.iter (fun (j, e) -> s'.(j) <- e s) assign;
          Hashtbl.replace outside k s';
          if !invalid = None then invalid := Some (Array.copy s)
        end
      end);
  Cr_obs.Obs.incr c_actions;
  Cr_obs.Obs.add c_state_evals ns;
  let writes = slots_of_mask wmask in
  let wa = Array.of_list writes in
  let nw = Array.length wa in
  let codes = code_results layout ~ns ~gcache ~lanes ~outside wa in
  let u = codes.u and cbuf = codes.buf and tuples = codes.tuples in
  (* Copy sources: single-write actions whose written value is a verbatim
     copy of one other slot on every enabled state. *)
  let copy_sources =
    match writes with
    | [ w ] ->
        (* the code of the tuple (v), 0 when no result wrote v *)
        let target v =
          if v < dom.(w) then codes.valid.(v)
          else Option.value ~default:0 (Hashtbl.find_opt codes.bad [| v |])
        in
        let copies r =
          (* a one-value slot is one run over the whole space *)
          let wr, d = if dom.(r) = 1 then (ns, 1) else (weight.(r), dom.(r)) in
          let rec from v =
            v = d
            || (not
                  (signals cbuf ~u ~ns ~w:wr ~d ~v0:v ~v1:(v + 1) ~off:0
                     ~target:(target v) Not_target))
               && from (v + 1)
          in
          from 0
        in
        List.filter (fun r -> r <> w && copies r) (List.init nv Fun.id)
    | _ -> []
  in
  (* A write slot [i] (at [x] in W) is an effect read iff two enabled
     results on a slot-i line, holding [va < vb] there, have
     different tuples, unless they differ in [i] alone and each holds
     its own input there. *)
  let write_slot_read i x =
    let d = dom.(i) and w = weight.(i) in
    let passes ca cb va vb =
      tuples.((ca * nw) + x) = va
      && tuples.((cb * nw) + x) = vb
      &&
      let same = ref true in
      for y = 0 to nw - 1 do
        if y <> x && tuples.((ca * nw) + y) <> tuples.((cb * nw) + y) then
          same := false
      done;
      !same
    in
    let read = ref false and blk = ref 0 in
    while (not !read) && !blk < ns do
      let va = ref 0 in
      while (not !read) && !va < d - 1 do
        let lo = ref 0 in
        while (not !read) && !lo < w do
          let ka = !blk + (!va * w) + !lo in
          let ca = code codes ka in
          if ca <> 0 then
            for vb = !va + 1 to d - 1 do
              let cb = code codes (ka + ((vb - !va) * w)) in
              if cb <> 0 && cb <> ca && not (passes ca cb !va vb) then
                read := true
            done;
          incr lo
        done;
        incr va
      done;
      blk := !blk + (w * d)
    done;
    !read
  in
  let greads = Array.make nv false and ereads = Array.make nv false in
  for i = 0 to nv - 1 do
    let d = dom.(i) and w = weight.(i) in
    if d > 1 then begin
      let neighbours buf ~u =
        signals buf ~u ~ns ~w ~d ~v0:0 ~v1:(d - 1) ~off:w ~target:0 Differ
      in
      (* two nonzero codes that differ, [delta] or more steps apart on a
         line *)
      let rec apart delta =
        delta < d
        && (signals cbuf ~u ~ns ~w ~d ~v0:0 ~v1:(d - delta) ~off:(delta * w)
              ~target:0 Both_differ
           || apart (delta + 1))
      in
      (* [greads.(i)], and whether two nonzero codes differ on a slot-i
         line: the effect-read answer outside W, a necessary condition in
         it.  Code 0 means disabled, so equal neighbouring codes
         everywhere settle both questions at once; and off a guard read,
         a line's codes are all zero or all nonzero, so differing
         neighbours are two nonzero codes. *)
      let g, e =
        if not (neighbours cbuf ~u) then (false, false)
        else
          let g = neighbours gcache ~u:1 in
          (g, (not g) || apart 1)
      in
      greads.(i) <- g;
      ereads.(i) <-
        e
        &&
        match Array.find_index (( = ) i) wa with
        | Some x -> write_slot_read i x
        | None -> true
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
