(* Variable layout of a guarded-command program: a fixed list of named
   variables, each over a finite domain 0..dom-1.  A program state is an
   int array indexed by variable slot.  A domain of 1 encodes a variable
   fixed at 0 (e.g. the undefined tokens of the paper's BTR, or up.0/up.N
   in BTR_4). *)

type var = { vname : string; dom : int }

type t = {
  vars : var array;
  by_name : (string, int) Hashtbl.t;
}

type state = int array

let make vars_list =
  let vars =
    Array.of_list
      (List.map
         (fun (vname, dom) ->
           if dom < 1 then invalid_arg ("Layout.make: empty domain for " ^ vname);
           { vname; dom })
         vars_list)
  in
  let by_name = Hashtbl.create (2 * Array.length vars + 1) in
  Array.iteri
    (fun i v ->
      if Hashtbl.mem by_name v.vname then
        invalid_arg ("Layout.make: duplicate variable " ^ v.vname);
      Hashtbl.add by_name v.vname i)
    vars;
  { vars; by_name }

let num_vars t = Array.length t.vars

let dom t i = t.vars.(i).dom

let var_name t i = t.vars.(i).vname

let slot t name =
  match Hashtbl.find_opt t.by_name name with
  | Some i -> i
  | None -> invalid_arg ("Layout.slot: unknown variable " ^ name)

(* Saturating product: a wrapped count would slip past every
   [num_states > budget] guard as a negative or arbitrary number. *)
let num_states t =
  Array.fold_left
    (fun acc v -> if acc > max_int / v.dom then max_int else acc * v.dom)
    1 t.vars

(* [num_states] saturates at [max_int], so that count is only a lower
   bound. *)
let states_string ns =
  if ns = max_int then Printf.sprintf "more than %d states" ns
  else Printf.sprintf "%d states" ns

(* Mixed-radix state indexing (slot 0 is the least significant digit, so
   ranks agree with the historical [enumerate] order).  [rank] and
   [unrank] are mutually inverse bijections between valid states and
   [0 .. num_states - 1]; both are O(num_vars) integer arithmetic. *)

let rank t (s : state) =
  let n = Array.length t.vars in
  let k = ref 0 in
  for i = n - 1 downto 0 do
    k := (!k * t.vars.(i).dom) + s.(i)
  done;
  !k

(* Mixed-radix digit weight of a slot: the rank stride between two states
   that differ by one in that slot.  Lets analyses iterate "slot lines"
   (all states agreeing everywhere except one slot) by pure arithmetic. *)
let weight t i =
  let w = ref 1 in
  for k = 0 to i - 1 do
    w := !w * t.vars.(k).dom
  done;
  !w

(* One division per slot: the remainder is recovered from the
   quotient. *)
let unrank_into t k (s : state) =
  let k = ref k in
  for i = 0 to Array.length t.vars - 1 do
    let d = t.vars.(i).dom in
    let q = !k / d in
    s.(i) <- !k - (q * d);
    k := q
  done

let unrank t k =
  let s = Array.make (Array.length t.vars) 0 in
  unrank_into t k s;
  s

(* Enumerate all states in mixed-radix order (slot 0 fastest). *)
let enumerate t = List.init (num_states t) (unrank t)

(* Allocation-free iteration over the rank range [lo, hi): one scratch
   state, unranked once at [lo], is advanced in place through the
   mixed-radix order (slot 0 is the odometer's fastest digit), so each
   further state costs O(1) amortized writes instead of one fresh array.
   The callback must not retain [s]. *)
let iter_range t ~lo ~hi f =
  if lo < hi then begin
    let s = unrank t lo in
    f lo s;
    for k = lo + 1 to hi - 1 do
      let i = ref 0 in
      let carry = ref true in
      while !carry do
        let d = t.vars.(!i).dom in
        if s.(!i) + 1 < d then begin
          s.(!i) <- s.(!i) + 1;
          carry := false
        end
        else begin
          s.(!i) <- 0;
          incr i
        end
      done;
      f k s
    done
  end

let iter_states t f = iter_range t ~lo:0 ~hi:(num_states t) f

(* Fused validity test + rank: [-1] when the state is outside the
   layout.  One pass, no allocation. *)
let checked_rank t (s : state) =
  let n = Array.length t.vars in
  if Array.length s <> n then -1
  else begin
    let k = ref 0 in
    let ok = ref true in
    let i = ref (n - 1) in
    while !ok && !i >= 0 do
      let d = (Array.unsafe_get t.vars !i).dom in
      let v = Array.unsafe_get s !i in
      if v < 0 || v >= d then ok := false else k := (!k * d) + v;
      decr i
    done;
    if !ok then !k else -1
  end

(* Hash tables keyed by whole states.  The polymorphic [Hashtbl.hash]
   reads at most 10 fields of an array, so the states of any layout
   wider than that collide on everything past slot 9; this hash folds
   every slot (FNV-1a over native ints) and then xors the well-mixed
   high bits down, because the table indexes buckets by the low bits.
   Keys are whole arrays rather than ranks: closures may hold
   domain-invalid states, which have no rank. *)
let hash (s : state) =
  let h = ref 0x3bf29ce484222325 in
  for i = 0 to Array.length s - 1 do
    h := (!h lxor Array.unsafe_get s i) * 0x100000001b3
  done;
  (!h lxor (!h lsr 32)) land max_int

module Tbl = Hashtbl.Make (struct
  type t = state

  let equal (a : state) (b : state) =
    let n = Array.length a in
    n = Array.length b
    &&
    let i = ref 0 in
    while !i < n && Array.unsafe_get a !i = Array.unsafe_get b !i do
      incr i
    done;
    !i = n

  let hash = hash
end)

let pp_state t fmt (s : state) =
  let items =
    Array.to_list (Array.mapi (fun i v -> Printf.sprintf "%s=%d" v.vname s.(i)) t.vars)
  in
  (* Hide domain-1 (fixed) variables to keep states readable. *)
  let items =
    List.filteri (fun i _ -> t.vars.(i).dom > 1) (List.mapi (fun i x -> (i, x)) items)
    |> List.map snd
  in
  Fmt.pf fmt "{%s}" (String.concat " " items)
