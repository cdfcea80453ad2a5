(* Finite (prefixes of) computations as lists of state indices, plus the
   sequence-level notions from Section 2 of the paper: subsequence testing
   and convergence isomorphism. *)

type path = int list

let is_path expl p =
  let rec go = function
    | [] | [ _ ] -> true
    | i :: (j :: _ as rest) -> Explicit.has_edge expl i j && go rest
  in
  go p

(* A finite path is a (complete) computation iff it is a path ending in a
   terminal state. *)
let is_computation expl p =
  match List.rev p with
  | [] -> false
  | last :: _ -> is_path expl p && Explicit.is_terminal expl last

let stutter_normalize p =
  let rec go = function
    | x :: (y :: _ as rest) -> if x = y then go rest else x :: go rest
    | rest -> rest
  in
  go p

(* [is_subsequence ~sub ~of_] : can [sub] be obtained from [of_] by deleting
   elements? *)
let rec is_subsequence ~sub ~of_ =
  match (sub, of_) with
  | [], _ -> true
  | _ :: _, [] -> false
  | x :: sub', y :: of_' ->
      if x = y then is_subsequence ~sub:sub' ~of_:of_'
      else is_subsequence ~sub ~of_:of_'

let last_opt l = match List.rev l with [] -> None | x :: _ -> Some x

(* Convergence isomorphism on finite sequences: [c] is a subsequence of [a]
   with the same initial and final states (omissions are interior and, for
   finite sequences, necessarily finite). *)
let is_convergence_isomorphism ~candidate ~of_ =
  match (candidate, of_) with
  | [], [] -> true
  | [], _ | _, [] -> false
  | c0 :: _, a0 :: _ ->
      c0 = a0
      && last_opt candidate = last_opt of_
      && is_subsequence ~sub:candidate ~of_

(* Count how many states of [of_] are omitted by [candidate] along the
   greedy (left-most) embedding; [None] if not a subsequence. *)
let omissions ~candidate ~of_ =
  let rec go dropped sub of_ =
    match (sub, of_) with
    | [], rest -> Some (dropped + List.length rest)
    | _ :: _, [] -> None
    | x :: sub', y :: of_' ->
        if x = y then go dropped sub' of_' else go (dropped + 1) sub of_'
  in
  go 0 candidate of_

(* Enumerate all maximal paths from [start] cut off at [depth] states; a
   path shorter than [depth] ends in a terminal state.  For exhaustive
   small-scope tests. *)
let bounded_computations expl ~start ~depth =
  let rec go i d =
    if d <= 1 then [ [ i ] ]
    else
      match Explicit.successors expl i with
      | [||] -> [ [ i ] ]
      | js ->
          Array.to_list js
          |> List.concat_map (fun j -> List.map (fun p -> i :: p) (go j (d - 1)))
  in
  go start depth

let random_walk expl ~rng ~start ~max_len =
  let rec go acc i n =
    if n >= max_len then List.rev (i :: acc)
    else
      match Explicit.out_degree expl i with
      | 0 -> List.rev (i :: acc)
      | d ->
          let j = Explicit.successor expl i (Random.State.int rng d) in
          go (i :: acc) j (n + 1)
  in
  go [] start 0
