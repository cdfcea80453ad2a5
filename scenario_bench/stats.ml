(* Clock and order statistics shared by the end-to-end and traced runs. *)

(* Seconds on the monotonic clock (CLOCK_MONOTONIC, via Bechamel). *)
let now () = Int64.to_float (Monotonic_clock.now ()) *. 1e-9

let sorted xs = List.sort Float.compare xs

let median xs =
  match Array.of_list (sorted xs) with
  | [||] -> 0.
  | a ->
      let n = Array.length a in
      if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

(* First and third quartile by the "exclusive" method of Python's
   [statistics.quantiles(xs, n=4)], so spreads read the same here as in
   any script that re-derives them from the raw samples. *)
let quartiles xs =
  match Array.of_list (sorted xs) with
  | [||] -> (0., 0.)
  | [| x |] -> (x, x)
  | a ->
      let ld = Array.length a in
      let m = ld + 1 in
      let q i =
        let j = max 1 (min (i * m / 4) (ld - 1)) in
        let delta = (i * m) - (j * 4) in
        ((a.(j - 1) *. float (4 - delta)) +. (a.(j) *. float delta)) /. 4.
      in
      (q 1, q 3)
