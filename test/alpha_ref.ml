(* The state-building α route that [Abstraction.tabulate]'s rank route
   replaced for abstractions into a guarded-command layout, kept as its
   reference: each image is built with [apply], ranked in the abstract
   layout with [Layout.checked_rank] (outside it there is no state) and
   found in the abstract graph with [find_opt].  The [Not_total]
   message is spelled out as that route wrote it, so tests compare
   messages byte for byte. *)

open Cr_semantics
module Layout = Cr_guarded.Layout

let tabulate ?(partial = false) ~layout alpha (c : _ Explicit.t)
    (a : _ Explicit.t) =
  let table = Array.make (Explicit.num_states c) 0 in
  Explicit.iter_states c (fun i s ->
      let image = Abstraction.apply alpha s in
      let found =
        if Layout.checked_rank layout image < 0 then None
        else Explicit.find_opt a image
      in
      table.(i) <-
        (match found with
        | Some j -> j
        | None when partial -> -1
        | None ->
            raise
              (Abstraction.Not_total
                 (Fmt.str
                    "abstraction %s: image of concrete state %s not a state \
                     of %s"
                    (Abstraction.name alpha)
                    (Explicit.state_to_string c i)
                    (Explicit.name a)))));
  table
