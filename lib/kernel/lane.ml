(* Fixed-width integer lanes in [Bytes] (see the interface). *)

external get64u : Bytes.t -> int -> int64 = "%caml_bytes_get64u"
external get32u : Bytes.t -> int -> int32 = "%caml_bytes_get32u"
external set32u : Bytes.t -> int -> int32 -> unit = "%caml_bytes_set32u"
external get16u : Bytes.t -> int -> int = "%caml_bytes_get16u"
external set16u : Bytes.t -> int -> int -> unit = "%caml_bytes_set16u"

let max_lanes = 0x7fff_ffff

let create n = Bytes.create (4 * n)

let[@inline] get b k = Int32.to_int (get32u b (4 * k))

let[@inline] set b k v = set32u b (4 * k) (Int32.of_int v)

let make n v =
  let b = create n in
  for k = 0 to n - 1 do
    set b k v
  done;
  b

let length b = Bytes.length b / 4

let of_array a =
  let b = create (Array.length a) in
  Array.iteri (set b) a;
  b

let to_array b = Array.init (length b) (get b)
