(* Minimal JSON checker and parser (RFC 8259 syntax).

   The repo is kept dependency-free, so the trace artifacts written by
   {!Obs.write_trace}, the bench [--json] output, the [CR_JOURNAL] JSONL
   stream and the perfdiff inputs are handled by this recursive-descent
   parser instead of a full JSON library.  [validate_*] only recognizes
   (no AST); [parse_string] additionally builds a value, which perfdiff
   and crcheck validate consume. *)

type pos = { mutable i : int }

exception Bad of int * string

let error p msg = raise (Bad (p.i, msg))

let peek s p = if p.i < String.length s then Some s.[p.i] else None

let advance p = p.i <- p.i + 1

let skip_ws s p =
  let continue = ref true in
  while !continue do
    match peek s p with
    | Some (' ' | '\t' | '\n' | '\r') -> advance p
    | _ -> continue := false
  done

let expect s p c =
  match peek s p with
  | Some c' when c' = c -> advance p
  | Some c' -> error p (Printf.sprintf "expected %c, got %c" c c')
  | None -> error p (Printf.sprintf "expected %c, got end of input" c)

let lit s p word =
  String.iter (fun c -> expect s p c) word

let is_digit = function '0' .. '9' -> true | _ -> false

let is_hex = function
  | '0' .. '9' | 'a' .. 'f' | 'A' .. 'F' -> true
  | _ -> false

(* Recognize and decode a string literal.  Escapes decode to their
   characters; \uXXXX decodes to UTF-8 (surrogates are not paired —
   artifacts here are ASCII in practice). *)
let string_body s p =
  expect s p '"';
  let buf = Buffer.create 16 in
  let continue = ref true in
  while !continue do
    match peek s p with
    | None -> error p "unterminated string"
    | Some '"' ->
        advance p;
        continue := false
    | Some '\\' -> (
        advance p;
        match peek s p with
        | Some ('"' as c) | Some ('\\' as c) | Some ('/' as c) ->
            Buffer.add_char buf c;
            advance p
        | Some 'b' -> Buffer.add_char buf '\b'; advance p
        | Some 'f' -> Buffer.add_char buf '\012'; advance p
        | Some 'n' -> Buffer.add_char buf '\n'; advance p
        | Some 'r' -> Buffer.add_char buf '\r'; advance p
        | Some 't' -> Buffer.add_char buf '\t'; advance p
        | Some 'u' ->
            advance p;
            let code = ref 0 in
            for _ = 1 to 4 do
              match peek s p with
              | Some c when is_hex c ->
                  let d =
                    match c with
                    | '0' .. '9' -> Char.code c - Char.code '0'
                    | 'a' .. 'f' -> Char.code c - Char.code 'a' + 10
                    | _ -> Char.code c - Char.code 'A' + 10
                  in
                  code := (!code * 16) + d;
                  advance p
              | _ -> error p "bad \\u escape"
            done;
            let u = !code in
            if u < 0x80 then Buffer.add_char buf (Char.chr u)
            else if u < 0x800 then begin
              Buffer.add_char buf (Char.chr (0xc0 lor (u lsr 6)));
              Buffer.add_char buf (Char.chr (0x80 lor (u land 0x3f)))
            end
            else begin
              Buffer.add_char buf (Char.chr (0xe0 lor (u lsr 12)));
              Buffer.add_char buf (Char.chr (0x80 lor ((u lsr 6) land 0x3f)));
              Buffer.add_char buf (Char.chr (0x80 lor (u land 0x3f)))
            end
        | _ -> error p "bad escape")
    | Some c when Char.code c < 0x20 -> error p "control char in string"
    | Some c ->
        Buffer.add_char buf c;
        advance p
  done;
  Buffer.contents buf

let number s p =
  let start = p.i in
  (match peek s p with Some '-' -> advance p | _ -> ());
  (match peek s p with
  | Some '0' -> advance p
  | Some c when is_digit c ->
      while (match peek s p with Some c -> is_digit c | None -> false) do
        advance p
      done
  | _ -> error p "bad number");
  (match peek s p with
  | Some '.' ->
      advance p;
      (match peek s p with
      | Some c when is_digit c -> ()
      | _ -> error p "bad fraction");
      while (match peek s p with Some c -> is_digit c | None -> false) do
        advance p
      done
  | _ -> ());
  (match peek s p with
  | Some ('e' | 'E') ->
      advance p;
      (match peek s p with Some ('+' | '-') -> advance p | _ -> ());
      (match peek s p with
      | Some c when is_digit c -> ()
      | _ -> error p "bad exponent");
      while (match peek s p with Some c -> is_digit c | None -> false) do
        advance p
      done
  | _ -> ());
  float_of_string (String.sub s start (p.i - start))

type json =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of json list
  | Obj of (string * json) list

let rec value s p =
  skip_ws s p;
  match peek s p with
  | Some '{' ->
      advance p;
      skip_ws s p;
      (match peek s p with
      | Some '}' ->
          advance p;
          Obj []
      | _ ->
          let fields = ref [] in
          let continue = ref true in
          while !continue do
            skip_ws s p;
            let k = string_body s p in
            skip_ws s p;
            expect s p ':';
            let v = value s p in
            fields := (k, v) :: !fields;
            skip_ws s p;
            match peek s p with
            | Some ',' -> advance p
            | Some '}' ->
                advance p;
                continue := false
            | _ -> error p "expected , or } in object"
          done;
          Obj (List.rev !fields))
  | Some '[' ->
      advance p;
      skip_ws s p;
      (match peek s p with
      | Some ']' ->
          advance p;
          Arr []
      | _ ->
          let items = ref [] in
          let continue = ref true in
          while !continue do
            items := value s p :: !items;
            skip_ws s p;
            match peek s p with
            | Some ',' -> advance p
            | Some ']' ->
                advance p;
                continue := false
            | _ -> error p "expected , or ] in array"
          done;
          Arr (List.rev !items))
  | Some '"' -> Str (string_body s p)
  | Some 't' -> lit s p "true"; Bool true
  | Some 'f' -> lit s p "false"; Bool false
  | Some 'n' -> lit s p "null"; Null
  | Some ('-' | '0' .. '9') -> Num (number s p)
  | Some c -> error p (Printf.sprintf "unexpected %c" c)
  | None -> error p "unexpected end of input"

let parse_string s =
  let p = { i = 0 } in
  match
    let v = value s p in
    skip_ws s p;
    if p.i <> String.length s then error p "trailing garbage";
    v
  with
  | v -> Ok v
  | exception Bad (i, msg) -> Error (Printf.sprintf "offset %d: %s" i msg)

let parse_file path =
  match open_in_bin path with
  | exception Sys_error msg -> Error msg
  | ic ->
      let s = really_input_string ic (in_channel_length ic) in
      close_in ic;
      parse_string s

let validate_string s = Result.map (fun (_ : json) -> ()) (parse_string s)

let validate_file path =
  match open_in_bin path with
  | exception Sys_error msg -> Error msg
  | ic ->
      let s = really_input_string ic (in_channel_length ic) in
      close_in ic;
      validate_string s

(* ---------- field access ---------- *)

let member k = function
  | Obj fields -> List.assoc_opt k fields
  | _ -> None

let to_float = function Num f -> Some f | _ -> None

let to_int = function
  | Num f when Float.is_integer f -> Some (int_of_float f)
  | _ -> None

let to_string = function Str s -> Some s | _ -> None

let to_bool = function Bool b -> Some b | _ -> None

(* ---------- JSONL (one JSON object per non-empty line) ---------- *)

let validate_jsonl_string s =
  let lines = String.split_on_char '\n' s in
  let rec go lineno count = function
    | [] -> Ok count
    | line :: rest ->
        if String.trim line = "" then go (lineno + 1) count rest
        else (
          match parse_string line with
          | Ok (Obj _) -> go (lineno + 1) (count + 1) rest
          | Ok _ -> Error (Printf.sprintf "line %d: not a JSON object" lineno)
          | Error msg -> Error (Printf.sprintf "line %d: %s" lineno msg))
  in
  go 1 0 lines

let validate_jsonl_file path =
  match open_in_bin path with
  | exception Sys_error msg -> Error msg
  | ic ->
      let s = really_input_string ic (in_channel_length ic) in
      close_in ic;
      validate_jsonl_string s
