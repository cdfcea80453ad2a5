(** Minimal JSON parser and well-formedness checker (RFC 8259), used to
    validate the [CR_TRACE], lint/flow [--json] and [CR_JOURNAL]
    artifacts — and to read them back in [crcheck validate] and the
    scenario benchmark — without adding a JSON dependency. *)

type json =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of json list
  | Obj of (string * json) list

val parse_string : string -> (json, string) result
(** Parse exactly one JSON value (plus optional surrounding whitespace);
    [Error msg] locates the first syntax error.  String escapes are
    decoded; numbers come back as floats. *)

val parse_file : string -> (json, string) result

val validate_string : string -> (unit, string) result
(** [Ok ()] iff the whole string is exactly one valid JSON value plus
    optional surrounding whitespace; [Error msg] locates the first
    syntax error. *)

val validate_file : string -> (unit, string) result

val member : string -> json -> json option
(** Field lookup on an [Obj]; [None] on other constructors or a missing
    key. *)

val to_float : json -> float option
val to_int : json -> int option
(** [to_int] succeeds only on numbers with no fractional part. *)

val to_string : json -> string option
val to_bool : json -> bool option

val validate_jsonl_string : string -> (int, string) result
(** Validate JSON-Lines content: every non-empty line must be one JSON
    {e object}.  Returns the number of object lines; [Error] names the
    first offending line. *)
