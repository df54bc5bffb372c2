(** Minimal JSON for the service wire protocol.

    A hand-rolled parser/printer (the toolchain has no JSON dependency):
    the parser reports the byte position of the first error; the printer
    always emits exactly one line, which is what lets responses travel over
    a newline-delimited transport with the multi-line flow report embedded
    as an escaped string field. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | Str of string
  | List of t list
  | Obj of (string * t) list  (** field order preserved *)
  | Escaped of string list
      (** A string given by its escaped bytes ({!escape} of it), in pieces
          printed verbatim between the quotes: how a producer that keeps
          escaped parts of a large string splices them instead of
          re-escaping the whole.  {!parse} never returns it; the accessors
          treat it as no string. *)

val parse : string -> (t, int * string) result
(** Whole-string parse; [Error (byte_pos, msg)] on malformed input
    (including trailing garbage after the value).  Accepts the full JSON
    grammar: nested containers, escapes, [\u] with surrogate pairs
    (decoded to UTF-8), scientific notation.  Number literals with a
    fraction or exponent become {!Float}, the rest {!Int}. *)

val to_string : t -> string
(** One-line rendering, no trailing newline.  Strings escape ['"'], ['\\']
    and control characters; non-finite floats print as [null] (JSON has no
    NaN/inf); float formatting is the shortest [%g] that round-trips, so
    values survive a parse/print cycle bit-exactly. *)

val to_string_tail : (string * t) list -> string
(** The rest of an object whose first members are already printed: each
    member with a comma before it, then the closing brace.  So
    [to_string (Obj (m :: ms))] is [to_string (Obj [m])] without its
    closing brace, followed by [to_string_tail ms]. *)

val escape : string -> string
(** The bytes {!to_string} prints between the quotes of a {!Str}.  Works
    byte by byte: [escape (a ^ b) = escape a ^ escape b]. *)

(** {2 Accessors} — [None] on a type mismatch, never an exception. *)

val member : string -> t -> t option
(** Field of an {!Obj}; [None] on other constructors or a missing key. *)

val get_string : t -> string option
val get_bool : t -> bool option
val get_int : t -> int option

val get_float : t -> float option
(** Accepts {!Int} too (a request writing [100] where [100.0] is meant
    must not be rejected). *)

val get_list : t -> t list option
val get_obj : t -> (string * t) list option
