(* Minimal JSON: a recursive-descent parser with byte positions and a
   strictly one-line printer.  The protocol only ever needs objects of
   scalars plus the flow report embedded as an escaped string, so the
   representation stays deliberately small. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | Str of string
  | List of t list
  | Obj of (string * t) list
  | Escaped of string list

(* ------------------------------------------------------------- parser *)

exception Fail of int * string

let fail pos msg = raise (Fail (pos, msg))

let add_utf8 b code =
  if code < 0x80 then Buffer.add_char b (Char.chr code)
  else if code < 0x800 then begin
    Buffer.add_char b (Char.chr (0xC0 lor (code lsr 6)));
    Buffer.add_char b (Char.chr (0x80 lor (code land 0x3F)))
  end
  else if code < 0x10000 then begin
    Buffer.add_char b (Char.chr (0xE0 lor (code lsr 12)));
    Buffer.add_char b (Char.chr (0x80 lor ((code lsr 6) land 0x3F)));
    Buffer.add_char b (Char.chr (0x80 lor (code land 0x3F)))
  end
  else begin
    Buffer.add_char b (Char.chr (0xF0 lor (code lsr 18)));
    Buffer.add_char b (Char.chr (0x80 lor ((code lsr 12) land 0x3F)));
    Buffer.add_char b (Char.chr (0x80 lor ((code lsr 6) land 0x3F)));
    Buffer.add_char b (Char.chr (0x80 lor (code land 0x3F)))
  end

let parse (s : string) : (t, int * string) result =
  let n = String.length s in
  let pos = ref 0 in
  let peek () = if !pos < n then Some s.[!pos] else None in
  let skip_ws () =
    while !pos < n && (match s.[!pos] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false) do
      incr pos
    done
  in
  let expect c =
    if peek () = Some c then incr pos else fail !pos (Printf.sprintf "expected %C" c)
  in
  let hex4 at =
    if at + 4 > n then fail at "truncated \\u escape"
    else
      match int_of_string_opt ("0x" ^ String.sub s at 4) with
      | Some code -> code
      | None -> fail at "invalid \\u escape"
  in
  let parse_string () =
    expect '"';
    let b = Buffer.create 16 in
    let rec go () =
      if !pos >= n then fail !pos "unterminated string"
      else
        match s.[!pos] with
        | '"' ->
            incr pos;
            Buffer.contents b
        | '\\' ->
            incr pos;
            (if !pos >= n then fail !pos "unterminated escape"
             else
               match s.[!pos] with
               | '"' -> Buffer.add_char b '"'; incr pos
               | '\\' -> Buffer.add_char b '\\'; incr pos
               | '/' -> Buffer.add_char b '/'; incr pos
               | 'b' -> Buffer.add_char b '\b'; incr pos
               | 'f' -> Buffer.add_char b '\012'; incr pos
               | 'n' -> Buffer.add_char b '\n'; incr pos
               | 'r' -> Buffer.add_char b '\r'; incr pos
               | 't' -> Buffer.add_char b '\t'; incr pos
               | 'u' ->
                   let code = hex4 (!pos + 1) in
                   pos := !pos + 5;
                   (* Combine a UTF-16 surrogate pair when one follows. *)
                   if code >= 0xD800 && code <= 0xDBFF && !pos + 6 <= n && s.[!pos] = '\\'
                      && s.[!pos + 1] = 'u'
                   then begin
                     let low = hex4 (!pos + 2) in
                     if low >= 0xDC00 && low <= 0xDFFF then begin
                       pos := !pos + 6;
                       add_utf8 b (0x10000 + (((code - 0xD800) lsl 10) lor (low - 0xDC00)))
                     end
                     else add_utf8 b code
                   end
                   else add_utf8 b code
               | c -> fail !pos (Printf.sprintf "invalid escape \\%c" c));
            go ()
        | c when Char.code c < 0x20 -> fail !pos "unescaped control character in string"
        | c ->
            Buffer.add_char b c;
            incr pos;
            go ()
    in
    go ()
  in
  let parse_number () =
    let start = !pos in
    if peek () = Some '-' then incr pos;
    let digits () =
      while (match peek () with Some '0' .. '9' -> true | _ -> false) do
        incr pos
      done
    in
    let before = !pos in
    digits ();
    if !pos = before then fail start "malformed number";
    let is_float = ref false in
    (match peek () with
    | Some '.' ->
        is_float := true;
        incr pos;
        let before = !pos in
        digits ();
        if !pos = before then fail start "malformed number"
    | _ -> ());
    (match peek () with
    | Some ('e' | 'E') ->
        is_float := true;
        incr pos;
        (match peek () with Some ('+' | '-') -> incr pos | _ -> ());
        let before = !pos in
        digits ();
        if !pos = before then fail start "malformed number"
    | _ -> ());
    let tok = String.sub s start (!pos - start) in
    if !is_float then
      match float_of_string_opt tok with
      | Some f -> Float f
      | None -> fail start "malformed number"
    else
      match int_of_string_opt tok with
      | Some i -> Int i
      | None -> (
          (* Integer literal beyond native int range: keep the value. *)
          match float_of_string_opt tok with
          | Some f -> Float f
          | None -> fail start "malformed number")
  in
  let lit word v =
    let l = String.length word in
    if !pos + l <= n && String.sub s !pos l = word then begin
      pos := !pos + l;
      v
    end
    else fail !pos (Printf.sprintf "invalid literal (expected %s)" word)
  in
  let rec value () =
    skip_ws ();
    match peek () with
    | None -> fail !pos "unexpected end of input"
    | Some '{' -> obj ()
    | Some '[' -> arr ()
    | Some '"' -> Str (parse_string ())
    | Some 't' -> lit "true" (Bool true)
    | Some 'f' -> lit "false" (Bool false)
    | Some 'n' -> lit "null" Null
    | Some ('-' | '0' .. '9') -> parse_number ()
    | Some c -> fail !pos (Printf.sprintf "unexpected character %C" c)
  and obj () =
    expect '{';
    skip_ws ();
    if peek () = Some '}' then begin
      incr pos;
      Obj []
    end
    else
      let rec fields acc =
        skip_ws ();
        let key = parse_string () in
        skip_ws ();
        expect ':';
        let v = value () in
        skip_ws ();
        match peek () with
        | Some ',' ->
            incr pos;
            fields ((key, v) :: acc)
        | Some '}' ->
            incr pos;
            Obj (List.rev ((key, v) :: acc))
        | _ -> fail !pos "expected ',' or '}'"
      in
      fields []
  and arr () =
    expect '[';
    skip_ws ();
    if peek () = Some ']' then begin
      incr pos;
      List []
    end
    else
      let rec elems acc =
        let v = value () in
        skip_ws ();
        match peek () with
        | Some ',' ->
            incr pos;
            elems (v :: acc)
        | Some ']' ->
            incr pos;
            List (List.rev (v :: acc))
        | _ -> fail !pos "expected ',' or ']'"
      in
      elems []
  in
  match
    let v = value () in
    skip_ws ();
    if !pos <> n then fail !pos "trailing characters after value";
    v
  with
  | v -> Ok v
  | exception Fail (pos, msg) -> Error (pos, msg)

(* ------------------------------------------------------------ printer *)

let float_repr f =
  if Float.is_nan f || f = Float.infinity || f = Float.neg_infinity then "null"
  else if Float.is_integer f && Float.abs f < 1e15 then Printf.sprintf "%.0f" f
  else
    (* Shortest %g that round-trips: stable, locale-independent, valid JSON. *)
    let rec go p =
      if p > 17 then Printf.sprintf "%.17g" f
      else
        let s = Printf.sprintf "%.*g" p f in
        if float_of_string s = f then s else go (p + 1)
    in
    go 1

(* The escape of each byte, "" for the bytes that stand for themselves. *)
let escapes =
  Array.init 256 (fun code ->
      match Char.chr code with
      | '"' -> "\\\""
      | '\\' -> "\\\\"
      | '\n' -> "\\n"
      | '\r' -> "\\r"
      | '\t' -> "\\t"
      | _ when code < 0x20 -> Printf.sprintf "\\u%04x" code
      | _ -> "")

(* The escaped bytes, in one exactly sized string ([s] itself when nothing
   needs escaping): a first pass sizes it, a second copies the runs
   between escaped characters in one blit each. *)
let escape s =
  let n = String.length s in
  let len = ref n in
  for i = 0 to n - 1 do
    let e = Array.unsafe_get escapes (Char.code (String.unsafe_get s i)) in
    if String.length e > 0 then len := !len + String.length e - 1
  done;
  if !len = n then s
  else begin
    let b = Bytes.create !len in
    let pos = ref 0 and start = ref 0 in
    let blit src off k =
      Bytes.blit_string src off b !pos k;
      pos := !pos + k
    in
    for i = 0 to n - 1 do
      let e = Array.unsafe_get escapes (Char.code (String.unsafe_get s i)) in
      if String.length e > 0 then begin
        blit s !start (i - !start);
        blit e 0 (String.length e);
        start := i + 1
      end
    done;
    blit s !start (n - !start);
    Bytes.unsafe_to_string b
  end

(* The line's pieces in order, then one exactly sized copy: a payload
   carried as [Escaped] pieces is copied once, straight into the line.
   [emit add] hands [add] the pieces. *)
let concat_pieces emit =
  let pieces = ref [] and len = ref 0 in
  emit (fun s ->
      pieces := s :: !pieces;
      len := !len + String.length s);
  let b = Bytes.create !len in
  let pos = ref !len in
  List.iter
    (fun s ->
      pos := !pos - String.length s;
      Bytes.blit_string s 0 b !pos (String.length s))
    !pieces;
  Bytes.unsafe_to_string b

let rec emit add = function
  | Null -> add "null"
  | Bool b -> add (if b then "true" else "false")
  | Int i -> add (string_of_int i)
  | Float f -> add (float_repr f)
  | Str s ->
      add "\"";
      add (escape s);
      add "\""
  | Escaped parts ->
      add "\"";
      List.iter add parts;
      add "\""
  | List l ->
      add "[";
      List.iteri
        (fun i v ->
          if i > 0 then add ",";
          emit add v)
        l;
      add "]"
  | Obj fields ->
      add "{";
      emit_members add ~first:true fields;
      add "}"

(* Each member after the first, or every member when [first] is false,
   follows a comma. *)
and emit_members add ~first fields =
  List.iteri
    (fun i (k, v) ->
      if i > 0 || not first then add ",";
      add "\"";
      add (escape k);
      add "\":";
      emit add v)
    fields

let to_string v = concat_pieces (fun add -> emit add v)

let to_string_tail fields =
  concat_pieces (fun add ->
      emit_members add ~first:false fields;
      add "}")

(* ---------------------------------------------------------- accessors *)

let member name = function Obj fields -> List.assoc_opt name fields | _ -> None
let get_string = function Str s -> Some s | _ -> None
let get_bool = function Bool b -> Some b | _ -> None
let get_int = function Int i -> Some i | _ -> None

let get_float = function
  | Float f -> Some f
  | Int i -> Some (float_of_int i)
  | _ -> None

let get_list = function List l -> Some l | _ -> None
let get_obj = function Obj fields -> Some fields | _ -> None
