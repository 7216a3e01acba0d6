(* A minimal JSON reader for the subsystem's own machine-readable outputs
   (flight records, benchmark baselines). Every writer in this repository
   emits integers only — no floats anywhere, by the determinism rules — so
   the number production is integer-only and a fractional or exponent form
   is a parse error, not a silent approximation. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Str of string
  | List of t list
  | Obj of (string * t) list

exception Parse_error of string

let fail pos msg = raise (Parse_error (Printf.sprintf "offset %d: %s" pos msg))

(* The top-level member [fold_member] streams: its name, what each
   element goes to, and whether a member of that name was met, and was an
   array. *)
type fold = {
  fm_key : string;
  fm_each : t -> unit;
  mutable fm_seen : bool;
  mutable fm_folded : bool;
}

let parse_exn ?fold s =
  let n = String.length s in
  let pos = ref 0 in
  (* The byte at [pos], or NUL at the end: a NUL is the end only when
     [at_end] says so, since the input may hold one. *)
  let peek () = if !pos < n then String.unsafe_get s !pos else '\000' in
  let at_end () = !pos >= n in
  let advance () = incr pos in
  let rec skip_ws () =
    match peek () with
    | ' ' | '\t' | '\n' | '\r' ->
        advance ();
        skip_ws ()
    | _ -> ()
  in
  let expect c =
    if at_end () then fail !pos (Printf.sprintf "expected %C, found end of input" c)
    else
      let d = peek () in
      if d = c then advance () else fail !pos (Printf.sprintf "expected %C, found %C" c d)
  in
  let literal word v =
    let l = String.length word in
    let i = ref 0 in
    while !i < l && !pos + !i < n && s.[!pos + !i] = word.[!i] do incr i done;
    if !i = l then begin
      pos := !pos + l;
      v
    end
    else fail !pos ("expected " ^ word)
  in
  (* The rest of a string from its first backslash, unescaped into [buf]. *)
  let rec escaped buf =
    match peek () with
    | '"' ->
        advance ();
        Buffer.contents buf
    | '\\' -> begin
        advance ();
        (match peek () with
        | '"' -> Buffer.add_char buf '"'
        | '\\' -> Buffer.add_char buf '\\'
        | '/' -> Buffer.add_char buf '/'
        | 'n' -> Buffer.add_char buf '\n'
        | 'r' -> Buffer.add_char buf '\r'
        | 't' -> Buffer.add_char buf '\t'
        | 'b' -> Buffer.add_char buf '\b'
        | 'f' -> Buffer.add_char buf '\012'
        | 'u' ->
            if !pos + 4 >= n then fail !pos "truncated \\u escape";
            let hex = String.sub s (!pos + 1) 4 in
            (match int_of_string_opt ("0x" ^ hex) with
            | Some code when code < 0x80 -> Buffer.add_char buf (Char.chr code)
            | Some _ -> Buffer.add_char buf '?'
            | None -> fail !pos "bad \\u escape");
            pos := !pos + 4
        | _ -> fail !pos "bad escape");
        advance ();
        escaped buf
      end
    | '\000' when at_end () -> fail !pos "unterminated string"
    | c ->
        Buffer.add_char buf c;
        advance ();
        escaped buf
  in
  (* The bytes up to the closing quote, cut out once; a string with an
     escape continues into a buffer at its first backslash. *)
  let parse_string () =
    expect '"';
    let start = !pos in
    while !pos < n && s.[!pos] <> '"' && s.[!pos] <> '\\' do advance () done;
    if at_end () then fail !pos "unterminated string"
    else if peek () = '"' then begin
      let v = String.sub s start (!pos - start) in
      advance ();
      v
    end
    else begin
      let buf = Buffer.create (2 * (!pos - start) + 16) in
      Buffer.add_substring buf s start (!pos - start);
      escaped buf
    end
  in
  (* Digits fold into the value as they are read, negated so that
     [min_int] parses: the same values, and the same refusals, as
     [int_of_string_opt] on the literal's bytes. *)
  let parse_int () =
    let start = !pos in
    let neg = peek () = '-' in
    if neg then advance ();
    let acc = ref 0 and overflow = ref false in
    while !pos < n && s.[!pos] >= '0' && s.[!pos] <= '9' do
      let d = Char.code s.[!pos] - Char.code '0' in
      if !acc < (min_int + d) / 10 then overflow := true else acc := (!acc * 10) - d;
      advance ()
    done;
    if !pos = start + Bool.to_int neg then fail start "expected number";
    (match peek () with
    | '.' | 'e' | 'E' -> fail !pos "non-integer numbers are not produced by any writer"
    | _ -> ());
    if !overflow || ((not neg) && !acc = min_int) then fail start "integer out of range";
    if neg then !acc else - !acc
  in
  let rec parse_value () =
    skip_ws ();
    match peek () with
    | '"' -> Str (parse_string ())
    | '{' -> Obj (members None)
    | '[' ->
        let acc = ref [] in
        elements (fun v -> acc := v :: !acc);
        List (List.rev !acc)
    | 't' -> literal "true" (Bool true)
    | 'f' -> literal "false" (Bool false)
    | 'n' -> literal "null" Null
    | '-' | '0' .. '9' -> Int (parse_int ())
    | '\000' when at_end () -> fail !pos "unexpected end of input"
    | c -> fail !pos (Printf.sprintf "unexpected %C" c)
  (* An array's elements, each handed to [each] in order. *)
  and elements each =
    advance ();
    skip_ws ();
    if peek () = ']' then advance ()
    else begin
      let more = ref true in
      while !more do
        each (parse_value ());
        skip_ws ();
        match peek () with
        | ',' -> advance ()
        | ']' ->
            advance ();
            more := false
        | _ -> fail !pos "expected ',' or ']'"
      done
    end
  (* An object's members; [fold] is the top-level object's streamed one. *)
  and members fold =
    advance ();
    skip_ws ();
    let acc = ref [] in
    if peek () = '}' then advance ()
    else begin
      let more = ref true in
      while !more do
        skip_ws ();
        let key = parse_string () in
        skip_ws ();
        expect ':';
        let v =
          match fold with
          | Some f when (not f.fm_seen) && key = f.fm_key ->
              f.fm_seen <- true;
              skip_ws ();
              if peek () = '[' then begin
                f.fm_folded <- true;
                elements f.fm_each;
                List []
              end
              else parse_value ()
          | Some _ | None -> parse_value ()
        in
        acc := (key, v) :: !acc;
        skip_ws ();
        match peek () with
        | ',' -> advance ()
        | '}' ->
            advance ();
            more := false
        | _ -> fail !pos "expected ',' or '}'"
      done
    end;
    List.rev !acc
  in
  skip_ws ();
  let v = if Option.is_some fold && peek () = '{' then Obj (members fold) else parse_value () in
  skip_ws ();
  if !pos <> n then fail !pos "trailing data after value";
  v

let parse s = match parse_exn s with v -> Ok v | exception Parse_error e -> Error e

let fold_member s ~key ~init f =
  let acc = ref init in
  let fold = { fm_key = key; fm_each = (fun v -> acc := f !acc v); fm_seen = false; fm_folded = false } in
  match parse_exn ~fold s with
  | v -> Ok (v, if fold.fm_folded then Some !acc else None)
  | exception Parse_error e -> Error e

(* ------------------------------------------------------------------ *)
(* Accessors (lookup + shape checks for decoders) *)

let member key = function Obj kvs -> List.assoc_opt key kvs | _ -> None
let to_int = function Int v -> Some v | _ -> None
let to_str = function Str v -> Some v | _ -> None
let to_bool = function Bool v -> Some v | _ -> None
let to_list = function List v -> Some v | _ -> None

let int_field key j = Option.bind (member key j) to_int
let str_field key j = Option.bind (member key j) to_str
let bool_field key j = Option.bind (member key j) to_bool
let list_field key j = Option.bind (member key j) to_list
