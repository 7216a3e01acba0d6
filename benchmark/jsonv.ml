(* JSON with fractional numbers, for the benchmark's own files.

   The repository's [Mcr_obs.Json] reads integers only (its writers never
   print floats); benchmark results and the bounds in BENCHMARK.json are
   fractional, so the benchmark carries this small reader and printer. *)

type t = Null | Bool of bool | Int of int | Num of float | Str of string | List of t list | Obj of (string * t) list

let rec to_string = function
  | Null -> "null"
  | Bool b -> string_of_bool b
  | Int i -> string_of_int i
  | Num f when Float.is_integer f && Float.abs f < 1e15 -> Printf.sprintf "%.1f" f
  | Num f when Float.is_finite f ->
      (* the shortest of these that reads back as the same float *)
      let short = Printf.sprintf "%.15g" f in
      if float_of_string short = f then short else Printf.sprintf "%.17g" f
  | Num _ -> "null"
  | Str s -> "\"" ^ Mcr_obs.Export.json_escape s ^ "\""
  | List l -> "[" ^ String.concat ", " (List.map to_string l) ^ "]"
  | Obj kvs ->
      "{"
      ^ String.concat ", " (List.map (fun (k, v) -> to_string (Str k) ^ ": " ^ to_string v) kvs)
      ^ "}"

exception Bad of int * string

let parse s =
  let n = String.length s in
  let pos = ref 0 in
  let fail msg = raise (Bad (!pos, msg)) in
  let peek () = if !pos < n then s.[!pos] else '\000' in
  let rec ws () =
    if !pos < n && (s.[!pos] = ' ' || s.[!pos] = '\n' || s.[!pos] = '\t' || s.[!pos] = '\r')
    then begin
      incr pos;
      ws ()
    end
  in
  let expect c = if peek () = c then incr pos else fail (Printf.sprintf "expected %C" c) in
  let word w v =
    if !pos + String.length w <= n && String.sub s !pos (String.length w) = w then begin
      pos := !pos + String.length w;
      v
    end
    else fail "unknown literal"
  in
  let str () =
    expect '"';
    let b = Buffer.create 16 in
    let rec go () =
      if !pos >= n then fail "unterminated string";
      let c = s.[!pos] in
      incr pos;
      match c with
      | '"' -> Buffer.contents b
      | '\\' ->
          if !pos >= n then fail "unterminated escape";
          let e = s.[!pos] in
          incr pos;
          (match e with
          | 'n' -> Buffer.add_char b '\n'
          | 't' -> Buffer.add_char b '\t'
          | 'r' -> Buffer.add_char b '\r'
          | 'b' -> Buffer.add_char b '\b'
          | 'f' -> Buffer.add_char b '\012'
          | 'u' ->
              if !pos + 4 > n then fail "short \\u escape";
              pos := !pos + 4;
              Buffer.add_char b '?'
          | c -> Buffer.add_char b c);
          go ()
      | c ->
          Buffer.add_char b c;
          go ()
    in
    go ()
  in
  let number () =
    let start = !pos in
    let is_num c = (c >= '0' && c <= '9') || c = '-' || c = '+' || c = '.' || c = 'e' || c = 'E' in
    while !pos < n && is_num s.[!pos] do
      incr pos
    done;
    let lit = String.sub s start (!pos - start) in
    match int_of_string_opt lit with
    | Some i -> Int i
    | None -> ( match float_of_string_opt lit with Some f -> Num f | None -> fail "bad number")
  in
  let rec value () =
    ws ();
    let v =
      match peek () with
      | '{' ->
          incr pos;
          ws ();
          if peek () = '}' then begin
            incr pos;
            Obj []
          end
          else
            let rec members acc =
              ws ();
              let k = str () in
              ws ();
              expect ':';
              let v = value () in
              ws ();
              match peek () with
              | ',' ->
                  incr pos;
                  members ((k, v) :: acc)
              | '}' ->
                  incr pos;
                  Obj (List.rev ((k, v) :: acc))
              | _ -> fail "expected ',' or '}'"
            in
            members []
      | '[' ->
          incr pos;
          ws ();
          if peek () = ']' then begin
            incr pos;
            List []
          end
          else
            let rec items acc =
              let v = value () in
              ws ();
              match peek () with
              | ',' ->
                  incr pos;
                  items (v :: acc)
              | ']' ->
                  incr pos;
                  List (List.rev (v :: acc))
              | _ -> fail "expected ',' or ']'"
            in
            items []
      | '"' -> Str (str ())
      | 't' -> word "true" (Bool true)
      | 'f' -> word "false" (Bool false)
      | 'n' -> word "null" Null
      | _ -> number ()
    in
    ws ();
    v
  in
  match value () with
  | v when !pos = n -> Ok v
  | _ -> Error (Printf.sprintf "offset %d: trailing data" !pos)
  | exception Bad (at, msg) -> Error (Printf.sprintf "offset %d: %s" at msg)

let member k = function Obj kvs -> List.assoc_opt k kvs | _ -> None
let to_float = function Int i -> Some (float_of_int i) | Num f -> Some f | _ -> None
let to_str = function Str s -> Some s | _ -> None
let to_list = function List l -> Some l | _ -> None
let float_field k j = Option.bind (member k j) to_float
let str_field k j = Option.bind (member k j) to_str
let list_field k j = Option.bind (member k j) to_list
