(* The v1 ctl wire protocol, factored out of the manager and client so both
   sides encode/decode through one tested module.

   Requests:  "HELLO <version>[ <command>]"
   Replies:   "OK" | "OK <inline>" | "OK\n<payload>" | "ERR <reason>" *)

let protocol_version = 1

type error =
  | Version_mismatch of { client : int; server : int }
  | Refused of string
  | Transport of string

let pp_error ppf = function
  | Version_mismatch { client; server } ->
      Format.fprintf ppf "protocol version mismatch (client %d, server %d)" client server
  | Refused reason -> Format.fprintf ppf "refused: %s" reason
  | Transport detail -> Format.fprintf ppf "transport error: %s" detail

let has_prefix p s = String.length s >= String.length p && String.sub s 0 (String.length p) = p

(* ------------------------------------------------------------------ *)
(* Commands: one variant, one encoder, one decoder *)

type fleet_command =
  | Status
  | Rollout
  | Explain
  | Save of { instance : int; path : string }
  | Migrate of { instance : int; path : string }

type command =
  | Update
  | Stats
  | Explain of int option
  | Policy of string
  | Save of string
  | Restore of string
  | Fleet of fleet_command

let command_to_string = function
  | Update -> "UPDATE"
  | Stats -> "STATS"
  | Explain None -> "EXPLAIN LAST"
  | Explain (Some n) -> Printf.sprintf "EXPLAIN %d" n
  | Policy kv -> "POLICY " ^ kv
  | Save path -> "SAVE " ^ path
  | Restore path -> "RESTORE " ^ path
  | Fleet Status -> "FLEET STATUS"
  | Fleet Rollout -> "FLEET ROLLOUT"
  | Fleet Explain -> "FLEET EXPLAIN"
  | Fleet (Save { instance; path }) -> Printf.sprintf "FLEET SAVE %d %s" instance path
  | Fleet (Migrate { instance; path }) -> Printf.sprintf "FLEET MIGRATE %d %s" instance path

(* Argument decoders: [None] means the argument is malformed. *)
let int_at_least lo s = match int_of_string_opt s with Some n when n >= lo -> Some n | _ -> None
let ( let+ ) o f = Option.map f o

(* The key of a key=value word. *)
let key_of w = Option.map (fun i -> String.sub w 0 i) (String.index_opt w '=')

(* The keys [Policy.to_kv] renders. Values are left to [Policy.of_kv],
   which the manager applies over the lineage's policy. *)
let policy_keys = List.filter_map key_of (String.split_on_char ' ' (Policy.to_kv Policy.default))

let policy_key w = match key_of w with Some k when List.mem k policy_keys -> Some k | _ -> None

(* verb, usage, argument parser *)
let verbs : (string * string * (string list -> command option)) list =
  [
    ("UPDATE", "UPDATE", function [] -> Some Update | _ -> None);
    ("STATS", "STATS", function [] -> Some Stats | _ -> None);
    ( "EXPLAIN",
      "EXPLAIN [LAST|<n>]",
      function
      | [] | [ "LAST" ] -> Some (Explain None)
      | [ n ] ->
          let+ n = int_at_least 1 n in
          Explain (Some n)
      | _ -> None );
    ( "POLICY",
      "POLICY <key>=<value> ..., each key at most once, one of " ^ String.concat "|" policy_keys,
      fun args ->
        let keys = List.filter_map policy_key args in
        let n = List.length args in
        if n > 0 && List.length keys = n && List.length (List.sort_uniq compare keys) = n then
          Some (Policy (String.concat " " args))
        else None );
    ("SAVE", "SAVE <path>", function [ path ] -> Some (Save path) | _ -> None);
    ("RESTORE", "RESTORE <path>", function [ path ] -> Some (Restore path) | _ -> None);
    ( "FLEET",
      "FLEET STATUS|ROLLOUT|EXPLAIN|SAVE <i> <path>|MIGRATE <i> <path>",
      function
      | [ "STATUS" ] -> Some (Fleet Status)
      | [ "ROLLOUT" ] -> Some (Fleet Rollout)
      | [ "EXPLAIN" ] -> Some (Fleet Explain)
      | [ "SAVE"; i; path ] ->
          let+ instance = int_at_least 0 i in
          Fleet (Save { instance; path })
      | [ "MIGRATE"; i; path ] ->
          let+ instance = int_at_least 0 i in
          Fleet (Migrate { instance; path })
      | _ -> None );
  ]

let command_of_string s =
  match String.split_on_char ' ' (String.trim s) |> List.filter (fun w -> w <> "") with
  | [] -> Error "unknown command"
  | verb :: args -> (
      match List.find_opt (fun (v, _, _) -> v = verb) verbs with
      | None -> Error "unknown command"
      | Some (_, usage, parse) -> (
          match parse args with Some c -> Ok c | None -> Error ("usage: " ^ usage)))

(* ------------------------------------------------------------------ *)
(* Server side: request classification, reply encoding *)

let ok = "OK"
let ok_inline v = "OK " ^ v
let ok_payload p = "OK\n" ^ p
let err reason = "ERR " ^ reason

(* "HELLO <version>[ <command>]" -> Ok (version, command option); the
   error is the refusal reason the server replies with. *)
let parse_request raw =
  if has_prefix "HELLO" raw then begin
    let rest = String.trim (String.sub raw 5 (String.length raw - 5)) in
    let version_str, cmd =
      match String.index_opt rest ' ' with
      | Some i ->
          ( String.sub rest 0 i,
            Some (String.trim (String.sub rest (i + 1) (String.length rest - i - 1))) )
      | None -> (rest, None)
    in
    match int_of_string_opt version_str with
    | Some v -> Ok (v, cmd)
    | None -> Error "malformed hello"
  end
  else Error "hello required"

(* ------------------------------------------------------------------ *)
(* Client side: request encoding, reply decoding *)

let hello_frame ~version ~command =
  if command = "" then Printf.sprintf "HELLO %d" version
  else Printf.sprintf "HELLO %d %s" version command

let parse_reply ~version reply =
  if reply = "OK" then Ok ""
  else if has_prefix "OK\n" reply then Ok (String.sub reply 3 (String.length reply - 3))
  else if has_prefix "OK " reply then Ok (String.sub reply 3 (String.length reply - 3))
  else if has_prefix "ERR version " reply then begin
    match int_of_string_opt (String.sub reply 12 (String.length reply - 12)) with
    | Some server -> Error (Version_mismatch { client = version; server })
    | None -> Error (Refused (String.sub reply 4 (String.length reply - 4)))
  end
  else if has_prefix "ERR " reply then
    Error (Refused (String.sub reply 4 (String.length reply - 4)))
  else if reply = "ERR" then Error (Refused "unknown")
  else Error (Transport ("unexpected frame: " ^ reply))
