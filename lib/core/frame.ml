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

type command =
  | Update
  | Stats
  | Explain of int option
  | Deadlines of { quiesce_ns : int option; update_ns : int option }
  | Retry of { retries : int; backoff_ns : int }
  | Fault_arm of int option
  | Precopy of { enabled : bool; max_rounds : int option; threshold_words : int option }
  | Workers of int
  | Remap of bool
  | Slo of { downtime_ns : int option; total_ns : int option }
  | Parking of { enabled : bool; drain_ns : int option }
  | Save of string
  | Restore of string
  | Raw of string

let ns_arg = function None -> "-" | Some ns -> string_of_int ns

let command_to_string = function
  | Update -> "UPDATE"
  | Stats -> "STATS"
  | Explain None -> "EXPLAIN LAST"
  | Explain (Some n) -> Printf.sprintf "EXPLAIN %d" n
  | Deadlines { quiesce_ns; update_ns } ->
      Printf.sprintf "DEADLINES %s %s" (ns_arg quiesce_ns) (ns_arg update_ns)
  | Retry { retries; backoff_ns } -> Printf.sprintf "RETRY %d %d" retries backoff_ns
  | Fault_arm None -> "FAULT OFF"
  | Fault_arm (Some s) -> Printf.sprintf "FAULT %d" s
  | Precopy { enabled = false; _ } -> "PRECOPY OFF"
  | Precopy { enabled = true; max_rounds; threshold_words } -> (
      match (max_rounds, threshold_words) with
      | None, None -> "PRECOPY ON"
      | Some r, None -> Printf.sprintf "PRECOPY ON %d" r
      | r, Some w ->
          Printf.sprintf "PRECOPY ON %d %d"
            (Option.value r ~default:Policy.default.Policy.precopy_max_rounds)
            w)
  | Workers n -> Printf.sprintf "WORKERS %d" n
  | Remap enabled -> if enabled then "REMAP ON" else "REMAP OFF"
  | Slo { downtime_ns; total_ns } ->
      Printf.sprintf "SLO %s %s" (ns_arg downtime_ns) (ns_arg total_ns)
  | Parking { enabled = false; _ } -> "PARKING OFF"
  | Parking { enabled = true; drain_ns = None } -> "PARKING ON"
  | Parking { enabled = true; drain_ns = Some d } -> Printf.sprintf "PARKING ON %d" d
  | Save path -> "SAVE " ^ path
  | Restore path -> "RESTORE " ^ path
  | Raw s -> s

(* Argument decoders: [None] means the argument is malformed. *)
let int_at_least lo s = match int_of_string_opt s with Some n when n >= lo -> Some n | _ -> None

let ns_opt = function "-" -> Some None | s -> Option.map Option.some (int_at_least 1 s)
let ( let+ ) o f = Option.map f o
let ( and+ ) a b = match (a, b) with Some a, Some b -> Some (a, b) | _ -> None

(* verb, usage, argument parser. The value constraints are exactly the ones
   the Policy builders enforce, so a decoded command always applies. *)
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
    ( "DEADLINES",
      "DEADLINES <quiesce_ns|-> <update_ns|->",
      function
      | [ q; u ] ->
          let+ quiesce_ns = ns_opt q and+ update_ns = ns_opt u in
          Deadlines { quiesce_ns; update_ns }
      | _ -> None );
    ( "RETRY",
      "RETRY <count> <backoff_ns>",
      function
      | [ n; b ] ->
          let+ retries = int_at_least 0 n and+ backoff_ns = int_at_least 0 b in
          Retry { retries; backoff_ns }
      | _ -> None );
    ( "FAULT",
      "FAULT <seed>|OFF",
      function
      | [ "OFF" ] -> Some (Fault_arm None)
      | [ s ] ->
          let+ s = int_of_string_opt s in
          Fault_arm (Some s)
      | _ -> None );
    ( "PRECOPY",
      "PRECOPY ON [max_rounds] [threshold_words] | OFF",
      function
      | [ "OFF" ] ->
          Some (Precopy { enabled = false; max_rounds = None; threshold_words = None })
      | [ "ON" ] -> Some (Precopy { enabled = true; max_rounds = None; threshold_words = None })
      | [ "ON"; r ] ->
          let+ r = int_at_least 1 r in
          Precopy { enabled = true; max_rounds = Some r; threshold_words = None }
      | [ "ON"; r; w ] ->
          let+ r = int_at_least 1 r and+ w = int_at_least 0 w in
          Precopy { enabled = true; max_rounds = Some r; threshold_words = Some w }
      | _ -> None );
    ( "WORKERS",
      "WORKERS <count>",
      function
      | [ n ] ->
          let+ n = int_at_least 1 n in
          Workers n
      | _ -> None );
    ( "REMAP",
      "REMAP ON|OFF",
      function [ "ON" ] -> Some (Remap true) | [ "OFF" ] -> Some (Remap false) | _ -> None );
    ( "SLO",
      "SLO <downtime_ns|-> <total_ns|->",
      function
      | [ d; u ] ->
          let+ downtime_ns = ns_opt d and+ total_ns = ns_opt u in
          Slo { downtime_ns; total_ns }
      | _ -> None );
    ( "PARKING",
      "PARKING ON [drain_ns] | OFF",
      function
      | [ "OFF" ] -> Some (Parking { enabled = false; drain_ns = None })
      | [ "ON" ] -> Some (Parking { enabled = true; drain_ns = None })
      | [ "ON"; d ] ->
          let+ d = int_at_least 0 d in
          Parking { enabled = true; drain_ns = Some d }
      | _ -> None );
    ("SAVE", "SAVE <path>", function [ path ] -> Some (Save path) | _ -> None);
    ("RESTORE", "RESTORE <path>", function [ path ] -> Some (Restore path) | _ -> None);
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
