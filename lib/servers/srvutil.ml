(* Small helpers shared by the simulated servers. *)

module S = Mcr_simos.Sysdefs
module Api = Mcr_program.Api
module Addr = Mcr_vmem.Addr

(* "GET /path" -> "/path"; anything else -> None *)
let parse_get req =
  match String.split_on_char ' ' (String.trim req) with
  | [ "GET"; path ] -> Some path
  | _ -> None

(* first word of a command line *)
let command req =
  match String.split_on_char ' ' (String.trim req) with
  | cmd :: _ -> String.uppercase_ascii cmd
  | [] -> ""

let arg req =
  match String.split_on_char ' ' (String.trim req) with
  | _ :: a :: _ -> Some a
  | _ -> None

(* "key value" / "key value;" directive in a config file -> int value *)
let config_int raw ~key ~default =
  let parse line =
    match String.split_on_char ' ' (String.trim line) with
    | k :: v :: _ when k = key ->
        let v =
          if String.length v > 0 && v.[String.length v - 1] = ';' then
            String.sub v 0 (String.length v - 1)
          else v
        in
        int_of_string_opt v
    | _ -> None
  in
  match List.find_map parse (String.split_on_char '\n' raw) with
  | Some n -> n
  | None -> default

(* read one request off a connection at a (possibly wrapped) quiescent point *)
let read_request t ~qpoint fd =
  match Api.blocking t ~qpoint (S.Read { fd; max = 4096; nonblock = false }) with
  | S.Ok_data "" -> None
  | S.Ok_data d -> Some d
  | _ -> None

let reply t fd data = ignore (Api.sys t (S.Write { fd; data }))

(* ["200 #<n> <body>"], the web servers' reply, built at its final size:
   [Printf.sprintf] would grow a buffer past a 1 KB body on every request. *)
let ok_reply n body = String.concat "" [ "200 #"; string_of_int n; " "; body ]

(* A session buffer's contents at login, word [i] being [seed lxor i],
   built once per seed and size. *)
let templates = Hashtbl.create 4

let buffer_template seed n =
  if not (Hashtbl.mem templates (seed, n)) then
    Hashtbl.replace templates (seed, n) (Mcr_vmem.Aspace.words_of_fn n (fun i -> seed lxor i));
  Hashtbl.find templates (seed, n)

(* The first slot at or after [from] of the [capacity]-word array at [base]
   whose word satisfies [p], or -1. *)
let find_slot t base ~capacity ?(from = 0) p =
  let k = Api.find_word t (Addr.add_words base from) ~words:(capacity - from) p in
  if k < 0 then -1 else from + k

(* fixed-capacity fd set stored in a global int array: unused slots are 0 *)
let array_add t ~global_arr ~capacity v =
  let base = Api.global t global_arr in
  let i = find_slot t base ~capacity (fun x -> x = 0) in
  if i >= 0 then Api.store t (Addr.add_words base i) v;
  i >= 0

let array_values t ~global_arr ~capacity =
  let base = Api.global t global_arr in
  let rec from i acc =
    let i = find_slot t base ~capacity ~from:i (fun x -> x <> 0) in
    if i < 0 then List.rev acc else from (i + 1) (Api.load t (Addr.add_words base i) :: acc)
  in
  from 0 []
