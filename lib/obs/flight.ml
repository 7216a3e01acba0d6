(* The update flight recorder: one structured record per Manager.update
   attempt, assembled by the manager on every exit path (commit and
   rollback alike) and kept in a bounded per-lineage ring. The record is
   plain data — this module never touches the kernel or the clock, so
   recording is free in virtual time and byte-identical across runs. *)

type attribution = {
  a_quiesce_ns : int;
  a_restart_ns : int;
  a_trace_ns : int;
  a_copy_ns : int;
  a_spawn_join_ns : int;
  a_relink_ns : int;
  a_channel_ns : int;
  a_handlers_ns : int;
  a_teardown_ns : int;
}

let zero_attribution =
  {
    a_quiesce_ns = 0;
    a_restart_ns = 0;
    a_trace_ns = 0;
    a_copy_ns = 0;
    a_spawn_join_ns = 0;
    a_relink_ns = 0;
    a_channel_ns = 0;
    a_handlers_ns = 0;
    a_teardown_ns = 0;
  }

let attribution_sum a =
  a.a_quiesce_ns + a.a_restart_ns + a.a_trace_ns + a.a_copy_ns + a.a_spawn_join_ns
  + a.a_relink_ns + a.a_channel_ns + a.a_handlers_ns + a.a_teardown_ns

(* (label, value) pairs in waterfall order — the downtime window's stages
   in the order they elapse. *)
let attribution_components a =
  [
    ("quiesce", a.a_quiesce_ns);
    ("restart_replay", a.a_restart_ns);
    ("handlers", a.a_handlers_ns);
    ("trace", a.a_trace_ns);
    ("copy", a.a_copy_ns);
    ("spawn_join", a.a_spawn_join_ns);
    ("relink", a.a_relink_ns);
    ("channel_setup", a.a_channel_ns);
    ("teardown", a.a_teardown_ns);
  ]

type explanation = {
  e_reason : string;
  e_stage : string;
  e_conflicts : Mcr_error.conflict_obj list;
  e_fault : string option;
}

type round = { r_words : int; r_cost_ns : int }

type slo = {
  s_downtime_budget_ns : int option;
  s_total_budget_ns : int option;
  s_downtime_ok : bool;
  s_total_ok : bool;
}

let slo_violated s = (not s.s_downtime_ok) || not s.s_total_ok

type record = {
  f_seq : int;
  f_attempt : int;
  f_prog : string;
  f_from : string;
  f_to : string;
  f_success : bool;
  f_start_ns : int;
  f_total_ns : int;
  f_downtime_ns : int;
  f_precopy : bool;
  f_workers : int;
  f_remapped_words : int;
  f_skipped_clean_words : int;
  f_rounds : round list;
  f_attribution : attribution;
  f_slo : slo option;
  f_explanation : explanation option;
  f_prior : record list;
}

let unattributed_ns r = r.f_downtime_ns - attribution_sum r.f_attribution
let reconciled ?(epsilon = 0) r = abs (unattributed_ns r) <= epsilon

(* ------------------------------------------------------------------ *)
(* JSON encoding: fixed field order, integers only, no float printing. *)

let esc = Json_escape.escape

let opt_int = function None -> "null" | Some v -> string_of_int v
let opt_str = function None -> "null" | Some s -> Printf.sprintf "\"%s\"" (esc s)

let attribution_json a =
  Printf.sprintf
    "{\"quiesce_ns\":%d,\"restart_ns\":%d,\"trace_ns\":%d,\"copy_ns\":%d,\
     \"spawn_join_ns\":%d,\"relink_ns\":%d,\"channel_ns\":%d,\"handlers_ns\":%d,\
     \"teardown_ns\":%d}"
    a.a_quiesce_ns a.a_restart_ns a.a_trace_ns a.a_copy_ns a.a_spawn_join_ns a.a_relink_ns
    a.a_channel_ns a.a_handlers_ns a.a_teardown_ns

let conflict_json (c : Mcr_error.conflict_obj) =
  Printf.sprintf
    "{\"kind\":\"%s\",\"addr\":%d,\"ty\":%s,\"callstack\":%d,\"shard\":%d,\"round\":%d,\
     \"detail\":\"%s\"}"
    (esc c.co_kind) c.co_addr (opt_str c.co_ty) c.co_callstack c.co_shard c.co_round
    (esc c.co_detail)

let explanation_json e =
  Printf.sprintf "{\"reason\":\"%s\",\"stage\":\"%s\",\"fault\":%s,\"conflicts\":[%s]}"
    (esc e.e_reason) (esc e.e_stage) (opt_str e.e_fault)
    (String.concat "," (List.map conflict_json e.e_conflicts))

let slo_json s =
  Printf.sprintf
    "{\"downtime_budget_ns\":%s,\"total_budget_ns\":%s,\"downtime_ok\":%b,\"total_ok\":%b}"
    (opt_int s.s_downtime_budget_ns) (opt_int s.s_total_budget_ns) s.s_downtime_ok s.s_total_ok

let round_json r = Printf.sprintf "{\"words\":%d,\"cost_ns\":%d}" r.r_words r.r_cost_ns

let rec to_json r =
  Printf.sprintf
    "{\"seq\":%d,\"attempt\":%d,\"prog\":\"%s\",\"from\":\"%s\",\"to\":\"%s\",\
     \"success\":%b,\"start_ns\":%d,\"total_ns\":%d,\"downtime_ns\":%d,\
     \"unattributed_ns\":%d,\"precopy\":%b,\"workers\":%d,\
     \"remapped_words\":%d,\"skipped_clean_words\":%d,\"rounds\":[%s],\
     \"attribution\":%s,\"slo\":%s,\"explanation\":%s,\"prior\":[%s]}"
    r.f_seq r.f_attempt (esc r.f_prog) (esc r.f_from) (esc r.f_to) r.f_success r.f_start_ns
    r.f_total_ns r.f_downtime_ns (unattributed_ns r) r.f_precopy r.f_workers
    r.f_remapped_words r.f_skipped_clean_words
    (String.concat "," (List.map round_json r.f_rounds))
    (attribution_json r.f_attribution)
    (match r.f_slo with None -> "null" | Some s -> slo_json s)
    (match r.f_explanation with None -> "null" | Some e -> explanation_json e)
    (String.concat "," (List.map to_json r.f_prior))

let list_to_json records = "[" ^ String.concat ",\n" (List.map to_json records) ^ "]"

(* ------------------------------------------------------------------ *)
(* JSON decoding (the postmortem tool's input path) *)

let decode_error what = Error (Printf.sprintf "flight record: missing or ill-typed %s" what)

let req what = function Some v -> Ok v | None -> decode_error what

let ( let* ) = Result.bind

(* A duration or word count: present and not negative. The renderer
   negates and sums these, so a negative one would print nonsense. *)
let count what o =
  let* v = req what o in
  if v < 0 then Error (Printf.sprintf "flight record: negative %s" what) else Ok v

let decode_attribution j =
  let field name = count ("attribution." ^ name) (Json.int_field name j) in
  let* a_quiesce_ns = field "quiesce_ns" in
  let* a_restart_ns = field "restart_ns" in
  let* a_trace_ns = field "trace_ns" in
  let* a_copy_ns = field "copy_ns" in
  let* a_spawn_join_ns = field "spawn_join_ns" in
  let* a_relink_ns = field "relink_ns" in
  let* a_channel_ns = field "channel_ns" in
  let* a_handlers_ns = field "handlers_ns" in
  let* a_teardown_ns = field "teardown_ns" in
  let a =
    {
      a_quiesce_ns;
      a_restart_ns;
      a_trace_ns;
      a_copy_ns;
      a_spawn_join_ns;
      a_relink_ns;
      a_channel_ns;
      a_handlers_ns;
      a_teardown_ns;
    }
  in
  (* [attribution_sum] must not wrap: every component is non-negative. *)
  let fits =
    List.fold_left
      (fun sum (_, ns) -> match sum with Some s when ns <= max_int - s -> Some (s + ns) | _ -> None)
      (Some 0) (attribution_components a)
  in
  if fits = None then Error "flight record: attribution components sum past max_int" else Ok a

let decode_conflict j =
  let* co_kind = req "conflict.kind" (Json.str_field "kind" j) in
  let* co_addr = req "conflict.addr" (Json.int_field "addr" j) in
  let co_ty = Json.str_field "ty" j in
  let* co_callstack = req "conflict.callstack" (Json.int_field "callstack" j) in
  let* co_shard = req "conflict.shard" (Json.int_field "shard" j) in
  let* co_round = req "conflict.round" (Json.int_field "round" j) in
  let* co_detail = req "conflict.detail" (Json.str_field "detail" j) in
  Ok { Mcr_error.co_kind; co_addr; co_ty; co_callstack; co_shard; co_round; co_detail }

let rec collect f = function
  | [] -> Ok []
  | x :: tl ->
      let* v = f x in
      let* rest = collect f tl in
      Ok (v :: rest)

let decode_explanation j =
  let* e_reason = req "explanation.reason" (Json.str_field "reason" j) in
  let* e_stage = req "explanation.stage" (Json.str_field "stage" j) in
  let e_fault = Json.str_field "fault" j in
  let* conflicts = req "explanation.conflicts" (Json.list_field "conflicts" j) in
  let* e_conflicts = collect decode_conflict conflicts in
  Ok { e_reason; e_stage; e_conflicts; e_fault }

let decode_slo j =
  let s_downtime_budget_ns = Json.int_field "downtime_budget_ns" j in
  let s_total_budget_ns = Json.int_field "total_budget_ns" j in
  let* s_downtime_ok = req "slo.downtime_ok" (Json.bool_field "downtime_ok" j) in
  let* s_total_ok = req "slo.total_ok" (Json.bool_field "total_ok" j) in
  Ok { s_downtime_budget_ns; s_total_budget_ns; s_downtime_ok; s_total_ok }

let decode_round j =
  let* r_words = count "round.words" (Json.int_field "words" j) in
  let* r_cost_ns = count "round.cost_ns" (Json.int_field "cost_ns" j) in
  Ok { r_words; r_cost_ns }

let rec decode j =
  let* f_seq = req "seq" (Json.int_field "seq" j) in
  let* f_attempt = req "attempt" (Json.int_field "attempt" j) in
  let* f_prog = req "prog" (Json.str_field "prog" j) in
  let* f_from = req "from" (Json.str_field "from" j) in
  let* f_to = req "to" (Json.str_field "to" j) in
  let* f_success = req "success" (Json.bool_field "success" j) in
  let* f_start_ns = count "start_ns" (Json.int_field "start_ns" j) in
  let* f_total_ns = count "total_ns" (Json.int_field "total_ns" j) in
  let* f_downtime_ns = count "downtime_ns" (Json.int_field "downtime_ns" j) in
  let* f_precopy = req "precopy" (Json.bool_field "precopy" j) in
  let* f_workers = req "workers" (Json.int_field "workers" j) in
  (* word counters postdate the first recorder format: default 0 so old
     artifacts still decode *)
  let word_count name = count name (Some (Option.value (Json.int_field name j) ~default:0)) in
  let* f_remapped_words = word_count "remapped_words" in
  let* f_skipped_clean_words = word_count "skipped_clean_words" in
  let* rounds = req "rounds" (Json.list_field "rounds" j) in
  let* f_rounds = collect decode_round rounds in
  let* attribution = req "attribution" (Json.member "attribution" j) in
  let* f_attribution = decode_attribution attribution in
  let* f_slo =
    match Json.member "slo" j with
    | None | Some Json.Null -> Ok None
    | Some s ->
        let* s = decode_slo s in
        Ok (Some s)
  in
  let* f_explanation =
    match Json.member "explanation" j with
    | None | Some Json.Null -> Ok None
    | Some e ->
        let* e = decode_explanation e in
        Ok (Some e)
  in
  let* f_prior =
    match Json.list_field "prior" j with
    | None -> Ok []
    | Some priors -> collect decode priors
  in
  Ok
    {
      f_seq;
      f_attempt;
      f_prog;
      f_from;
      f_to;
      f_success;
      f_start_ns;
      f_total_ns;
      f_downtime_ns;
      f_precopy;
      f_workers;
      f_remapped_words;
      f_skipped_clean_words;
      f_rounds;
      f_attribution;
      f_slo;
      f_explanation;
      f_prior;
    }

let of_json s =
  let* j = Json.parse s in
  decode j

let of_json_list s =
  let* j = Json.parse s in
  match j with
  | Json.List items -> collect decode items
  | j -> decode j |> Result.map (fun r -> [ r ])
