(* Every reader of outside text is total: the flight-record, fleet-summary,
   client-impact and policy decoders answer Ok or Error on any input and
   never raise, and every record they accept renders in mcr-postmortem
   without raising. Inputs are committed-format encodings of sample values,
   mutated by truncation, bit flips, integer literals swapped for extreme
   values, or replaced by random bytes. *)

module Flight = Mcr_obs.Flight
module Fleet_flight = Mcr_obs.Fleet_flight
module Client_impact = Mcr_obs.Client_impact
module Postmortem = Mcr_obs.Postmortem
module Policy = Mcr_core.Policy

(* ------------------------------------------------------------------ *)
(* Samples: every optional part present, so every decoder branch runs *)

let attribution =
  {
    Flight.a_quiesce_ns = 1_200_000;
    a_restart_ns = 0;
    a_trace_ns = 350_000;
    a_copy_ns = 2_400_000;
    a_spawn_join_ns = 40_000;
    a_relink_ns = 0;
    a_channel_ns = 15_000;
    a_handlers_ns = 90_000;
    a_teardown_ns = 60_000;
  }

let conflict =
  {
    Mcr_error.co_kind = "no_plan";
    co_addr = 0x9000_0b0;
    co_ty = Some "struct session";
    co_callstack = 77;
    co_shard = 2;
    co_round = 1;
    co_detail = "size changed";
  }

let rolled_back =
  {
    Flight.f_seq = 1;
    f_attempt = 0;
    f_prog = "httpd";
    f_from = "2.2.23";
    f_to = "2.3.8";
    f_success = false;
    f_start_ns = 50_000_000;
    f_total_ns = 9_000_000;
    f_downtime_ns = Flight.attribution_sum attribution;
    f_precopy = true;
    f_workers = 4;
    f_remapped_words = 512;
    f_skipped_clean_words = 2048;
    f_rounds = [ { Flight.r_words = 9000; r_cost_ns = 3_000_000 }; { r_words = 300; r_cost_ns = 90_000 } ];
    f_attribution = attribution;
    f_slo =
      Some
        {
          Flight.s_downtime_budget_ns = Some 1_000_000;
          s_total_budget_ns = None;
          s_downtime_ok = false;
          s_total_ok = true;
        };
    f_explanation =
      Some
        {
          Flight.e_reason = "mutable tracing conflict";
          e_stage = "state_transfer";
          e_conflicts = [ conflict ];
          e_fault = Some "transfer_conflict";
        };
    f_prior = [];
  }

let committed =
  { rolled_back with Flight.f_seq = 2; f_attempt = 1; f_success = true; f_explanation = None;
    f_prior = [ rolled_back ] }

let reqs =
  List.init 6 (fun i ->
      {
        Client_impact.q_id = i;
        q_scheduled_ns = 55_000_000 + (i * 1_000_000);
        q_first_byte_ns = (if i = 3 then -1 else 56_000_000 + (i * 1_000_000));
        q_complete_ns = 57_000_000 + (i * 1_500_000);
        q_retries = i mod 3;
        q_ok = i <> 4;
      })

let verdict ?flight ?reason instance wave =
  {
    Fleet_flight.v_instance = instance;
    v_wave = wave;
    v_success = flight = None;
    v_slo_violated = false;
    v_healthy = true;
    v_reason = reason;
    v_downtime_ns = 4_000_000;
    v_total_ns = 9_000_000;
    v_flight = flight;
  }

let blocking = verdict ~flight:rolled_back ~reason:"update rolled back" 2 1

let fleet =
  {
    Fleet_flight.fs_prog = "httpd";
    fs_from = "2.2.23";
    fs_to = "2.3.8";
    fs_size = 4;
    fs_canary = 1;
    fs_wave_size = 2;
    fs_max_unavailable = 2;
    fs_halt = "rollback_updated";
    fs_waves =
      [
        { Fleet_flight.w_index = 0; w_kind = "canary"; w_start_ns = 0; w_end_ns = 9_000_000;
          w_verdicts = [ verdict 0 0 ] };
        { w_index = 1; w_kind = "wave"; w_start_ns = 9_000_000; w_end_ns = 20_000_000;
          w_verdicts = [ verdict 1 1; blocking ] };
      ];
    fs_halted = true;
    fs_blocking = Some blocking;
    fs_updated = 1;
    fs_reverted = 1;
    fs_makespan_ns = 25_000_000;
    fs_min_serving = 2;
    fs_requests = 900;
    fs_client_errors = 3;
    fs_timeline = [ { Fleet_flight.s_ns = 0; s_serving = 4 }; { s_ns = 9_000_000; s_serving = 2 } ];
  }

let policy =
  Policy.default
  |> Policy.with_deadlines ~quiesce_ns:(Some 5_000_000) ~update_ns:(Some 2_000_000_000)
  |> Policy.with_retries ~backoff_ns:50_000_000 2
  |> Policy.with_precopy ~max_rounds:3 ~threshold_words:256 true
  |> Policy.with_transfer_workers 4
  |> Policy.with_slo ~downtime_ns:(Some 1_000_000) ~total_ns:None

(* ------------------------------------------------------------------ *)
(* Mutations *)

type mutation =
  | Truncate of int  (** keep a prefix of this length (mod the text's) *)
  | Flip of (int * int) list  (** (byte position, bit) pairs *)
  | Int_literal of int * int  (** (which literal, replacement) *)
  | Random_bytes of string

let extremes = [ max_int; min_int; -1; 0; 3 lsl 56 ]

let show = function
  | Truncate n -> Printf.sprintf "truncate at %d" n
  | Flip fs -> String.concat ", " (List.map (fun (p, b) -> Printf.sprintf "flip byte %d bit %d" p b) fs)
  | Int_literal (i, v) -> Printf.sprintf "integer literal %d := %d" i v
  | Random_bytes s -> Printf.sprintf "random bytes %S" s

let gen_mutation =
  QCheck.Gen.(
    oneof
      [
        map (fun n -> Truncate n) (int_bound 100_000);
        map (fun fs -> Flip fs) (list_size (int_range 1 4) (pair (int_bound 100_000) (int_bound 7)));
        map2 (fun i v -> Int_literal (i, v)) (int_bound 1000) (oneofl extremes);
        map (fun s -> Random_bytes s) (string_size ~gen:char (int_range 0 300));
      ])

(* start and end offsets of every integer literal (optional minus, digits) *)
let int_literals text =
  let n = String.length text in
  let is_digit c = c >= '0' && c <= '9' in
  let rec scan i acc =
    if i >= n then List.rev acc
    else
      let start = if text.[i] = '-' && i + 1 < n && is_digit text.[i + 1] then i + 1 else i in
      if is_digit text.[start] then begin
        let j = ref start in
        while !j < n && is_digit text.[!j] do incr j done;
        scan !j ((i, !j) :: acc)
      end
      else scan (i + 1) acc
  in
  scan 0 []

let apply text = function
  | Truncate k -> String.sub text 0 (k mod (String.length text + 1))
  | Flip fs ->
      let b = Bytes.of_string text in
      if Bytes.length b > 0 then
        List.iter
          (fun (p, bit) ->
            let p = p mod Bytes.length b in
            Bytes.set b p (Char.chr (Char.code (Bytes.get b p) lxor (1 lsl bit))))
          fs;
      Bytes.to_string b
  | Int_literal (i, v) -> (
      match int_literals text with
      | [] -> text
      | lits ->
          let s, e = List.nth lits (i mod List.length lits) in
          String.sub text 0 s ^ string_of_int v ^ String.sub text e (String.length text - e))
  | Random_bytes s -> s

(* ------------------------------------------------------------------ *)
(* One property per reader *)

let total ~name ~encoded ~decode ~render =
  QCheck.Test.make ~count:400 ~name (QCheck.make ~print:show gen_mutation) (fun m ->
      let text = apply encoded m in
      match decode text with
      | exception e ->
          QCheck.Test.fail_reportf "reader raised %s on %S" (Printexc.to_string e) text
      | Error _ -> true
      | Ok v -> (
          match render v with
          | exception e ->
              QCheck.Test.fail_reportf "render raised %s on %S" (Printexc.to_string e) text
          | () -> true))

let prop_flight =
  total ~name:"Flight.of_json is total and renders" ~encoded:(Flight.to_json rolled_back)
    ~decode:Flight.of_json ~render:(fun r ->
      ignore (Postmortem.render r);
      ignore (Postmortem.render_client_impact r reqs))

let prop_flight_list =
  total ~name:"Flight.of_json_list is total and renders"
    ~encoded:(Flight.list_to_json [ rolled_back; committed ])
    ~decode:Flight.of_json_list ~render:(fun rs -> ignore (Postmortem.render_list rs))

let prop_fleet =
  total ~name:"Fleet_flight.of_json is total and renders" ~encoded:(Fleet_flight.to_json fleet)
    ~decode:Fleet_flight.of_json ~render:(fun t -> ignore (Postmortem.render_fleet t))

let prop_client_impact =
  total ~name:"Client_impact.reqs_of_json is total and renders"
    ~encoded:(Client_impact.reqs_to_json ~server:"nginx" reqs)
    ~decode:Client_impact.reqs_of_json ~render:(fun (_, rs) ->
      ignore (Postmortem.render_client_impact rolled_back rs);
      ignore (Postmortem.render_client_impact committed rs))

let prop_policy =
  total ~name:"Policy.of_kv is total and re-encodes" ~encoded:(Policy.to_kv policy)
    ~decode:(Policy.of_kv ~base:Policy.default) ~render:(fun p -> ignore (Policy.to_kv p))

(* ------------------------------------------------------------------ *)
(* Request stamps: the writer's bytes and the streamed reader

   [reqs_to_json] writes into bytes measured up front; its text must be
   what one [Printf] per request joined by [String.concat] gave, and
   [reqs_of_json], which streams the requests array through
   [Json.fold_member], must invert it. *)

let printf_reqs_json ~server reqs =
  let req_to_json (q : Client_impact.req) =
    Printf.sprintf
      {|{"id":%d,"scheduled_ns":%d,"first_byte_ns":%d,"complete_ns":%d,"retries":%d,"ok":%b}|}
      q.q_id q.q_scheduled_ns q.q_first_byte_ns q.q_complete_ns q.q_retries q.q_ok
  in
  Printf.sprintf {|{"server":"%s","requests":[%s]}|}
    (Mcr_obs.Json_escape.escape server)
    (String.concat ",\n" (List.map req_to_json reqs))

let gen_stamps =
  QCheck.Gen.(
    let stamp = frequency [ (2, oneofl [ -1; 0; 9; 10; max_int; min_int ]); (3, int); (3, nat) ] in
    let req =
      map
        (fun ((q_id, q_scheduled_ns, q_first_byte_ns), (q_complete_ns, q_retries, q_ok)) ->
          { Client_impact.q_id; q_scheduled_ns; q_first_byte_ns; q_complete_ns; q_retries; q_ok })
        (pair (triple stamp stamp stamp) (triple stamp stamp bool))
    in
    let server =
      oneof
        [ oneofl [ "nginx"; ""; {|a"b\c|}; "tab\there\nnl"; "\001\031\127"; "caf\xc3\xa9" ];
          string_size ~gen:char (int_bound 12) ]
    in
    pair server (frequency [ (1, return []); (4, list_size (int_bound 40) req) ]))

let show_stamps (server, rs) =
  Printf.sprintf "server %S, %d requests: %s" server (List.length rs)
    (String.concat "; "
       (List.map
          (fun (q : Client_impact.req) ->
            Printf.sprintf "%d %d %d %d %d %b" q.q_id q.q_scheduled_ns q.q_first_byte_ns
              q.q_complete_ns q.q_retries q.q_ok)
          rs))

let prop_requests_roundtrip =
  QCheck.Test.make ~count:500 ~name:"reqs_to_json writes the Printf bytes and reads back"
    (QCheck.make ~print:show_stamps gen_stamps) (fun (server, rs) ->
      let text = Client_impact.reqs_to_json ~server rs in
      let expected = printf_reqs_json ~server rs in
      if text <> expected then QCheck.Test.fail_reportf "wrote %S, Printf gives %S" text expected;
      match Client_impact.reqs_of_json text with
      | Ok (s, qs) -> s = server && qs = rs
      | Error e -> QCheck.Test.fail_reportf "read back: %s" e)

(* A bad requests file names its first fault: a parse error, then a
   missing server, a missing array, then the first bad request in order,
   a field of the wrong type counting as missing. *)
let test_requests_errors () =
  let full = {|{"id":1,"scheduled_ns":2,"first_byte_ns":3,"complete_ns":4,"retries":0,"ok":true}|} in
  let file reqs = Printf.sprintf {|{"server":"s","requests":[%s]}|} (String.concat "," reqs) in
  List.iter
    (fun (text, want) ->
      let got =
        match Client_impact.reqs_of_json text with
        | Ok (_, qs) -> Printf.sprintf "ok %d" (List.length qs)
        | Error e -> e
      in
      Alcotest.(check string) text want got)
    [
      (file [ full; full ], "ok 2");
      (file [ full; {|{"id":1,"scheduled_ns":2}|}; {|{}|} ], "request: missing first_byte_ns");
      (file [ {|{"id":1,"scheduled_ns":2,"first_byte_ns":3,"complete_ns":4,"retries":0,"ok":1}|} ],
       "request: missing ok");
      (file [ {|{"id":true}|} ], "request: missing id");
      (file [ {|[1]|} ], "request: missing id");
      ({|{"requests":[{}]}|}, "requests file: missing server");
      ({|{"server":"s"}|}, "requests file: missing requests array");
    ];
  match Client_impact.reqs_of_json ({|{"requests":[{}],|}) with
  | Error e when not (String.starts_with ~prefix:"request" e) -> ()
  | Ok _ | Error _ -> Alcotest.fail "a parse error must come before a bad request"

(* ------------------------------------------------------------------ *)
(* The overflow the waterfall once had *)

let contains haystack needle =
  let nh = String.length haystack and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub haystack i nn = needle || go (i + 1)) in
  go 0

(* A component above max_int / 32 used to overflow [ns * bar_width] into a
   negative bar length, and String.make raised. *)
let test_huge_component_renders () =
  List.iter
    (fun ns ->
      let r =
        {
          rolled_back with
          Flight.f_downtime_ns = ns;
          f_attribution = { Flight.zero_attribution with Flight.a_quiesce_ns = ns };
        }
      in
      let text =
        match Postmortem.render r with
        | text -> text
        | exception e -> Alcotest.failf "render raised %s at %d ns" (Printexc.to_string e) ns
      in
      let full_bar = "100.0%  |" ^ String.make 32 '#' ^ "|" in
      Alcotest.(check bool)
        (Printf.sprintf "%d ns: a full bar at 100%%" ns)
        true
        (contains text full_bar))
    [ 3 lsl 56; max_int; 1_000_000 ]

(* ------------------------------------------------------------------ *)
(* Durations and word counts the flight decoder refuses

   mcr-postmortem negates and sums these fields: a negative one once
   rendered "start --4611686018427.-387 ms", and components summing past
   max_int reported a negative unattributed residue. *)

let with_attribution f = { rolled_back with Flight.f_attribution = f attribution }

let refused =
  [
    ("start_ns", { rolled_back with Flight.f_start_ns = min_int });
    ("total_ns", { rolled_back with Flight.f_total_ns = -1 });
    ("downtime_ns", { rolled_back with Flight.f_downtime_ns = -1 });
    ("attribution.quiesce_ns", with_attribution (fun a -> { a with Flight.a_quiesce_ns = -1 }));
    ("attribution.restart_ns", with_attribution (fun a -> { a with Flight.a_restart_ns = -1 }));
    ("attribution.trace_ns", with_attribution (fun a -> { a with Flight.a_trace_ns = -1 }));
    ("attribution.copy_ns", with_attribution (fun a -> { a with Flight.a_copy_ns = min_int }));
    ( "attribution.spawn_join_ns",
      with_attribution (fun a -> { a with Flight.a_spawn_join_ns = -1 }) );
    ("attribution.relink_ns", with_attribution (fun a -> { a with Flight.a_relink_ns = -1 }));
    ("attribution.channel_ns", with_attribution (fun a -> { a with Flight.a_channel_ns = -1 }));
    ("attribution.handlers_ns", with_attribution (fun a -> { a with Flight.a_handlers_ns = -1 }));
    ("attribution.teardown_ns", with_attribution (fun a -> { a with Flight.a_teardown_ns = -1 }));
    ( "attribution components",
      with_attribution (fun a -> { a with Flight.a_quiesce_ns = max_int; a_copy_ns = 1 }) );
    ( "round.cost_ns",
      { rolled_back with Flight.f_rounds = [ { Flight.r_words = 1; r_cost_ns = -1 } ] } );
    ("round.words", { rolled_back with Flight.f_rounds = [ { Flight.r_words = -1; r_cost_ns = 1 } ] });
    ("remapped_words", { rolled_back with Flight.f_remapped_words = -1 });
    ("skipped_clean_words", { rolled_back with Flight.f_skipped_clean_words = -1 });
    ("start_ns", { committed with Flight.f_prior = [ { rolled_back with Flight.f_start_ns = -1 } ] });
  ]

let test_negative_fields_refused () =
  List.iter
    (fun r ->
      match Flight.of_json (Flight.to_json r) with
      | Ok _ -> ()
      | Error e -> Alcotest.failf "sample refused: %s" e)
    [ rolled_back; committed ];
  List.iter
    (fun (field, r) ->
      match Flight.of_json (Flight.to_json r) with
      | Ok _ -> Alcotest.failf "%s: out-of-range value accepted" field
      | Error e ->
          if not (contains e field) then Alcotest.failf "%s: error does not name it: %s" field e)
    refused

let () =
  let qt = QCheck_alcotest.to_alcotest in
  Alcotest.run "readers"
    [
      ( "total",
        [ qt prop_flight; qt prop_flight_list; qt prop_fleet; qt prop_client_impact; qt prop_policy ]
      );
      ( "requests",
        [
          qt prop_requests_roundtrip;
          Alcotest.test_case "first fault named" `Quick test_requests_errors;
        ] );
      ("postmortem", [ Alcotest.test_case "huge component renders" `Quick test_huge_component_renders ]);
      ( "flight",
        [
          Alcotest.test_case "negative or overflowing fields refused" `Quick
            test_negative_fields_refused;
        ] );
    ]
