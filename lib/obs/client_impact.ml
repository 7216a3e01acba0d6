(* Correlate per-request stamps with a flight record's downtime waterfall.
   Pure arithmetic over already-recorded data — nothing here touches the
   kernel. *)

type req = {
  q_id : int;
  q_scheduled_ns : int;
  q_first_byte_ns : int;
  q_complete_ns : int;
  q_retries : int;
  q_ok : bool;
}

let window (r : Flight.record) =
  if r.Flight.f_downtime_ns <= 0 then None
  else
    let w_end = r.Flight.f_start_ns + r.Flight.f_total_ns in
    Some (w_end - r.Flight.f_downtime_ns, w_end)

let overlaps (w_start, w_end) q = q.q_scheduled_ns < w_end && q.q_complete_ns > w_start

(* The waterfall component containing [offset] ns into the window: walk the
   components cumulatively, skipping zero-length ones. Offsets past the
   attributed span (possible only if the record failed reconciliation) fall
   into the last non-empty segment. *)
let segment_at (a : Flight.attribution) offset =
  let components = List.filter (fun (_, ns) -> ns > 0) (Flight.attribution_components a) in
  let rec walk acc last = function
    | [] -> last
    | (label, ns) :: rest ->
        if offset < acc + ns then Some label else walk (acc + ns) (Some label) rest
  in
  walk 0 None components

let stalling_segment (r : Flight.record) q =
  match window r with
  | None -> None
  | Some ((w_start, _) as w) ->
      if not (overlaps w q) then None
      else segment_at r.Flight.f_attribution (max (q.q_scheduled_ns - w_start) 0)

type summary = {
  ci_window_start_ns : int;
  ci_window_end_ns : int;
  ci_total : int;
  ci_stalled : int;
  ci_retried : int;
  ci_errored : int;
  ci_by_segment : (string * int) list;
  ci_stalled_p50_ns : int;
  ci_stalled_p99_ns : int;
  ci_stalled_max_ns : int;
  ci_clear_p99_ns : int;
}

(* Exact percentile, rank = ceil(p/100 * n) — same rule the load driver's
   [exact_percentile] uses, so report and bench numbers agree. *)
let percentile ds p =
  let ds = Array.of_list ds in
  Array.sort Int.compare ds;
  let n = Array.length ds in
  if n = 0 then 0
  else
    let rank = max 1 (int_of_float (ceil (p /. 100. *. float_of_int n))) in
    ds.(min (n - 1) (rank - 1))

let analyze (r : Flight.record) reqs =
  let w_start, w_end = match window r with Some w -> w | None -> (0, 0) in
  let stalled, clear =
    if w_end = 0 then ([], reqs) else List.partition (overlaps (w_start, w_end)) reqs
  in
  let counts =
    List.map
      (fun (label, _) ->
        ( label,
          List.length
            (List.filter
               (fun q -> segment_at r.Flight.f_attribution (max (q.q_scheduled_ns - w_start) 0)
                         = Some label)
               stalled) ))
      (Flight.attribution_components r.Flight.f_attribution)
    |> List.filter (fun (_, n) -> n > 0)
  in
  let lat q = q.q_complete_ns - q.q_scheduled_ns in
  let stalled_lat = List.map lat stalled in
  {
    ci_window_start_ns = w_start;
    ci_window_end_ns = w_end;
    ci_total = List.length reqs;
    ci_stalled = List.length stalled;
    ci_retried = List.length (List.filter (fun q -> q.q_retries > 0) stalled);
    ci_errored = List.length (List.filter (fun q -> not q.q_ok) stalled);
    ci_by_segment = counts;
    ci_stalled_p50_ns = percentile stalled_lat 50.;
    ci_stalled_p99_ns = percentile stalled_lat 99.;
    ci_stalled_max_ns = List.fold_left max 0 stalled_lat;
    ci_clear_p99_ns = percentile (List.map lat clear) 99.;
  }

(* ------------------------------------------------------------------ *)
(* JSON: integers only, fixed field order, same dialect as Flight. *)

(* Decimal width of [n], its sign included, counted on [-|n|] so that
   [min_int] has one. *)
let int_width n =
  let rec go m w = if m > -10 then w else go (m / 10) (w + 1) in
  if n < 0 then go n 2 else go (-n) 1

(* The text of a requests file, spelled out piece by piece. *)
let spell ~put ~put_int ~server reqs =
  put {|{"server":"|};
  put (Json_escape.escape server);
  put {|","requests":[|};
  List.iteri
    (fun i q ->
      if i > 0 then put ",\n";
      put {|{"id":|};
      put_int q.q_id;
      put {|,"scheduled_ns":|};
      put_int q.q_scheduled_ns;
      put {|,"first_byte_ns":|};
      put_int q.q_first_byte_ns;
      put {|,"complete_ns":|};
      put_int q.q_complete_ns;
      put {|,"retries":|};
      put_int q.q_retries;
      put {|,"ok":|};
      put (string_of_bool q.q_ok);
      put "}")
    reqs;
  put "]}"

(* Spelled twice: once to measure the text, once to write it into bytes
   of exactly that length, so the whole text exists once. *)
let reqs_to_json ~server reqs =
  let len = ref 0 in
  spell ~server reqs
    ~put:(fun s -> len := !len + String.length s)
    ~put_int:(fun n -> len := !len + int_width n);
  let b = Bytes.create !len and pos = ref 0 in
  let put s =
    Bytes.blit_string s 0 b !pos (String.length s);
    pos := !pos + String.length s
  in
  let put_int n =
    let w = int_width n in
    if n < 0 then Bytes.set b !pos '-';
    let rec digits m i =
      Bytes.set b i (Char.unsafe_chr (Char.code '0' - (m mod 10)));
      if m <= -10 then digits (m / 10) (i - 1)
    in
    digits (if n < 0 then n else -n) (!pos + w - 1);
    pos := !pos + w
  in
  spell ~put ~put_int ~server reqs;
  Bytes.unsafe_to_string b

let ( let* ) = Result.bind

exception Missing of string

(* [key]'s value among a request's members, the first if it repeats, as
   [Json.member] finds it; [Missing key] when it is absent or of another
   type. A well-formed request decodes with no allocation but its record. *)
let rec member key = function
  | [] -> raise (Missing key)
  | (k, v) :: rest -> if String.equal k key then v else member key rest

let int_member key kvs = match member key kvs with Json.Int n -> n | _ -> raise (Missing key)
let bool_member key kvs = match member key kvs with Json.Bool b -> b | _ -> raise (Missing key)

(* The fields are read in order, so the first missing one is named. *)
let req_of_json j =
  let kvs = match j with Json.Obj kvs -> kvs | _ -> [] in
  let q_id = int_member "id" kvs in
  let q_scheduled_ns = int_member "scheduled_ns" kvs in
  let q_first_byte_ns = int_member "first_byte_ns" kvs in
  let q_complete_ns = int_member "complete_ns" kvs in
  let q_retries = int_member "retries" kvs in
  let q_ok = bool_member "ok" kvs in
  { q_id; q_scheduled_ns; q_first_byte_ns; q_complete_ns; q_retries; q_ok }

(* The requests array streams through [Json.fold_member]: each element's
   tree is decoded and dropped as it is parsed, and the first bad request
   is kept aside while the parse goes on. A parse error comes first, then
   a missing server, a missing array and the first bad request, as when
   the whole tree was built. *)
let reqs_of_json data =
  let bad = ref None in
  let step qs item =
    if Option.is_some !bad then qs
    else
      match req_of_json item with
      | q -> q :: qs
      | exception Missing what ->
          bad := Some ("request: missing " ^ what);
          qs
  in
  let* j, reqs = Json.fold_member data ~key:"requests" ~init:[] step in
  let* server =
    match Json.str_field "server" j with
    | Some s -> Ok s
    | None -> Error "requests file: missing server"
  in
  let* reqs =
    match (reqs, !bad) with
    | None, _ -> Error "requests file: missing requests array"
    | Some _, Some e -> Error e
    | Some r, None -> Ok r
  in
  Ok (server, List.rev reqs)
