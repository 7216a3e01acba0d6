(* Human-readable rendering of a flight record: a downtime waterfall plus
   the conflict narrative. All formatting is integer fixed-point — the
   output is deterministic and safe to golden-test. *)

let fms ns =
  let sign = if ns < 0 then "-" else "" in
  let ns = abs ns in
  Printf.sprintf "%s%d.%03d ms" sign (ns / 1_000_000) (ns mod 1_000_000 / 1000)

(* [a * b / c], truncated, for [a >= 0], small [b > 0] and [c > 0], without
   forming the product: a decoded record may carry any integer. Saturates
   at [max_int]. *)
let mul_div a b c =
  let q = a / c and r = a mod c in
  if q >= max_int / b then max_int
  else begin
    (* r * b / c, adding r modulo c b times: no sum exceeds c *)
    let n = ref (q * b) and acc = ref 0 in
    for _ = 1 to b do
      if !acc >= c - r then begin
        incr n;
        acc := !acc - (c - r)
      end
      else acc := !acc + r
    done;
    !n
  end

(* integer tenths of a percent, truncated: 2_333 -> "23.3%" *)
let pct part whole =
  if whole <= 0 then "  -  "
  else
    let tenths =
      if part >= 0 then mul_div part 1000 whole
      else -mul_div (if part = min_int then max_int else -part) 1000 whole
    in
    Printf.sprintf "%2d.%d%%" (tenths / 10) (abs (tenths mod 10))

let bar_width = 32

(* [part]'s bar against the widest of [0 < part <= widest]: at least one
   mark, at most [bar_width] *)
let bar part widest =
  let len = if widest <= 0 then 1 else max 1 (min bar_width (mul_div part bar_width widest)) in
  String.make len '#' ^ String.make (bar_width - len) ' '

let waterfall buf (a : Flight.attribution) ~downtime_ns =
  let components = Flight.attribution_components a in
  let widest = List.fold_left (fun acc (_, v) -> max acc v) 0 components in
  Buffer.add_string buf "downtime waterfall:\n";
  if downtime_ns = 0 then
    Buffer.add_string buf "  (window never opened: zero downtime)\n"
  else
    List.iter
      (fun (label, ns) ->
        if ns > 0 then
          Buffer.add_string buf
            (Printf.sprintf "  %-14s %14s  %s  |%s|\n" label (fms ns) (pct ns downtime_ns)
               (bar ns widest)))
      components;
  let residue = downtime_ns - Flight.attribution_sum a in
  Buffer.add_string buf
    (if residue = 0 then "  components sum to the reported downtime exactly\n"
     else Printf.sprintf "  !! %d ns of downtime unattributed\n" residue)

let conflict_line (c : Mcr_error.conflict_obj) =
  let shard = if c.co_shard < 0 then "-" else string_of_int c.co_shard in
  let round = if c.co_round = 0 then "-" else string_of_int c.co_round in
  Printf.sprintf "    - %s at 0x%x (%s), callstack %d, shard %s, precopy round %s: %s\n"
    c.co_kind c.co_addr
    (Option.value c.co_ty ~default:"untyped")
    c.co_callstack shard round c.co_detail

let explanation buf (e : Flight.explanation) =
  Buffer.add_string buf "rollback explanation:\n";
  Buffer.add_string buf (Printf.sprintf "  failed stage: %s\n" e.Flight.e_stage);
  Buffer.add_string buf (Printf.sprintf "  reason: %s\n" e.Flight.e_reason);
  (match e.Flight.e_fault with
  | Some points -> Buffer.add_string buf (Printf.sprintf "  fault points fired: %s\n" points)
  | None -> ());
  match e.Flight.e_conflicts with
  | [] -> ()
  | conflicts ->
      Buffer.add_string buf "  conflicting objects:\n";
      List.iter (fun c -> Buffer.add_string buf (conflict_line c)) conflicts

let slo_line (s : Flight.slo) ~downtime_ns ~total_ns =
  let budget label actual ok = function
    | None -> Printf.sprintf "%s budget: none" label
    | Some b ->
        Printf.sprintf "%s budget %s — %s" label (fms b)
          (if ok then "ok (" ^ fms actual ^ ")" else "VIOLATED (" ^ fms actual ^ ")")
  in
  Printf.sprintf "slo: %s; %s\n"
    (budget "downtime" downtime_ns s.Flight.s_downtime_ok s.Flight.s_downtime_budget_ns)
    (budget "total" total_ns s.Flight.s_total_ok s.Flight.s_total_budget_ns)

let prior_line (r : Flight.record) =
  let outcome =
    if r.Flight.f_success then "committed"
    else
      match r.Flight.f_explanation with
      | Some e -> Printf.sprintf "rolled back at %s (%s)" e.Flight.e_stage e.Flight.e_reason
      | None -> "rolled back"
  in
  Printf.sprintf "  #%d attempt %d: %s, downtime %s\n" r.Flight.f_seq r.Flight.f_attempt
    outcome (fms r.Flight.f_downtime_ns)

let render (r : Flight.record) =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf
    (Printf.sprintf "flight #%d %s %s -> %s — %s\n" r.Flight.f_seq r.Flight.f_prog
       r.Flight.f_from r.Flight.f_to
       (if r.Flight.f_success then "COMMITTED"
        else
          match r.Flight.f_explanation with
          | Some e -> "ROLLED BACK (" ^ e.Flight.e_reason ^ ")"
          | None -> "ROLLED BACK"));
  Buffer.add_string buf
    (Printf.sprintf "attempt %d; policy: %s, workers=%d\n" r.Flight.f_attempt
       (if r.Flight.f_precopy then
          Printf.sprintf "pre-copy (%d rounds run)" (List.length r.Flight.f_rounds)
        else "single-shot")
       r.Flight.f_workers);
  if r.Flight.f_remapped_words > 0 || r.Flight.f_skipped_clean_words > 0 then
    Buffer.add_string buf
      (Printf.sprintf "transfer: %d words remapped (zero-copy), %d clean words skipped\n"
         r.Flight.f_remapped_words r.Flight.f_skipped_clean_words);
  Buffer.add_string buf
    (Printf.sprintf "start %s into the run; total %s; downtime %s\n"
       (fms r.Flight.f_start_ns) (fms r.Flight.f_total_ns) (fms r.Flight.f_downtime_ns));
  Buffer.add_char buf '\n';
  waterfall buf r.Flight.f_attribution ~downtime_ns:r.Flight.f_downtime_ns;
  (match r.Flight.f_rounds with
  | [] -> ()
  | rounds ->
      Buffer.add_string buf "\npre-copy rounds (prepaid, outside the window):\n";
      List.iteri
        (fun i (rd : Flight.round) ->
          Buffer.add_string buf
            (Printf.sprintf "  round %d: %d delta words, %s\n" (i + 1) rd.Flight.r_words
               (fms rd.Flight.r_cost_ns)))
        rounds);
  (match r.Flight.f_explanation with
  | Some e ->
      Buffer.add_char buf '\n';
      explanation buf e
  | None -> ());
  (match r.Flight.f_slo with
  | Some s ->
      Buffer.add_char buf '\n';
      Buffer.add_string buf
        (slo_line s ~downtime_ns:r.Flight.f_downtime_ns ~total_ns:r.Flight.f_total_ns)
  | None -> ());
  (match r.Flight.f_prior with
  | [] -> ()
  | priors ->
      Buffer.add_string buf "\nprior attempts of this update:\n";
      List.iter (fun p -> Buffer.add_string buf (prior_line p)) priors);
  Buffer.contents buf

let render_list records = String.concat "\n" (List.map render records)

(* ------------------------------------------------------------------ *)
(* Client impact: which requests the window hit, and which waterfall
   segment held them. Same bar/fixed-point conventions as the waterfall
   so the two sections read side by side. *)

let render_client_impact (r : Flight.record) reqs =
  let s = Client_impact.analyze r reqs in
  let buf = Buffer.create 512 in
  Buffer.add_string buf "client impact:\n";
  if s.Client_impact.ci_window_end_ns = 0 then
    Buffer.add_string buf "  (window never opened: zero downtime, no requests stalled)\n"
  else begin
    Buffer.add_string buf
      (Printf.sprintf "  window %s -> %s (%s)\n"
         (fms s.Client_impact.ci_window_start_ns)
         (fms s.Client_impact.ci_window_end_ns)
         (fms (s.Client_impact.ci_window_end_ns - s.Client_impact.ci_window_start_ns)));
    Buffer.add_string buf
      (Printf.sprintf "  requests in flight or arriving inside the window: %d of %d\n"
         s.Client_impact.ci_stalled s.Client_impact.ci_total);
    (match s.Client_impact.ci_by_segment with
    | [] -> ()
    | counts ->
        let widest = List.fold_left (fun acc (_, n) -> max acc n) 0 counts in
        Buffer.add_string buf "  stalled in segment:\n";
        List.iter
          (fun (label, n) ->
            Buffer.add_string buf
              (Printf.sprintf "    %-14s %6d  %s  |%s|\n" label n
                 (pct n s.Client_impact.ci_stalled)
                 (bar n widest)))
          counts);
    if s.Client_impact.ci_stalled > 0 then begin
      Buffer.add_string buf
        (Printf.sprintf "  stalled latency: p50 %s, p99 %s, max %s\n"
           (fms s.Client_impact.ci_stalled_p50_ns)
           (fms s.Client_impact.ci_stalled_p99_ns)
           (fms s.Client_impact.ci_stalled_max_ns));
      Buffer.add_string buf
        (Printf.sprintf "  unaffected latency: p99 %s\n" (fms s.Client_impact.ci_clear_p99_ns));
      Buffer.add_string buf
        (Printf.sprintf "  retried (connect backoff): %d; errored: %d\n"
           s.Client_impact.ci_retried s.Client_impact.ci_errored)
    end
  end;
  Buffer.contents buf

(* ------------------------------------------------------------------ *)
(* Fleet rollout rendering: the wave timeline with per-instance verdicts,
   then the blocking verdict's full conflict narrative (its embedded
   flight record rendered like any single update). *)

let verdict_line (v : Fleet_flight.verdict) =
  let outcome =
    if not v.Fleet_flight.v_success then "ROLLED BACK"
    else if v.Fleet_flight.v_slo_violated then "committed, SLO VIOLATED"
    else if not v.Fleet_flight.v_healthy then "committed, UNHEALTHY"
    else "committed"
  in
  Printf.sprintf "    #%-3d %s, downtime %s, total %s%s\n" v.Fleet_flight.v_instance outcome
    (fms v.Fleet_flight.v_downtime_ns)
    (fms v.Fleet_flight.v_total_ns)
    (match v.Fleet_flight.v_reason with Some r -> " — " ^ r | None -> "")

let render_fleet (t : Fleet_flight.t) =
  let buf = Buffer.create 2048 in
  Buffer.add_string buf
    (Printf.sprintf "fleet rollout %s %s -> %s — %s\n" t.Fleet_flight.fs_prog
       t.Fleet_flight.fs_from t.Fleet_flight.fs_to
       (if t.Fleet_flight.fs_halted then
          match t.Fleet_flight.fs_blocking with
          | Some v ->
              Printf.sprintf "HALTED (%s)"
                (Option.value v.Fleet_flight.v_reason ~default:"blocking verdict")
          | None -> "HALTED"
        else "COMPLETED"));
  Buffer.add_string buf
    (Printf.sprintf
       "size %d; canary %d, waves of %d, max-unavailable %d, halt policy %s\n"
       t.Fleet_flight.fs_size t.Fleet_flight.fs_canary t.Fleet_flight.fs_wave_size
       t.Fleet_flight.fs_max_unavailable t.Fleet_flight.fs_halt);
  Buffer.add_string buf
    (Printf.sprintf "makespan %s; updated %d, reverted %d\n"
       (fms t.Fleet_flight.fs_makespan_ns)
       t.Fleet_flight.fs_updated t.Fleet_flight.fs_reverted);
  Buffer.add_string buf
    (Printf.sprintf "availability floor %d/%d (%s serving); %d request(s) routed, %d client error(s)\n"
       t.Fleet_flight.fs_min_serving t.Fleet_flight.fs_size
       (pct t.Fleet_flight.fs_min_serving t.Fleet_flight.fs_size)
       t.Fleet_flight.fs_requests t.Fleet_flight.fs_client_errors);
  Buffer.add_string buf "\nwave timeline:\n";
  if t.Fleet_flight.fs_waves = [] then Buffer.add_string buf "  (no waves ran)\n"
  else
    List.iter
      (fun (w : Fleet_flight.wave) ->
        Buffer.add_string buf
          (Printf.sprintf "  wave %d (%s)  %s -> %s\n" w.Fleet_flight.w_index
             w.Fleet_flight.w_kind
             (fms w.Fleet_flight.w_start_ns)
             (fms w.Fleet_flight.w_end_ns));
        List.iter
          (fun v -> Buffer.add_string buf (verdict_line v))
          w.Fleet_flight.w_verdicts)
      t.Fleet_flight.fs_waves;
  (match t.Fleet_flight.fs_blocking with
  | None -> ()
  | Some v ->
      Buffer.add_string buf
        (Printf.sprintf "\nblocking verdict: instance #%d in wave %d%s\n"
           v.Fleet_flight.v_instance v.Fleet_flight.v_wave
           (match v.Fleet_flight.v_reason with Some r -> ": " ^ r | None -> ""));
      (match v.Fleet_flight.v_flight with
      | None -> ()
      | Some f ->
          Buffer.add_string buf "\n";
          Buffer.add_string buf (render f)));
  Buffer.contents buf
