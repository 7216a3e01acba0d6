(* Client-perceived latency observability: the open-loop load driver, the
   request-conservation ledger through updates (parking on and off, faults
   injected and not), the client-impact correlation, and the fleet-wide
   latency merge. *)

module K = Mcr_simos.Kernel
module Manager = Mcr_core.Manager
module Policy = Mcr_core.Policy
module Testbed = Mcr_workloads.Testbed
module Loadgen = Mcr_workloads.Loadgen
module Stats = Mcr_util.Stats
module Metrics = Mcr_obs.Metrics
module Flight = Mcr_obs.Flight
module Client_impact = Mcr_obs.Client_impact
module Fleet = Mcr_fleet.Fleet

(* Same version-pair rule as bench/latencybench: the web servers keep
   thousands of connections in one address space and need a large heap;
   vsftpd/sshd fork per session and must keep the default one. *)
let heap_words = 8 * 1024 * 1024

let versions server =
  match (server : Testbed.server) with
  | Testbed.Nginx ->
      (Mcr_servers.Nginx_sim.base ~heap_words (), Mcr_servers.Nginx_sim.final ~heap_words ())
  | Testbed.Httpd ->
      (Mcr_servers.Httpd_sim.base ~heap_words (), Mcr_servers.Httpd_sim.final ~heap_words ())
  | Testbed.Vsftpd -> (Mcr_servers.Vsftpd_sim.base (), Mcr_servers.Vsftpd_sim.final ())
  | Testbed.Sshd -> (Mcr_servers.Sshd_sim.base (), Mcr_servers.Sshd_sim.final ())

let shrink_ftp_payload kernel server =
  match (server : Testbed.server) with
  | Testbed.Vsftpd ->
      K.fs_write kernel
        ~path:(Mcr_servers.Vsftpd_sim.ftp_root ^ "/big.bin")
        (String.make 1024 'f')
  | _ -> ()

(* One update bracketed by an open-loop stream; returns the driver, the
   update report, and the kernel's parking ledger. *)
let run_stream server ~seed ~parking ~precopy ~remap ~fault_seed ~requests ~rate () =
  let kernel = K.create () in
  let base_version, final_version = versions server in
  let m = Testbed.launch ~version:base_version kernel server in
  shrink_ftp_payload kernel server;
  let policy =
    Policy.default
    |> Policy.with_concurrent_transfer true
    |> Policy.with_request_parking parking
    |> Policy.with_precopy precopy
    |> Policy.with_transfer_remap remap
    |> Policy.with_fault_seed fault_seed
    |> Policy.with_deadlines ~quiesce_ns:(Some 3_000_000_000)
         ~update_ns:(Some 15_000_000_000)
  in
  let lg =
    Loadgen.start kernel ~server ~seed ~metrics:(Manager.metrics m) ~rate ~requests ()
  in
  K.run_for kernel 3_000_000;
  let _m2, report = Manager.update m ~policy final_version in
  Loadgen.drive lg;
  (lg, report, K.parking_stats kernel)

(* ------------------------------------------------------------------ *)
(* Determinism: same seed, same geometry — identical per-request stamps. *)

let test_poisson_determinism () =
  let go () =
    let lg, _, _ =
      run_stream Testbed.Httpd ~seed:7 ~parking:true ~precopy:false ~remap:false
        ~fault_seed:None ~requests:300 ~rate:30_000 ()
    in
    lg
  in
  let a = go () and b = go () in
  Alcotest.(check int) "issued" (Loadgen.issued a) (Loadgen.issued b);
  Alcotest.(check bool) "identical record streams" true
    (Loadgen.records a = Loadgen.records b);
  Alcotest.(check int) "identical p99.9" (Loadgen.exact_percentile a 99.9)
    (Loadgen.exact_percentile b 99.9);
  let sa = Loadgen.summary a and sb = Loadgen.summary b in
  Alcotest.(check bool) "identical histograms" true (sa = sb);
  (* a different seed draws a different schedule *)
  let c, _, _ =
    run_stream Testbed.Httpd ~seed:8 ~parking:true ~precopy:false ~remap:false
      ~fault_seed:None ~requests:300 ~rate:30_000 ()
  in
  Alcotest.(check bool) "different seed, different stamps" false
    (Loadgen.records a = Loadgen.records c)

(* ------------------------------------------------------------------ *)
(* Conservation: across servers, pre-copy, remap, parking and injected
   faults, no request is lost and no parked connection is stranded. *)

let servers = [| Testbed.Nginx; Testbed.Httpd; Testbed.Vsftpd; Testbed.Sshd |]

let prop_conservation =
  QCheck.Test.make ~name:"requests and parked connections are conserved" ~count:12
    QCheck.(
      quad
        (int_range 0 (Array.length servers - 1))
        (triple bool bool bool)
        (int_range 0 1_000_000) bool)
    (fun (si, (precopy, remap, parking), seed, inject) ->
      let server = servers.(si) in
      let fault_seed = if inject then Some seed else None in
      let requests = 120 in
      let lg, _report, ps =
        run_stream server ~seed:5 ~parking ~precopy ~remap ~fault_seed ~requests
          ~rate:20_000 ()
      in
      let issued = Loadgen.issued lg in
      let completed = Loadgen.completed lg in
      let errored = Loadgen.errored lg in
      if issued <> requests then
        QCheck.Test.fail_reportf "issued %d <> scheduled %d" issued requests;
      if completed + errored <> issued then
        QCheck.Test.fail_reportf "completed %d + errored %d <> issued %d" completed
          errored issued;
      if ps.K.parked <> ps.K.resumed + ps.K.aborted then
        QCheck.Test.fail_reportf "parked %d <> resumed %d + aborted %d" ps.K.parked
          ps.K.resumed ps.K.aborted;
      if (not parking) && ps.K.parked <> 0 then
        QCheck.Test.fail_reportf "parked %d without request_parking" ps.K.parked;
      (* without injected faults the stream must be loss- and abort-free *)
      if fault_seed = None && errored > 0 then
        QCheck.Test.fail_reportf "%d errored without faults" errored;
      if fault_seed = None && ps.K.aborted > 0 then
        QCheck.Test.fail_reportf "%d aborted without faults" ps.K.aborted;
      true)

(* ------------------------------------------------------------------ *)
(* Client impact: window arithmetic, stall-segment attribution, JSON. *)

let impact_record =
  {
    Flight.f_seq = 1;
    f_attempt = 0;
    f_prog = "t";
    f_from = "a";
    f_to = "b";
    f_success = true;
    f_start_ns = 0;
    f_total_ns = 200_000;
    f_downtime_ns = 100_000;
    f_precopy = false;
    f_workers = 1;
    f_remapped_words = 0;
    f_skipped_clean_words = 0;
    f_rounds = [];
    f_attribution =
      {
        Flight.zero_attribution with
        Flight.a_quiesce_ns = 10_000;
        a_copy_ns = 30_000;
        a_relink_ns = 60_000;
      };
    f_slo = None;
    f_explanation = None;
    f_prior = [];
  }

let req ?(id = 0) ?(retries = 0) ?(ok = true) scheduled complete =
  {
    Client_impact.q_id = id;
    q_scheduled_ns = scheduled;
    q_first_byte_ns = -1;
    q_complete_ns = complete;
    q_retries = retries;
    q_ok = ok;
  }

let test_client_impact_segments () =
  (* window is [start + total - downtime, start + total) = [100k, 200k) *)
  Alcotest.(check (option (pair int int)))
    "window" (Some (100_000, 200_000))
    (Client_impact.window impact_record);
  let seg r = Client_impact.stalling_segment impact_record r in
  Alcotest.(check (option string)) "completed before window" None (seg (req 50_000 90_000));
  Alcotest.(check (option string)) "scheduled after window" None (seg (req 250_000 260_000));
  Alcotest.(check (option string))
    "in flight at window open -> first segment" (Some "quiesce")
    (seg (req 50_000 150_000));
  Alcotest.(check (option string))
    "arrives 15us in -> copy" (Some "copy")
    (seg (req 115_000 250_000));
  Alcotest.(check (option string))
    "arrives 50us in -> relink" (Some "relink")
    (seg (req 150_000 250_000));
  let zero = { impact_record with Flight.f_downtime_ns = 0 } in
  Alcotest.(check (option (pair int int))) "no downtime, no window" None
    (Client_impact.window zero);
  let s =
    Client_impact.analyze impact_record
      [ req 50_000 90_000; req 50_000 150_000; req 115_000 250_000;
        req ~retries:2 150_000 250_000; req 250_000 260_000 ]
  in
  Alcotest.(check int) "total" 5 s.Client_impact.ci_total;
  Alcotest.(check int) "stalled" 3 s.Client_impact.ci_stalled;
  Alcotest.(check int) "retried" 1 s.Client_impact.ci_retried;
  Alcotest.(check (list (pair string int)))
    "per-segment counts in waterfall order"
    [ ("quiesce", 1); ("copy", 1); ("relink", 1) ]
    s.Client_impact.ci_by_segment;
  Alcotest.(check int) "stalled max" 135_000 s.Client_impact.ci_stalled_max_ns

let test_client_impact_json_roundtrip () =
  let reqs = [ req ~id:1 10 20; req ~id:2 ~retries:3 ~ok:false 30 90 ] in
  let json = Client_impact.reqs_to_json ~server:"httpd" reqs in
  match Client_impact.reqs_of_json json with
  | Error e -> Alcotest.failf "round trip: %s" e
  | Ok (server, back) ->
      Alcotest.(check string) "server" "httpd" server;
      Alcotest.(check bool) "requests" true (back = reqs)

(* The end-to-end claim: a real update's flight record plus the driver's
   stamps attribute every stalled request to a waterfall segment. *)
let test_client_impact_end_to_end () =
  let lg, report, _ =
    run_stream Testbed.Httpd ~seed:3 ~parking:false ~precopy:false ~remap:false
      ~fault_seed:None ~requests:400 ~rate:40_000 ()
  in
  let flight = report.Manager.flight in
  match Client_impact.reqs_of_json (Loadgen.requests_json lg) with
  | Error e -> Alcotest.failf "requests_json: %s" e
  | Ok (_, reqs) ->
      let s = Client_impact.analyze flight reqs in
      Alcotest.(check int) "all stamps analyzed" 400 s.Client_impact.ci_total;
      Alcotest.(check bool) "some requests stalled in the window" true
        (s.Client_impact.ci_stalled > 0);
      let attributed =
        List.fold_left (fun acc (_, n) -> acc + n) 0 s.Client_impact.ci_by_segment
      in
      Alcotest.(check int) "every stalled request names a segment"
        s.Client_impact.ci_stalled attributed;
      let rendered = Mcr_obs.Postmortem.render_client_impact flight reqs in
      Alcotest.(check bool) "render mentions the window" true
        (String.length rendered > 0)

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  go 0

(* ------------------------------------------------------------------ *)
(* Policy plumbing. *)

let test_policy_concurrent_transfer_kv () =
  let p = Policy.default |> Policy.with_concurrent_transfer true in
  (match Policy.of_kv ~base:Policy.default (Policy.to_kv p) with
  | Ok q -> Alcotest.(check bool) "round trips" true q.Policy.concurrent_transfer
  | Error e -> Alcotest.failf "of_kv: %s" e);
  match Policy.of_kv ~base:Policy.default (Policy.to_kv Policy.default) with
  | Ok q -> Alcotest.(check bool) "defaults off" false q.Policy.concurrent_transfer
  | Error e -> Alcotest.failf "of_kv default: %s" e

(* [of_kv] refuses what the builders refuse: the value replaces its key in
   the default rendering, and the error must name the key. *)
let test_policy_of_kv_rejects key value () =
  let kv =
    String.split_on_char ' ' (Policy.to_kv Policy.default)
    |> List.map (fun tok ->
           if String.starts_with ~prefix:(key ^ "=") tok then key ^ "=" ^ value else tok)
    |> String.concat " "
  in
  match Policy.of_kv ~base:Policy.default kv with
  | Ok _ -> Alcotest.failf "of_kv accepted %s=%s" key value
  | Error e -> Alcotest.(check bool) ("error names the key: " ^ e) true (contains e key)

(* Every bound itself is accepted and round-trips. *)
let test_policy_of_kv_bounds () =
  let p =
    Policy.default
    |> Policy.with_deadlines ~quiesce_ns:(Some 0) ~update_ns:(Some 0)
    |> Policy.with_retries 0
    |> Policy.with_precopy ~max_rounds:1 ~threshold_words:0 true
    |> Policy.with_transfer_workers 1
    |> Policy.with_slo ~downtime_ns:(Some 1) ~total_ns:(Some 1)
    |> Policy.with_request_parking ~drain_ns:0 true
  in
  match Policy.of_kv ~base:Policy.default (Policy.to_kv p) with
  | Ok q -> Alcotest.(check bool) "round trips" true (q = p)
  | Error e -> Alcotest.failf "of_kv: %s" e

(* Over a non-default base, an absent key keeps the base's value (an
   option-valued one too) and [image_dir], which never round-trips, is the
   base's. *)
let test_policy_of_kv_base () =
  let base =
    Policy.default
    |> Policy.with_deadlines ~quiesce_ns:(Some 7) ~update_ns:None
    |> Policy.with_precopy ~max_rounds:3 true
    |> Policy.with_image_dir (Some "/img")
  in
  (match Policy.of_kv ~base "transfer_workers=2 update_deadline_ns=9" with
  | Ok q ->
      Alcotest.(check bool) "only the named keys change" true
        (q = { base with Policy.transfer_workers = 2; update_deadline_ns = Some 9 })
  | Error e -> Alcotest.failf "of_kv: %s" e);
  (match Policy.of_kv ~base "quiesce_deadline_ns=-" with
  | Ok q -> Alcotest.(check (option int)) "- clears an option" None q.Policy.quiesce_deadline_ns
  | Error e -> Alcotest.failf "of_kv: %s" e);
  match Policy.of_kv ~base "" with
  | Ok q -> Alcotest.(check bool) "empty text is the base" true (q = base)
  | Error e -> Alcotest.failf "of_kv: %s" e

let of_kv_rejected =
  [
    ("retries", "-1");
    ("retry_backoff_ns", "-1");
    ("precopy_max_rounds", "0");
    ("precopy_threshold_words", "-5");
    ("transfer_workers", "0");
    ("slo_downtime_ns", "0");
    ("slo_total_ns", "0");
    ("drain_ns", "-1");
    ("quiesce_deadline_ns", "-1");
    ("update_deadline_ns", "-1");
  ]

(* ------------------------------------------------------------------ *)
(* Fleet-wide latency merge. *)

let test_fleet_client_latency_merge () =
  let fleet = Fleet.of_testbed Testbed.Httpd ~n:2 in
  Alcotest.(check bool) "no observations yet" true (Fleet.client_latency fleet = None);
  let per_instance = 40 in
  for i = 0 to 1 do
    let lg =
      Loadgen.start (Fleet.instance_kernel fleet i) ~server:Testbed.Httpd
        ~metrics:(Manager.metrics (Fleet.manager fleet i))
        ~rate:20_000 ~requests:per_instance ()
    in
    Loadgen.drive lg;
    Alcotest.(check int) "instance stream completed" per_instance (Loadgen.completed lg)
  done;
  (match Fleet.client_latency fleet with
  | None -> Alcotest.fail "merged latency missing"
  | Some h ->
      Alcotest.(check int) "merged count = sum of instances" (2 * per_instance)
        h.Metrics.total;
      Alcotest.(check bool) "merged tail is positive" true
        ((Metrics.hist_snapshot_summary h).Stats.p999_ns > 0));
  let status = Fleet.status_text fleet in
  Alcotest.(check bool) "status_text surfaces client latency" true
    (contains status "client latency:")

(* ------------------------------------------------------------------ *)
(* Clients that have not arrived *)

(* Live words per client from before [Loadgen.start], once every client
   has been spawned and again once each has had its first dispatch and
   sleeps toward its arrival (a process spawned after them has run, so
   every dispatch has): a client that has not arrived is no process yet. *)
let test_unarrived_client_words () =
  let n = 2_000 in
  let kernel = K.create () in
  let words () =
    Gc.full_major ();
    (Gc.stat ()).Gc.live_words
  in
  let before = words () in
  let lg = Loadgen.start kernel ~server:Testbed.Nginx ~seed:1 ~rate:1 ~requests:n () in
  let spawned = words () in
  let probe =
    K.spawn_process kernel ~image:(K.Fresh_image (Mcr_vmem.Aspace.create ())) ~name:"probe"
      ~entry:"main" ~main:ignore ()
  in
  K.run_for kernel 100_000_000;
  let asleep = words () in
  Alcotest.(check bool) "every client dispatched, none arrived" true
    (K.exit_status probe = Some 0 && Loadgen.issued lg = 0
    && List.map K.pid (K.procs kernel) = [ K.pid probe ]
    && not (K.quiescent_system kernel));
  let per w = float_of_int (w - before) /. float_of_int n in
  if per spawned > 28. || per asleep > 28. then
    Alcotest.failf "%.1f live words per client spawned, %.1f asleep; want at most 28"
      (per spawned) (per asleep)

(* A client whose body raises (here, in the trace sink's clock) counts as
   finished: [drive] returns once the last client is done, although a
   ticking process would keep the kernel running to the horizon. *)
let test_drive_with_raising_body () =
  let kernel = K.create () in
  let _m = Testbed.launch kernel Testbed.Nginx in
  let _ticker =
    K.spawn_process kernel ~image:(K.Fresh_image (Mcr_vmem.Aspace.create ())) ~name:"ticker"
      ~entry:"main"
      ~main:(fun _ ->
        while true do
          ignore (K.syscall (Mcr_simos.Sysdefs.Nanosleep { ns = 1_000_000 }))
        done)
      ()
  in
  let trace = Mcr_obs.Trace.create ~clock:(fun () -> failwith "trace clock") () in
  let requests = 40 in
  let lg = Loadgen.start kernel ~server:Testbed.Nginx ~trace ~rate:20_000 ~requests () in
  let start = K.clock_ns kernel in
  Loadgen.drive ~max_s:60 lg;
  let clients =
    List.filter (fun p -> String.starts_with ~prefix:"load-" (K.proc_name p)) (K.procs kernel)
  in
  Alcotest.(check int) "every client issued" requests (Loadgen.issued lg);
  Alcotest.(check (list (option int))) "every client crashed in its body"
    (List.init requests (fun _ -> Some 139))
    (List.map K.exit_status clients);
  Alcotest.(check bool) "drive returned at the last exit, not at its horizon" true
    (K.clock_ns kernel - start < 1_000_000_000)

let () =
  let qt = QCheck_alcotest.to_alcotest in
  Alcotest.run "mcr_latency"
    [
      ( "loadgen",
        [
          Alcotest.test_case "poisson determinism" `Quick test_poisson_determinism;
          qt prop_conservation;
          Alcotest.test_case "an unarrived client costs at most 28 words" `Quick
            test_unarrived_client_words;
          Alcotest.test_case "drive completes when a body raises" `Quick
            test_drive_with_raising_body;
        ] );
      ( "client-impact",
        [
          Alcotest.test_case "segment attribution" `Quick test_client_impact_segments;
          Alcotest.test_case "json round trip" `Quick test_client_impact_json_roundtrip;
          Alcotest.test_case "end to end" `Quick test_client_impact_end_to_end;
        ] );
      ( "policy",
        [
          Alcotest.test_case "concurrent_transfer kv" `Quick
            test_policy_concurrent_transfer_kv;
          Alcotest.test_case "of_kv accepts the bounds" `Quick test_policy_of_kv_bounds;
          Alcotest.test_case "of_kv keeps absent keys of the base" `Quick test_policy_of_kv_base;
        ]
        @ List.map
            (fun (k, v) ->
              Alcotest.test_case (Printf.sprintf "of_kv rejects %s=%s" k v) `Quick
                (test_policy_of_kv_rejects k v))
            of_kv_rejected );
      ( "fleet",
        [
          Alcotest.test_case "client latency merge" `Quick
            test_fleet_client_latency_merge;
        ] );
    ]
