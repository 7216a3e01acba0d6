(* Iterative pre-copy state transfer, proved three ways: deterministic
   units (stage order, convergence policy, report/metric shape, the
   versioned control protocol and the consolidated Policy record), a
   byte-identity property (a pre-copied update with mutations between
   rounds commits exactly the image the single-shot transfer would have
   produced), and a fault property (mid-pre-copy injected faults still
   satisfy the PR 2 rollback guarantee). *)

module K = Mcr_simos.Kernel
module S = Mcr_simos.Sysdefs
module P = Mcr_program.Progdef
module Manager = Mcr_core.Manager
module Policy = Mcr_core.Policy
module Ctl = Mcr_core.Ctl
module Fault = Mcr_fault.Fault
module Metrics = Mcr_obs.Metrics
module Testbed = Mcr_workloads.Testbed
module Listing1 = Mcr_servers.Listing1
module Aspace = Mcr_vmem.Aspace
module Addr = Mcr_vmem.Addr

let drive kernel pred =
  ignore (K.run_until kernel ~max_ns:(K.clock_ns kernel + 120_000_000_000) pred)

let contains haystack needle =
  let nh = String.length haystack and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub haystack i nn = needle || go (i + 1)) in
  nn = 0 || go 0

let rpc kernel ~port data =
  let reply = ref None in
  let p =
    K.spawn_process kernel ~image:(K.Fresh_image (Aspace.create ())) ~name:"rpc" ~entry:"main"
      ~main:(fun _ ->
        let rec connect n =
          match K.syscall (S.Connect { port }) with
          | S.Ok_fd fd -> Some fd
          | S.Err S.ECONNREFUSED when n > 0 ->
              ignore (K.syscall (S.Nanosleep { ns = 1_000_000 }));
              connect (n - 1)
          | _ -> None
        in
        match connect 100 with
        | None -> reply := Some "NOCONN"
        | Some fd -> (
            ignore (K.syscall (S.Write { fd; data }));
            match K.syscall (S.Read { fd; max = 65536; nonblock = false }) with
            | S.Ok_data d -> reply := Some d
            | _ -> reply := Some "NOREAD"))
      ()
  in
  drive kernel (fun () -> not (K.alive p));
  Option.value !reply ~default:"NONE"

let launch_listing1 kernel =
  K.fs_write kernel ~path:Listing1.config_path "welcome=hi";
  let m = Manager.launch kernel (Listing1.v1 ()) in
  assert (Manager.wait_startup m ());
  ignore (rpc kernel ~port:Listing1.port "GET /");
  m

let precopy_policy ?(max_rounds = 4) ?(threshold_words = 100_000) () =
  Policy.with_precopy ~max_rounds ~threshold_words true Policy.default

(* Byte-identity digest of an address space (same fold as test_fault). *)
let aspace_digest asp =
  List.fold_left
    (fun h (r : Mcr_vmem.Region.t) ->
      let words = r.Mcr_vmem.Region.size / Addr.word_size in
      let rec go h i =
        if i >= words then h
        else
          let a = Addr.add_words r.Mcr_vmem.Region.base i in
          let h =
            if Aspace.is_mapped_word asp a then (h * 1_000_003) + Aspace.read_word asp a
            else h * 31
          in
          go h (i + 1)
      in
      go h 0)
    17 (Aspace.regions asp)

let program_digest m =
  List.map (fun (im : P.image) -> aspace_digest im.P.i_aspace) (Manager.images m)

let alive_pids kernel =
  List.filter_map (fun p -> if K.alive p then Some (K.pid p) else None) (K.procs kernel)
  |> List.sort compare

(* A mutator client pre-spawned before the update in BOTH runs of the
   byte-identity property, so process/descriptor allocation is identical
   whether its requests land before the update (single-shot run) or between
   pre-copy rounds. Each semaphore post triggers one connect/request/close
   cycle. *)
let mutator_sem = "test.precopy.mutator"

let spawn_mutator kernel ~served =
  ignore
    (K.spawn_process kernel ~image:(K.Fresh_image (Aspace.create ())) ~name:"mutator"
       ~entry:"main"
       ~main:(fun _ ->
         let rec loop () =
           ignore (K.syscall (S.Sem_wait { name = mutator_sem; timeout_ns = None }));
           let rec connect n =
             match K.syscall (S.Connect { port = Listing1.port }) with
             | S.Ok_fd fd -> Some fd
             | S.Err S.ECONNREFUSED when n > 0 ->
                 ignore (K.syscall (S.Nanosleep { ns = 1_000_000 }));
                 connect (n - 1)
             | _ -> None
           in
           (match connect 100 with
           | Some fd ->
               ignore (K.syscall (S.Write { fd; data = "GET /" }));
               ignore (K.syscall (S.Read { fd; max = 65536; nonblock = false }));
               ignore (K.syscall (S.Close { fd }));
               incr served
           | None -> ());
           loop ()
         in
         loop ())
       ())

let fire_triggers kernel ~served n =
  for _ = 1 to n do
    let target = !served + 1 in
    K.post_semaphore kernel mutator_sem;
    ignore
      (K.run_until kernel
         ~max_ns:(K.clock_ns kernel + 10_000_000_000)
         (fun () -> !served >= target))
  done

(* ------------------------------------------------------------------ *)
(* Deterministic units *)

let test_precopy_commit_preserves_state () =
  let kernel = K.create () in
  let m = launch_listing1 kernel in
  ignore (rpc kernel ~port:Listing1.port "GET /");
  let m2, report = Manager.update m ~policy:(precopy_policy ()) (Listing1.v2 ()) in
  Alcotest.(check bool) "committed" true report.Manager.success;
  Alcotest.(check bool) "rounds recorded" true (report.Manager.precopy_rounds >= 2);
  Alcotest.(check bool) "bytes staged" true (report.Manager.precopy_bytes > 0);
  Alcotest.(check bool) "downtime positive" true (report.Manager.downtime_ns > 0);
  Alcotest.(check bool) "downtime < total" true
    (report.Manager.downtime_ns < report.Manager.total_ns);
  (* state carried over: two pre-update requests -> third reply counts 3 *)
  let r = rpc kernel ~port:Listing1.port "GET /" in
  Alcotest.(check bool) "new version serves with transferred state" true (contains r "v2:3");
  ignore m2

let test_single_shot_report_shape () =
  (* with pre-copy disabled the whole update is the window *)
  let kernel = K.create () in
  let m = launch_listing1 kernel in
  let _, report = Manager.update m (Listing1.v2 ()) in
  Alcotest.(check bool) "committed" true report.Manager.success;
  Alcotest.(check int) "no rounds" 0 report.Manager.precopy_rounds;
  Alcotest.(check int) "no staged bytes" 0 report.Manager.precopy_bytes;
  Alcotest.(check int) "downtime = total" report.Manager.total_ns report.Manager.downtime_ns

let test_metrics_present_in_every_snapshot () =
  (* the acceptance criterion: mcr_update_downtime_ns and mcr_precopy_rounds
     appear in every Manager.report snapshot, pre-copy or not *)
  let check_snapshot label snap =
    Alcotest.(check bool) (label ^ ": downtime histogram present") true
      (Metrics.find_histogram snap "mcr_update_downtime_ns" <> None);
    Alcotest.(check bool) (label ^ ": rounds histogram present") true
      (Metrics.find_histogram snap "mcr_precopy_rounds" <> None);
    Alcotest.(check bool) (label ^ ": bytes counter present") true
      (Metrics.find_counter snap "mcr_precopy_bytes_total" <> None)
  in
  let kernel = K.create () in
  let m = launch_listing1 kernel in
  let m2, r1 = Manager.update m (Listing1.v2 ()) in
  check_snapshot "single-shot" r1.Manager.metrics;
  let _, r2 = Manager.update m2 ~policy:(precopy_policy ()) (Listing1.v2 ()) in
  check_snapshot "precopy" r2.Manager.metrics;
  Alcotest.(check bool) "precopy bytes counted" true
    (match Metrics.find_counter r2.Manager.metrics "mcr_precopy_bytes_total" with
    | Some n -> n > 0
    | None -> false)

let test_divergence_rolls_back () =
  (* a zero-word threshold with a mutation after every round can never
     converge: the update must roll back with the dedicated reason, leaving
     the old version intact *)
  let kernel = K.create () in
  let m = launch_listing1 kernel in
  let m2, report =
    Manager.update m
      ~policy:(precopy_policy ~max_rounds:2 ~threshold_words:0 ())
      ~on_precopy_round:(fun _ -> ignore (rpc kernel ~port:Listing1.port "GET /"))
      (Listing1.v2 ())
  in
  Alcotest.(check bool) "rolled back" false report.Manager.success;
  Alcotest.(check bool) "same manager" true (m == m2);
  Alcotest.(check (option string)) "exact reason" (Some "precopy did not converge")
    (Option.map Mcr_error.to_string report.Manager.failure);
  Alcotest.(check int) "round budget honoured" 2 report.Manager.precopy_rounds;
  Alcotest.(check (option int)) "per-reason counter" (Some 1)
    (Metrics.find_counter report.Manager.metrics
       "mcr_rollback_reason_precopy_did_not_converge_total");
  (* divergence is detected before the window opens: zero downtime *)
  Alcotest.(check int) "no downtime on pre-window failure" 0 report.Manager.downtime_ns;
  let r = rpc kernel ~port:Listing1.port "GET /" in
  Alcotest.(check bool) "old version serves" true (contains r "v1:");
  let _, clean = Manager.update m2 (Listing1.v2 ()) in
  Alcotest.(check bool) "clean single-shot commits afterwards" true clean.Manager.success

let test_single_round_precopy_commits () =
  (* max_rounds = 1 is one speculative bulk round with no convergence
     check — it must commit, not diverge *)
  let kernel = K.create () in
  let m = launch_listing1 kernel in
  let _, report =
    Manager.update m ~policy:(precopy_policy ~max_rounds:1 ~threshold_words:0 ())
      (Listing1.v2 ())
  in
  Alcotest.(check bool) "committed" true report.Manager.success;
  Alcotest.(check int) "exactly one round" 1 report.Manager.precopy_rounds

let test_policy_builders () =
  let p = Policy.default in
  Alcotest.(check bool) "default precopy off" false p.Policy.precopy;
  Alcotest.(check int) "default retries" 0 p.Policy.retries;
  Alcotest.(check bool) "default dirty_only" true p.Policy.dirty_only;
  let p2 = Policy.with_precopy ~max_rounds:7 ~threshold_words:64 true p in
  Alcotest.(check bool) "precopy on" true p2.Policy.precopy;
  Alcotest.(check int) "max rounds" 7 p2.Policy.precopy_max_rounds;
  Alcotest.(check int) "threshold" 64 p2.Policy.precopy_threshold_words;
  let p3 = Policy.with_deadlines ~quiesce_ns:(Some 1) ~update_ns:None p2 in
  Alcotest.(check (option int)) "quiesce deadline" (Some 1) p3.Policy.quiesce_deadline_ns;
  Alcotest.(check (option int)) "update deadline" None p3.Policy.update_deadline_ns;
  Alcotest.check_raises "max_rounds = 0 rejected"
    (Invalid_argument "Policy.with_precopy: max_rounds must be >= 1") (fun () ->
      ignore (Policy.with_precopy ~max_rounds:0 true p));
  Alcotest.check_raises "negative retries rejected"
    (Invalid_argument "Policy.with_retries: negative count") (fun () ->
      ignore (Policy.with_retries (-1) p));
  Alcotest.check_raises "negative backoff rejected"
    (Invalid_argument "Policy.with_retries: negative backoff") (fun () ->
      ignore (Policy.with_retries ~backoff_ns:(-1) 0 p))

let test_error_vocabulary () =
  (* every reason round-trips through its frozen string, and metric names
     are plain prometheus identifiers *)
  List.iter
    (fun r ->
      Alcotest.(check bool)
        ("round-trip " ^ Mcr_error.to_string r)
        true
        (Mcr_error.of_string (Mcr_error.to_string r) = Some r);
      let mn = Mcr_error.metric_name r in
      Alcotest.(check bool) ("metric name clean " ^ mn) true
        (String.for_all
           (fun c -> (c >= 'a' && c <= 'z') || c = '_' || (c >= '0' && c <= '9'))
           mn))
    Mcr_error.all

(* ------------------------------------------------------------------ *)
(* The versioned control protocol *)

let test_ctl_hello () =
  let kernel = K.create () in
  let m = launch_listing1 kernel in
  let path = Manager.ctl_path m in
  let result = ref None in
  let ask f =
    result := None;
    f ();
    drive kernel (fun () -> !result <> None)
  in
  (* bare handshake *)
  ask (fun () -> Ctl.hello kernel ~path ~on_result:(fun r -> result := Some r) ());
  (match !result with
  | Some (Ok v) -> Alcotest.(check string) "server speaks v1" "1" v
  | _ -> Alcotest.fail "hello failed");
  (* version mismatch is a typed error carrying the server's version *)
  ask (fun () ->
      Ctl.hello kernel ~version:99 ~path ~on_result:(fun r -> result := Some r) ());
  (match !result with
  | Some (Error (Ctl.Version_mismatch { client; server })) ->
      Alcotest.(check int) "client version echoed" 99 client;
      Alcotest.(check int) "server version reported" 1 server
  | _ -> Alcotest.fail "expected Version_mismatch");
  (* versioned STATS: uniform OK frame with the rendered snapshot payload *)
  ask (fun () ->
      Ctl.request_v kernel ~path ~command:"STATS" ~on_result:(fun r -> result := Some r) ());
  (match !result with
  | Some (Ok payload) ->
      Alcotest.(check bool) "payload is the metrics render" true
        (contains payload "mcr_updates_total")
  | _ -> Alcotest.fail "versioned STATS failed");
  (* versioned unknown command: a typed refusal, not a bare ERR *)
  ask (fun () ->
      Ctl.request_v kernel ~path ~command:"BOGUS" ~on_result:(fun r -> result := Some r) ());
  (match !result with
  | Some (Error (Ctl.Refused reason)) ->
      Alcotest.(check string) "refusal reason" "unknown command" reason
  | _ -> Alcotest.fail "expected Refused")

let test_ctl_precopy_knob () =
  (* POLICY precopy=true over the socket arms pre-copy for the next update *)
  let kernel = K.create () in
  let m = launch_listing1 kernel in
  let path = Manager.ctl_path m in
  let ask cmd =
    let reply = ref None in
    Ctl.exec kernel ~path cmd ~on_result:(fun r -> reply := Some r) ();
    drive kernel (fun () -> !reply <> None);
    !reply
  in
  let ask kv = ask (Ctl.Frame.Policy kv) in
  Alcotest.(check bool) "precopy on acknowledged" true
    (ask "precopy=true precopy_max_rounds=3 precopy_threshold_words=100000" = Some (Ok ""));
  Alcotest.(check bool) "policy updated" true (Manager.policy m).Policy.precopy;
  Alcotest.(check int) "rounds knob" 3 (Manager.policy m).Policy.precopy_max_rounds;
  let _, report = Manager.update m (Listing1.v2 ()) in
  Alcotest.(check bool) "update committed" true report.Manager.success;
  Alcotest.(check bool) "pre-copy actually ran" true (report.Manager.precopy_rounds >= 1);
  (* and off disarms it, keeping the round budget *)
  Alcotest.(check bool) "precopy off acknowledged" true (ask "precopy=false" = Some (Ok ""));
  Alcotest.(check bool) "policy cleared" false (Manager.policy m).Policy.precopy;
  (* a key left out keeps its current value, as PRECOPY ON without
     arguments kept the round budget *)
  Alcotest.(check bool) "precopy on again acknowledged" true (ask "precopy=true" = Some (Ok ""));
  Alcotest.(check bool) "re-armed" true (Manager.policy m).Policy.precopy;
  Alcotest.(check int) "rounds kept" 3 (Manager.policy m).Policy.precopy_max_rounds;
  Alcotest.(check int) "threshold kept" 100_000 (Manager.policy m).Policy.precopy_threshold_words

(* ------------------------------------------------------------------ *)
(* Byte identity: pre-copy must commit the single-shot image *)

let test_four_servers_byte_identical () =
  (* no mutation between rounds: the committed image must be exactly the
     single-shot one for every evaluated server *)
  List.iter
    (fun server ->
      let run policy =
        let kernel = K.create () in
        let m = Testbed.launch kernel server in
        let m2, report = Manager.update m ?policy (Testbed.final_version server) in
        Alcotest.(check bool) (Testbed.name server ^ ": committed") true
          report.Manager.success;
        (program_digest m2, report)
      in
      let d_precopy, rp = run (Some (precopy_policy ())) in
      let d_single, _ = run None in
      Alcotest.(check bool) (Testbed.name server ^ ": pre-copy ran") true
        (rp.Manager.precopy_rounds >= 1);
      Alcotest.(check (list int))
        (Testbed.name server ^ ": committed image byte-identical")
        d_single d_precopy)
    Testbed.all

let prop_precopy_byte_identical =
  QCheck.Test.make ~name:"precopy with inter-round mutation = single-shot image" ~count:25
    QCheck.(pair (int_range 0 3) (int_range 0 2))
    (fun (pre, per_round) ->
      (* one run with pre-copy, mutating the still-serving old version
         between rounds; one single-shot run applying the same total
         mutation count up front; the committed images must agree *)
      let precopy_run () =
        let kernel = K.create () in
        let m = launch_listing1 kernel in
        let served = ref 0 in
        spawn_mutator kernel ~served;
        fire_triggers kernel ~served pre;
        let fired = ref 0 in
        let m2, report =
          Manager.update m ~policy:(precopy_policy ())
            ~on_precopy_round:(fun _ ->
              fire_triggers kernel ~served per_round;
              fired := !fired + per_round)
            (Listing1.v2 ())
        in
        (report.Manager.success, !fired, program_digest m2)
      in
      let single_shot_run total =
        let kernel = K.create () in
        let m = launch_listing1 kernel in
        let served = ref 0 in
        spawn_mutator kernel ~served;
        fire_triggers kernel ~served (pre + total);
        let m2, report = Manager.update m (Listing1.v2 ()) in
        (report.Manager.success, program_digest m2)
      in
      let ok_a, fired, digest_a = precopy_run () in
      let ok_b, digest_b = single_shot_run fired in
      if not (ok_a && ok_b && digest_a = digest_b) then
        QCheck.Test.fail_reportf
          "pre=%d per_round=%d fired=%d ok_precopy=%b ok_single=%b identical=%b" pre
          per_round fired ok_a ok_b (digest_a = digest_b)
      else true)

(* ------------------------------------------------------------------ *)
(* Mid-pre-copy faults keep the rollback guarantee *)

let prop_precopy_rollback_guarantee =
  let servers = Array.of_list Testbed.all in
  QCheck.Test.make ~name:"faults under precopy never break the old version" ~count:48
    QCheck.(pair (int_range 0 (Array.length servers - 1)) (int_range 0 1_000_000))
    (fun (si, seed) ->
      let server = servers.(si) in
      let kernel = K.create () in
      let m = Testbed.launch kernel server in
      let old_root = Manager.root_proc m in
      let old_image = Manager.root_image m in
      let pre_digest = aspace_digest old_image.P.i_aspace in
      let pre_pids = alive_pids kernel in
      let pre_fds = K.fds old_root in
      let fault = Fault.of_seed seed in
      let policy =
        precopy_policy ()
        |> Policy.with_deadlines ~quiesce_ns:(Some 3_000_000_000)
             ~update_ns:(Some 30_000_000_000)
      in
      let m2, report =
        Manager.update m ~policy ~fault (Testbed.final_version server)
      in
      if report.Manager.success then K.alive (Manager.root_proc m2)
      else begin
        let ok_alive = K.alive old_root in
        let ok_digest = aspace_digest old_image.P.i_aspace = pre_digest in
        let ok_fds = K.fds old_root = pre_fds in
        let post_pids = alive_pids kernel in
        let ok_no_leak = List.for_all (fun p -> List.mem p pre_pids) post_pids in
        let _, clean = Manager.update m2 (Testbed.final_version server) in
        if not (ok_alive && ok_digest && ok_fds && ok_no_leak && clean.Manager.success)
        then
          QCheck.Test.fail_reportf
            "server=%s seed=%d reason=%s alive=%b digest=%b fds=%b leak=%b clean=%b"
            (Testbed.name server) seed
            (Option.fold ~none:"<none>" ~some:Mcr_error.to_string report.Manager.failure)
            ok_alive ok_digest ok_fds (not ok_no_leak) clean.Manager.success
        else true
      end)

let () =
  let qt = QCheck_alcotest.to_alcotest in
  Alcotest.run "mcr_precopy"
    [
      ( "stages",
        [
          Alcotest.test_case "commit preserves state" `Quick
            test_precopy_commit_preserves_state;
          Alcotest.test_case "single-shot report shape" `Quick test_single_shot_report_shape;
          Alcotest.test_case "metrics in every snapshot" `Quick
            test_metrics_present_in_every_snapshot;
          Alcotest.test_case "divergence rolls back" `Quick test_divergence_rolls_back;
          Alcotest.test_case "single-round precopy commits" `Quick
            test_single_round_precopy_commits;
        ] );
      ( "api",
        [
          Alcotest.test_case "policy builders" `Quick test_policy_builders;
          Alcotest.test_case "error vocabulary" `Quick test_error_vocabulary;
          Alcotest.test_case "ctl hello" `Quick test_ctl_hello;
          Alcotest.test_case "ctl precopy knob" `Quick test_ctl_precopy_knob;
        ] );
      ( "identity",
        [
          Alcotest.test_case "four servers byte-identical" `Slow
            test_four_servers_byte_identical;
          qt prop_precopy_byte_identical;
        ] );
      ("faults", [ qt prop_precopy_rollback_guarantee ]);
    ]
