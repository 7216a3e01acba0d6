(* The fleet orchestration layer: balancer determinism, wave-plan algebra,
   canary-gated rollouts over real simulated servers (clean completion,
   fault halt, SLO-free rollback of already-updated instances), the FLEET
   ctl command family, the fleet flight summary codec, and two properties:

   - every fleet size x wave policy x fault seed either completes with all
     instances on the target version and byte-identical committed images,
     or halts with consistent versions and a named blocking verdict;
   - the v1 frame decoders are total — random bytes never raise, malformed
     input classifies into the typed error constructors. *)

module K = Mcr_simos.Kernel
module Manager = Mcr_core.Manager
module Ctl = Mcr_core.Ctl
module Frame = Mcr_core.Frame
module Metrics = Mcr_obs.Metrics
module Fleet_flight = Mcr_obs.Fleet_flight
module Fleet_policy = Mcr_fleet.Fleet_policy
module Balancer = Mcr_fleet.Balancer
module Fleet = Mcr_fleet.Fleet
module Rollout = Mcr_fleet.Rollout
module Testbed = Mcr_workloads.Testbed
module Listing1 = Mcr_servers.Listing1

let drive kernel pred =
  ignore (K.run_until kernel ~max_ns:(K.clock_ns kernel + 60_000_000_000) pred)

let contains haystack needle =
  let nh = String.length haystack and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub haystack i nn = needle || go (i + 1)) in
  nn = 0 || go 0

(* ------------------------------------------------------------------ *)
(* Balancer *)

let test_balancer_even_split () =
  let b = Balancer.create ~n:4 in
  let routed = Balancer.route b ~n:100 in
  Alcotest.(check (list (pair int int)))
    "even split" [ (0, 25); (1, 25); (2, 25); (3, 25) ] routed;
  Alcotest.(check int) "routed total" 100 (Balancer.routed_total b);
  Alcotest.(check int) "no errors" 0 (Balancer.errors_total b)

let test_balancer_round_robin_fair () =
  (* 5 requests over 4 backends leave one extra; the cursor must rotate it
     so four calls land 5 on every backend — and a second balancer routes
     identically (determinism). *)
  let totals = Array.make 4 0 in
  let b = Balancer.create ~n:4 in
  for _ = 1 to 4 do
    List.iter (fun (i, c) -> totals.(i) <- totals.(i) + c) (Balancer.route b ~n:5)
  done;
  Array.iter (fun t -> Alcotest.(check int) "fair rotation" 5 t) totals;
  let b2 = Balancer.create ~n:4 in
  Alcotest.(check (list (pair int int)))
    "deterministic" (Balancer.route (Balancer.create ~n:4) ~n:5) (Balancer.route b2 ~n:5)

let test_balancer_drain_and_errors () =
  let b = Balancer.create ~n:2 in
  Balancer.set_state b 0 Balancer.Draining;
  Alcotest.(check int) "draining leaves one" 1 (Balancer.serving b);
  Alcotest.(check (list (pair int int))) "routes around" [ (1, 10) ] (Balancer.route b ~n:10);
  Balancer.set_state b 1 Balancer.Out;
  Alcotest.(check (list (pair int int))) "nobody serving" [] (Balancer.route b ~n:7);
  Alcotest.(check int) "client errors counted" 7 (Balancer.errors_total b);
  Balancer.set_state b 0 Balancer.Serving;
  Alcotest.(check (list (pair int int))) "rejoined" [ (0, 3) ] (Balancer.route b ~n:3)

(* ------------------------------------------------------------------ *)
(* Wave planning *)

let test_plan_algebra () =
  for n = 1 to 12 do
    for canary = 1 to 3 do
      for wave = 1 to 4 do
        for mu = 1 to 4 do
          let pol =
            Fleet_policy.default |> Fleet_policy.with_canary canary
            |> Fleet_policy.with_wave wave
            |> Fleet_policy.with_max_unavailable mu
          in
          let waves = Rollout.plan pol ~n in
          Alcotest.(check (list int)) "covers every id once" (List.init n Fun.id)
            (List.concat waves);
          let first = List.hd waves in
          Alcotest.(check bool) "canary clamped"
            true
            (List.length first <= max 1 (min canary mu));
          List.iteri
            (fun i w ->
              if i > 0 then
                Alcotest.(check bool) "wave clamped" true
                  (List.length w <= max 1 (min wave mu)))
            waves
        done
      done
    done
  done

(* ------------------------------------------------------------------ *)
(* Listing1 fleets: the cheap deterministic server for fleet-shape tests *)

let listing1_fleet ?policy n =
  Fleet.create ?policy ~prog:"listing1" ~n
    ~spawn:(fun _ ->
      let kernel = K.create () in
      K.fs_write kernel ~path:Listing1.config_path "welcome=hi";
      let m = Manager.launch kernel (Listing1.v1 ()) in
      assert (Manager.wait_startup m ());
      (kernel, m))
    ~health:(fun _ _ -> true)
    ~target:(fun _ -> Listing1.v2 ())
    ~revert:(fun _ -> Listing1.v1 ())
    ()

let all_tags fleet n = List.init n (Fleet.version_tag fleet)

(* ------------------------------------------------------------------ *)
(* Rollouts *)

let test_clean_rollout_nginx () =
  let policy =
    Fleet_policy.default |> Fleet_policy.with_wave 2 |> Fleet_policy.with_max_unavailable 2
  in
  let fleet = Fleet.of_testbed ~policy Testbed.Nginx ~n:4 in
  let s = Rollout.execute fleet in
  Alcotest.(check bool) "completed" false s.Fleet_flight.fs_halted;
  Alcotest.(check int) "all updated" 4 s.Fleet_flight.fs_updated;
  Alcotest.(check int) "no client errors" 0 s.Fleet_flight.fs_client_errors;
  Alcotest.(check bool) "availability bound held" true (s.Fleet_flight.fs_min_serving >= 2);
  List.iter
    (fun tag -> Alcotest.(check string) "on target" "1.0.15" tag)
    (all_tags fleet 4);
  let snap = Fleet.metrics_snapshot fleet in
  Alcotest.(check (option int)) "serving gauge" (Some 4)
    (Metrics.find_gauge snap "mcr_fleet_serving");
  Alcotest.(check (option int)) "three promotions" (Some 3)
    (Metrics.find_counter snap "mcr_fleet_wave_promotions_total");
  Alcotest.(check (option int)) "one rollout" (Some 1)
    (Metrics.find_counter snap "mcr_fleet_rollouts_total");
  Alcotest.(check (option int)) "no halts" (Some 0)
    (Metrics.find_counter snap "mcr_fleet_rollout_halts_total")

let test_canary_fault_halts () =
  (* seed 3 is a transfer conflict — the canary must roll back and gate
     the whole fleet; nobody else ever leaves the base version *)
  let policy =
    Fleet_policy.default |> Fleet_policy.with_wave 1 |> Fleet_policy.with_max_unavailable 1
    |> Fleet_policy.with_fault ~seed:(Some 3) ~instances:[ 0 ]
  in
  let fleet = Fleet.of_testbed ~policy Testbed.Nginx ~n:4 in
  let s = Rollout.execute fleet in
  Alcotest.(check bool) "halted" true s.Fleet_flight.fs_halted;
  Alcotest.(check int) "nothing updated" 0 s.Fleet_flight.fs_updated;
  Alcotest.(check int) "single canary wave" 1 (List.length s.Fleet_flight.fs_waves);
  (match s.Fleet_flight.fs_blocking with
  | None -> Alcotest.fail "no blocking verdict"
  | Some v ->
      Alcotest.(check int) "canary blocked" 0 v.Fleet_flight.v_instance;
      Alcotest.(check bool) "named reason" true (v.Fleet_flight.v_reason <> None);
      Alcotest.(check bool) "flight kept" true (v.Fleet_flight.v_flight <> None));
  List.iter
    (fun tag -> Alcotest.(check string) "still on base" "0.8.54" tag)
    (all_tags fleet 4);
  let snap = Fleet.metrics_snapshot fleet in
  Alcotest.(check (option int)) "one wave halt" (Some 1)
    (Metrics.find_counter snap "mcr_fleet_wave_halts_total");
  Alcotest.(check (option int)) "one rollout halt" (Some 1)
    (Metrics.find_counter snap "mcr_fleet_rollout_halts_total")

let test_rollback_updated_reverts () =
  (* canary commits cleanly, wave 1 hits a startup crash (seed 3 shifted
     to instance 1 = seed 4), and the halt policy reverts the canary *)
  let policy =
    Fleet_policy.default |> Fleet_policy.with_canary 1 |> Fleet_policy.with_wave 1
    |> Fleet_policy.with_max_unavailable 1
    |> Fleet_policy.with_halt Fleet_policy.Rollback_updated
    |> Fleet_policy.with_fault ~seed:(Some 3) ~instances:[ 1 ]
  in
  let fleet = listing1_fleet ~policy 4 in
  let s = Rollout.execute fleet in
  Alcotest.(check bool) "halted" true s.Fleet_flight.fs_halted;
  (match s.Fleet_flight.fs_blocking with
  | None -> Alcotest.fail "no blocking verdict"
  | Some v -> Alcotest.(check int) "wave 1 instance blocked" 1 v.Fleet_flight.v_instance);
  Alcotest.(check int) "canary reverted" 1 s.Fleet_flight.fs_reverted;
  Alcotest.(check int) "nothing left on target" 0 s.Fleet_flight.fs_updated;
  List.iter
    (fun tag -> Alcotest.(check string) "all back on v1" "1.0" tag)
    (all_tags fleet 4);
  let kinds = List.map (fun w -> w.Fleet_flight.w_kind) s.Fleet_flight.fs_waves in
  Alcotest.(check (list string)) "rollback wave recorded" [ "canary"; "wave"; "rollback" ]
    kinds

let test_byte_identical_commit () =
  let fleet = listing1_fleet 3 in
  let s = Rollout.execute fleet in
  Alcotest.(check int) "all updated" 3 s.Fleet_flight.fs_updated;
  let fp = Fleet.image_fingerprint fleet 0 in
  for i = 1 to 2 do
    Alcotest.(check bool) "identical committed images" true
      (Fleet.image_fingerprint fleet i = fp)
  done

(* ------------------------------------------------------------------ *)
(* The FLEET ctl command family *)

let fleet_request fleet command =
  let kernel = Fleet.ctl_kernel fleet in
  let result = ref None in
  Ctl.request_v kernel ~path:(Fleet.ctl_path fleet) ~command
    ~on_result:(fun r -> result := Some r)
    ();
  drive kernel (fun () -> !result <> None);
  match !result with Some r -> r | None -> Error (Frame.Transport "no reply")

let test_ctl_status_and_explain () =
  let fleet = listing1_fleet 2 in
  (match fleet_request fleet "FLEET STATUS" with
  | Ok payload ->
      Alcotest.(check bool) "status headline" true (contains payload "fleet listing1");
      Alcotest.(check bool) "per-instance lines" true (contains payload "instance 1: v1.0")
  | Error e -> Alcotest.failf "STATUS refused: %a" Frame.pp_error e);
  (match fleet_request fleet "FLEET EXPLAIN" with
  | Error (Frame.Refused r) -> Alcotest.(check string) "no rollouts yet" "no rollouts" r
  | _ -> Alcotest.fail "EXPLAIN before any rollout must refuse");
  (match fleet_request fleet "FLEET BOGUS" with
  | Error (Frame.Refused r) -> Alcotest.(check bool) "usage" true (contains r "usage")
  | _ -> Alcotest.fail "bad subcommand must refuse");
  let s = Rollout.execute fleet in
  match fleet_request fleet "FLEET EXPLAIN" with
  | Ok payload -> begin
      match Fleet_flight.of_json payload with
      | Ok s2 ->
          Alcotest.(check int) "size round-trips" s.Fleet_flight.fs_size
            s2.Fleet_flight.fs_size;
          Alcotest.(check int) "updated round-trips" s.Fleet_flight.fs_updated
            s2.Fleet_flight.fs_updated
      | Error e -> Alcotest.failf "EXPLAIN payload did not parse: %s" e
    end
  | Error e -> Alcotest.failf "EXPLAIN refused: %a" Frame.pp_error e

let test_rollout_over_ctl () =
  let policy = Fleet_policy.default |> Fleet_policy.with_wave 1 in
  let fleet = listing1_fleet ~policy 2 in
  match Rollout.request_over_ctl fleet with
  | Error e -> Alcotest.failf "rollout over ctl failed: %s" e
  | Ok s ->
      Alcotest.(check bool) "completed" false s.Fleet_flight.fs_halted;
      Alcotest.(check int) "all updated" 2 s.Fleet_flight.fs_updated;
      Alcotest.(check bool) "summary stored" true (Fleet.last_summary fleet <> None)

(* ------------------------------------------------------------------ *)
(* Stale control sockets: a crashed fleetd leaves its socket name behind
   (AF_UNIX names survive close); the next incarnation must bind anyway. *)

module S = Mcr_simos.Sysdefs
module Aspace = Mcr_vmem.Aspace
module Ctl_server = Mcr_core.Ctl_server

let test_stale_socket_rebind () =
  let kernel = K.create () in
  let path = "/run/mcr/fleet.listing1.sock" in
  let bound = ref false in
  let p1 =
    K.spawn_process kernel
      ~image:(K.Fresh_image (Aspace.create ()))
      ~name:"fleetd-1" ~entry:"main"
      ~main:(fun _ ->
        (match Ctl_server.bind kernel ~path with
        | S.Ok_fd _ -> bound := true
        | _ -> ());
        ignore (K.syscall (S.Sem_wait { name = "fleetd1.park"; timeout_ns = None })))
      ()
  in
  drive kernel (fun () -> !bound);
  Alcotest.(check bool) "first incarnation bound" true !bound;
  (* binding over a LIVE listener must still be refused *)
  let second = ref None in
  let _p_live =
    K.spawn_process kernel
      ~image:(K.Fresh_image (Aspace.create ()))
      ~name:"fleetd-dup" ~entry:"main"
      ~main:(fun _ -> second := Some (Ctl_server.bind kernel ~path))
      ()
  in
  drive kernel (fun () -> !second <> None);
  (match !second with
  | Some (S.Err S.EADDRINUSE) -> ()
  | Some _ -> Alcotest.fail "bind over a live listener must fail EADDRINUSE"
  | None -> Alcotest.fail "duplicate bind never ran");
  (* crash the first incarnation: the socket name is left behind *)
  K.kill_process kernel p1 ~status:1;
  Alcotest.(check bool) "name survives the crash but is stale" false
    (K.path_active kernel ~path);
  (* the second incarnation serves on the same path: bind unlinks the stale
     name at listen time, on the listener thread *)
  let p2 =
    K.spawn_process kernel
      ~image:(K.Fresh_image (Aspace.create ()))
      ~name:"fleetd-2" ~entry:"main"
      ~main:(fun _ ->
        ignore (K.syscall (S.Sem_wait { name = "fleetd2.park"; timeout_ns = None })))
      ()
  in
  Ctl_server.spawn kernel p2 ~name:"fleet-ctl" ~path
    ~dispatch:(fun cmd -> if cmd = "PING" then Frame.ok_inline "PONG" else Frame.err "?")
    ();
  let reply = ref None in
  Ctl.exec kernel ~path (Frame.Raw "PING") ~on_result:(fun r -> reply := Some r) ();
  drive kernel (fun () -> !reply <> None);
  Alcotest.(check bool) "second incarnation answers" true (!reply = Some (Ok "PONG"));
  (* a frame without the HELLO handshake is refused before dispatch *)
  let raw = ref None in
  Ctl.request kernel ~path ~command:"PING" ~on_reply:(fun r -> raw := Some r);
  drive kernel (fun () -> !raw <> None);
  Alcotest.(check (option string)) "raw frame refused" (Some "ERR hello required") !raw

(* ------------------------------------------------------------------ *)
(* Summary codec *)

let test_summary_json_roundtrip () =
  (* halted summary: the richest shape (blocking verdict + embedded flight
     + rollback wave) *)
  let policy =
    Fleet_policy.default |> Fleet_policy.with_wave 1 |> Fleet_policy.with_max_unavailable 1
    |> Fleet_policy.with_halt Fleet_policy.Rollback_updated
    |> Fleet_policy.with_fault ~seed:(Some 3) ~instances:[ 1 ]
  in
  let fleet = listing1_fleet ~policy 3 in
  let s = Rollout.execute fleet in
  let json = Fleet_flight.to_json s in
  match Fleet_flight.of_json json with
  | Error e -> Alcotest.failf "round-trip failed: %s" e
  | Ok s2 -> Alcotest.(check string) "identical re-encoding" json (Fleet_flight.to_json s2)

(* ------------------------------------------------------------------ *)
(* Property: every size x policy x seed either completes everywhere with
   byte-identical images, or halts consistently with a named verdict. *)

let prop_rollout_outcome =
  QCheck.Test.make ~name:"fleet rollouts complete fully or halt consistently" ~count:30
    QCheck.(
      quad (int_range 2 5) (int_range 1 3) QCheck.bool
        (option (pair (int_range 0 50) (int_range 0 4))))
    (fun (n, wave, rollback, fault) ->
      let policy =
        Fleet_policy.default |> Fleet_policy.with_wave wave
        |> Fleet_policy.with_max_unavailable wave
        |> Fleet_policy.with_halt
             (if rollback then Fleet_policy.Rollback_updated else Fleet_policy.Halt_only)
      in
      let policy =
        match fault with
        | Some (seed, i) ->
            Fleet_policy.with_fault ~seed:(Some seed) ~instances:[ i mod n ] policy
        | None -> policy
      in
      let fleet = listing1_fleet ~policy n in
      let s = Rollout.execute fleet in
      let tags = all_tags fleet n in
      if not s.Fleet_flight.fs_halted then begin
        (* completion: everyone on v2, committed images byte-identical *)
        if s.Fleet_flight.fs_updated <> n then
          QCheck.Test.fail_reportf "completed with %d/%d updated"
            s.Fleet_flight.fs_updated n;
        List.iter
          (fun t -> if t <> "2.0" then QCheck.Test.fail_reportf "completed but runs %s" t)
          tags;
        let fp = Fleet.image_fingerprint fleet 0 in
        List.iteri
          (fun i () ->
            if Fleet.image_fingerprint fleet i <> fp then
              QCheck.Test.fail_reportf "instance %d image differs after commit" i)
          (List.init n (fun _ -> ()));
        true
      end
      else begin
        (* halt: a named blocking verdict, and consistent versions — all
           base under rollback_updated, otherwise exactly fs_updated on
           target and the rest on base *)
        (match s.Fleet_flight.fs_blocking with
        | None -> QCheck.Test.fail_reportf "halted without a blocking verdict"
        | Some v ->
            if v.Fleet_flight.v_reason = None then
              QCheck.Test.fail_reportf "blocking verdict without a reason");
        let on_target = List.length (List.filter (fun t -> t = "2.0") tags) in
        let on_base = List.length (List.filter (fun t -> t = "1.0") tags) in
        if on_target + on_base <> n then
          QCheck.Test.fail_reportf "inconsistent fleet versions: %s"
            (String.concat "," tags);
        if rollback && on_target <> 0 then
          QCheck.Test.fail_reportf "rollback_updated left %d on target" on_target;
        if on_target <> s.Fleet_flight.fs_updated then
          QCheck.Test.fail_reportf "summary says %d updated, fleet runs %d"
            s.Fleet_flight.fs_updated on_target;
        true
      end)

(* Property: dirty-driven transfer commits exactly the bytes a full
   transfer would, with or without the zero-copy remap, for every server x
   workload x worker count — and a seeded-fault rollback (or commit) never
   leaks a shared page frame past the update window. *)

module Policy = Mcr_core.Policy

let prop_dirty_transfer_byte_identical =
  QCheck.Test.make
    ~name:"dirty-driven transfer (+/- remap) is byte-identical; no shared-frame leaks" ~count:4
    QCheck.(triple (int_range 0 3) (int_range 0 1) (int_range 0 50))
    (fun (server_i, w_i, seed) ->
      let server = [| Testbed.Nginx; Testbed.Httpd; Testbed.Vsftpd; Testbed.Sshd |].(server_i) in
      let workers = [| 1; 4 |].(w_i) in
      let scale = 500 + (seed mod 3) * 500 in
      let mk update_policy =
        let policy = Fleet_policy.default |> Fleet_policy.with_update update_policy in
        let fleet = Fleet.of_testbed ~policy server ~n:1 in
        ignore (Testbed.benchmark (Fleet.instance_kernel fleet 0) server ~scale ());
        fleet
      in
      let base = Policy.default |> Policy.with_transfer_workers workers in
      let modes =
        [
          ("full", mk (Policy.with_dirty_only false base));
          ("dirty", mk base);
          ("dirty+remap", mk (Policy.with_transfer_remap true base));
        ]
      in
      List.iter
        (fun (name, f) ->
          let r = Fleet.update_instance f 0 `Target in
          if not r.Manager.success then
            QCheck.Test.fail_reportf "%s update rolled back: %s" name
              (match r.Manager.failure with
              | Some reason -> Mcr_error.to_string reason
              | None -> "?"))
        modes;
      let fp = Fleet.image_fingerprint (snd (List.hd modes)) 0 in
      List.iter
        (fun (name, f) ->
          if Fleet.image_fingerprint f 0 <> fp then
            QCheck.Test.fail_reportf "%s commit is not byte-identical to the full transfer" name)
        modes;
      (* whatever a seeded fault does to a remapping update — rollback or
         commit — no shared frame may outlive the window *)
      let faulted =
        mk (base |> Policy.with_transfer_remap true |> Policy.with_fault_seed (Some seed))
      in
      ignore (Fleet.update_instance faulted 0 `Target);
      List.iter
        (fun (im : Mcr_program.Progdef.image) ->
          let n = Aspace.shared_frame_count im.Mcr_program.Progdef.i_aspace in
          if n <> 0 then
            QCheck.Test.fail_reportf "faulted remap update leaked %d shared frames" n)
        (Manager.images (Fleet.manager faulted 0));
      true)

(* Property: the frame decoders are total. *)

let prop_frame_decoders_total =
  QCheck.Test.make ~name:"frame decoders never raise on random bytes" ~count:1000
    QCheck.(string_gen Gen.char)
    (fun s ->
      (match Frame.parse_request s with
      | Ok _ | Error ("malformed hello" | "hello required") -> ()
      | Error e -> QCheck.Test.fail_reportf "unexpected request refusal %S" e);
      ignore (Frame.command_of_string s);
      (match Frame.parse_reply ~version:1 s with
      | Ok _ | Error (Frame.Version_mismatch _) | Error (Frame.Refused _)
      | Error (Frame.Transport _) -> ());
      true)

let prop_malformed_hello_typed =
  QCheck.Test.make ~name:"malformed HELLO versions classify as typed errors" ~count:200
    QCheck.(map (fun v -> "HELLO " ^ v) (string_gen_of_size Gen.(1 -- 8) Gen.printable))
    (fun frame ->
      match Frame.parse_request frame with
      | Ok _ | Error "malformed hello" -> true
      | Error e -> QCheck.Test.fail_reportf "HELLO-prefixed frame refused with %S" e)

(* ------------------------------------------------------------------ *)

let () =
  let qt = QCheck_alcotest.to_alcotest in
  Alcotest.run "fleet"
    [
      ( "balancer",
        [
          Alcotest.test_case "even split" `Quick test_balancer_even_split;
          Alcotest.test_case "round-robin fairness" `Quick test_balancer_round_robin_fair;
          Alcotest.test_case "drain and errors" `Quick test_balancer_drain_and_errors;
        ] );
      ("plan", [ Alcotest.test_case "wave algebra" `Quick test_plan_algebra ]);
      ( "rollout",
        [
          Alcotest.test_case "clean nginx rollout" `Quick test_clean_rollout_nginx;
          Alcotest.test_case "canary fault halts" `Quick test_canary_fault_halts;
          Alcotest.test_case "rollback_updated reverts" `Quick test_rollback_updated_reverts;
          Alcotest.test_case "byte-identical commit" `Quick test_byte_identical_commit;
        ] );
      ( "ctl",
        [
          Alcotest.test_case "FLEET STATUS/EXPLAIN" `Quick test_ctl_status_and_explain;
          Alcotest.test_case "FLEET ROLLOUT over socket" `Quick test_rollout_over_ctl;
          Alcotest.test_case "stale socket rebind" `Quick test_stale_socket_rebind;
        ] );
      ("codec", [ Alcotest.test_case "summary round-trip" `Quick test_summary_json_roundtrip ]);
      ( "props",
        [
          qt prop_rollout_outcome;
          qt prop_dirty_transfer_byte_identical;
          qt prop_frame_decoders_total;
          qt prop_malformed_hello_typed;
        ]
      );
    ]
