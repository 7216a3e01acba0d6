(* Persistent checkpoint images: codec round-trips, golden corruption
   rejection, restart-from-file under load, ctl SAVE/RESTORE, fleet
   migration/failover and offline replay of recorded updates. *)

module K = Mcr_simos.Kernel
module P = Mcr_program.Progdef
module Manager = Mcr_core.Manager
module Policy = Mcr_core.Policy
module Ctl = Mcr_core.Ctl
module Fault = Mcr_fault.Fault
module Image = Mcr_image.Image
module Fnv = Mcr_util.Fnv
module Metrics = Mcr_obs.Metrics
module Testbed = Mcr_workloads.Testbed
module Bench_result = Mcr_workloads.Bench_result
module Timetravel = Mcr_workloads.Timetravel
module Fleet = Mcr_fleet.Fleet

let drive kernel pred =
  ignore (K.run_until kernel ~max_ns:(K.clock_ns kernel + 30_000_000_000) pred)

let contains haystack needle =
  let nh = String.length haystack and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub haystack i nn = needle || go (i + 1)) in
  nn = 0 || go 0

let error = Alcotest.testable Image.pp_error ( = )

let tmp_image name =
  let path = Filename.temp_file ("mcr_" ^ name) ".mcrimg" in
  at_exit (fun () -> try Sys.remove path with Sys_error _ -> ());
  path

let tmp_dir name =
  let path = Filename.temp_file ("mcr_" ^ name) ".d" in
  Sys.remove path;
  Sys.mkdir path 0o755;
  path

(* A small loaded instance: launch, run the paper benchmark so heaps,
   pools and page-dirty state are non-trivial, then save. *)
let loaded_save server name =
  let kernel = K.create () in
  let m = Testbed.launch kernel server in
  ignore (Testbed.benchmark kernel server ~scale:3_000 ());
  let path = tmp_image name in
  match Manager.save_image m ~path with
  | Error e -> Alcotest.fail e
  | Ok img -> (kernel, m, path, img)

(* {1 Codec} *)

let test_roundtrip () =
  let _kernel, _m, path, img = loaded_save Testbed.Httpd "roundtrip" in
  match Image.read ~path with
  | Error e -> Alcotest.failf "read back: %s" (Image.error_to_string e)
  | Ok img' ->
      Alcotest.(check string) "prog survives" (Image.prog img) (Image.prog img');
      Alcotest.(check string) "version survives" (Image.version_tag img)
        (Image.version_tag img');
      Alcotest.(check int) "fingerprint survives" (Image.fingerprint img)
        (Image.fingerprint img');
      Alcotest.(check int) "proc count survives" (Image.proc_count img)
        (Image.proc_count img');
      Alcotest.(check int) "clock survives" (Image.clock_ns img) (Image.clock_ns img');
      Alcotest.(check string) "re-encode is byte-identical" (Image.encode img)
        (Image.encode img')

let test_layout_names_sections () =
  let _kernel, _m, _path, img = loaded_save Testbed.Vsftpd "layout" in
  let tags = List.map (fun (tag, _, _) -> tag) (Image.layout img) in
  Alcotest.(check bool) "meta section present" true (List.mem "META" tags);
  Alcotest.(check bool) "proc sections present" true (List.mem "PROC" tags);
  Alcotest.(check int) "one PROC per process" (Image.proc_count img)
    (List.length (List.filter (( = ) "PROC") tags))

(* {1 Golden corruption: every broken image is rejected with a typed error
   naming the failing section.}

   Layout under test (all integers 64-bit LE): magic at 0, format version
   at 8, section count at 16, first section (META) tag at 24, its name
   string ["meta"] at 28 (length) / 36 (bytes), its payload length at 40,
   payload at 48 — which itself starts with the program-name string, so
   byte 56 is the first program-name byte. *)

let flip s i =
  let b = Bytes.of_string s in
  Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor 0x01));
  Bytes.to_string b

let set_byte s i v =
  let b = Bytes.of_string s in
  Bytes.set b i (Char.chr v);
  Bytes.to_string b

let check_rejected name expected data =
  match Image.decode data with
  | Ok _ -> Alcotest.failf "%s: corrupted image decoded successfully" name
  | Error e -> Alcotest.check error name expected e

let test_corruption_goldens () =
  let _kernel, _m, _path, img = loaded_save Testbed.Httpd "goldens" in
  let enc = Image.encode img in
  let len = String.length enc in
  check_rejected "flipped magic" Image.Bad_magic (flip enc 0);
  check_rejected "empty file" (Image.Truncated { section = "header" }) "";
  check_rejected "bumped format version"
    (Image.Version_skew { found = 2; expected = 1 })
    (set_byte enc 8 2);
  (* version skew outranks every hash: a future-format image is reported
     as such even though its trailer no longer matches *)
  check_rejected "version skew beats hash check"
    (Image.Version_skew { found = 3; expected = 1 })
    (set_byte (flip enc 56) 8 3);
  check_rejected "chopped trailer"
    (Image.Truncated { section = "trailer" })
    (String.sub enc 0 (len - 1));
  check_rejected "cut mid-section"
    (Image.Truncated { section = "meta" })
    (String.sub enc 0 40);
  check_rejected "bit flip inside meta payload"
    (Image.Hash_mismatch { section = "meta" })
    (flip enc 56);
  check_rejected "bit flip in trailer"
    (Image.Hash_mismatch { section = "image" })
    (flip enc (len - 1))

let u64_le n =
  let b = Bytes.create 8 in
  Bytes.set_int64_le b 0 (Int64.of_int n);
  Bytes.to_string b

let w_str s = u64_le (String.length s) ^ s

(* A length field of max_int once overflowed the bounds check, so decode
   raised Invalid_argument from String.sub instead of returning a typed
   error. *)
let test_huge_length_fields () =
  let header = "MCRIMAGE" ^ u64_le 1 ^ u64_le 1 ^ "META" in
  check_rejected "section name length max_int"
    (Image.Truncated { section = "META" })
    (header ^ u64_le max_int ^ "xx");
  check_rejected "section payload length max_int"
    (Image.Truncated { section = "meta" })
    (header ^ w_str "meta" ^ u64_le max_int ^ "xx");
  check_rejected "negative length"
    (Image.Truncated { section = "META" })
    (header ^ u64_le (-1) ^ "xx")

let test_unknown_section_skipped () =
  (* forward compatibility: a same-format image carrying a section tag we
     do not know decodes fine — the unknown section is skipped *)
  let _kernel, _m, _path, img = loaded_save Testbed.Httpd "forward" in
  let enc = Image.encode img in
  let body = String.sub enc 0 (String.length enc - 8) in
  let count = Int64.to_int (Bytes.get_int64_le (Bytes.of_string enc) 16) in
  let body = Bytes.of_string body in
  Bytes.blit_string (u64_le (count + 1)) 0 body 16 8;
  let payload = "opaque bytes from the future" in
  let extra = "ZZZZ" ^ w_str "future" ^ w_str payload ^ u64_le (Fnv.string payload) in
  let body = Bytes.to_string body ^ extra in
  match Image.decode (body ^ u64_le (Fnv.string body)) with
  | Error e ->
      Alcotest.failf "unknown section rejected: %s" (Image.error_to_string e)
  | Ok img' ->
      Alcotest.(check int) "payload intact" (Image.fingerprint img)
        (Image.fingerprint img');
      Alcotest.(check int) "known procs intact" (Image.proc_count img)
        (Image.proc_count img')

(* {1 Restart-from-file} *)

let test_restore_under_load () =
  (* the acceptance scenario: nginx saved under load (benchmark traffic
     plus held-open connections) restores into a brand-new kernel with a
     byte-identical root fingerprint, resumes serving, and a subsequent
     live update still commits *)
  let kernel = K.create () in
  let m = Testbed.launch kernel Testbed.Nginx in
  let _holders = Testbed.open_holders kernel Testbed.Nginx ~n:4 in
  ignore (Testbed.benchmark kernel Testbed.Nginx ~scale:3_000 ());
  let path = tmp_image "nginx_load" in
  let img =
    match Manager.save_image m ~path with
    | Error e -> Alcotest.fail e
    | Ok img -> img
  in
  match Timetravel.restore img with
  | Error e -> Alcotest.fail e
  | Ok (k2, m2, report) ->
      Alcotest.(check bool) "root paired" true (report.Image.paired_procs >= 1);
      Alcotest.(check int) "restored fingerprint is byte-identical"
        (Image.fingerprint img)
        (Image.aspace_fingerprint ~prog:(Image.prog img)
           (K.aspace (Manager.root_proc m2)));
      let r = Testbed.benchmark k2 Testbed.Nginx ~scale:3_000 () in
      Alcotest.(check int) "restored instance serves without errors" 0
        r.Bench_result.errors;
      Alcotest.(check bool) "restored instance completes requests" true
        (r.Bench_result.requests > 0);
      let _m3, rep = Manager.update m2 (Testbed.final_version Testbed.Nginx) in
      Alcotest.(check bool) "update after restore commits" true rep.Manager.success

let test_install_refuses_wrong_program () =
  let _k, _m, _path, img = loaded_save Testbed.Httpd "mismatch" in
  let kernel = K.create () in
  let m = Testbed.launch kernel Testbed.Nginx in
  match Manager.restore_image m img with
  | Ok _ -> Alcotest.fail "httpd image restored over nginx"
  | Error e ->
      Alcotest.(check bool) "error names both programs" true
        (contains e (Testbed.base_version Testbed.Httpd).P.prog
        && contains e (Testbed.base_version Testbed.Nginx).P.prog)

(* {1 Control socket} *)

let test_ctl_save_restore () =
  let kernel = K.create () in
  let m = Testbed.launch kernel Testbed.Httpd in
  let ctl = Manager.ctl_path m in
  let path = tmp_image "ctl" in
  let reply = ref None in
  Ctl.exec kernel ~path:ctl (Ctl.Frame.Save path) ~on_result:(fun r -> reply := Some r) ();
  drive kernel (fun () -> !reply <> None);
  let fp =
    match !reply with
    | Some (Ok s) -> int_of_string s
    | Some (Error e) -> Alcotest.failf "SAVE refused: %a" Ctl.pp_error e
    | None -> Alcotest.fail "no SAVE reply"
  in
  (* serve more traffic so live state drifts away from the image... *)
  ignore (Testbed.benchmark kernel Testbed.Httpd ~scale:3_000 ());
  (* ...then restore in place over the control socket *)
  let reply = ref None in
  Ctl.exec kernel ~path:ctl (Ctl.Frame.Restore path) ~on_result:(fun r -> reply := Some r) ();
  drive kernel (fun () -> !reply <> None);
  (match !reply with
  | Some (Ok s) ->
      Alcotest.(check bool) "RESTORE reply carries the fingerprint" true
        (contains s (Printf.sprintf "fingerprint=%d" fp))
  | Some (Error e) -> Alcotest.failf "RESTORE refused: %a" Ctl.pp_error e
  | None -> Alcotest.fail "no RESTORE reply");
  Alcotest.(check int) "live state wound back to the saved fingerprint" fp
    (Image.aspace_fingerprint
       ~prog:(Testbed.base_version Testbed.Httpd).P.prog
       (K.aspace (Manager.root_proc m)))

let test_ctl_save_bad_path () =
  let kernel = K.create () in
  let m = Testbed.launch kernel Testbed.Httpd in
  let reply = ref None in
  Ctl.exec kernel ~path:(Manager.ctl_path m)
    (Ctl.Frame.Save "/nonexistent-dir/x.mcrimg")
    ~on_result:(fun r -> reply := Some r)
    ();
  drive kernel (fun () -> !reply <> None);
  match !reply with
  | Some (Error _) -> ()
  | Some (Ok s) -> Alcotest.failf "SAVE to unwritable path answered OK %s" s
  | None -> Alcotest.fail "no reply"

(* {1 Property: save -> restore preserves state and behaviour} *)

let prop_save_restore_identity =
  QCheck.Test.make ~count:4 ~name:"image.save_restore_identity"
    (QCheck.oneofl Testbed.all)
    (fun server ->
      let kernel = K.create () in
      let m = Testbed.launch kernel server in
      ignore (Testbed.benchmark kernel server ~scale:2_000 ());
      let path = tmp_image "prop" in
      let img =
        match Manager.save_image m ~path with
        | Error e -> QCheck.Test.fail_reportf "save: %s" e
        | Ok img -> img
      in
      match Timetravel.restore img with
      | Error e -> QCheck.Test.fail_reportf "restore: %s" e
      | Ok (k2, m2, _) ->
          let fp =
            Image.aspace_fingerprint ~prog:(Image.prog img)
              (K.aspace (Manager.root_proc m2))
          in
          if fp <> Image.fingerprint img then
            QCheck.Test.fail_reportf "fingerprint drift: %d <> %d" fp
              (Image.fingerprint img);
          (* the original (released after the save quiesce) and the restored
             copy hold identical state, so the same workload must get
             identical answers from both *)
          let a = Testbed.benchmark kernel server ~scale:2_000 () in
          let b = Testbed.benchmark k2 server ~scale:2_000 () in
          a.Bench_result.requests = b.Bench_result.requests
          && a.Bench_result.errors = b.Bench_result.errors
          && a.Bench_result.bytes = b.Bench_result.bytes)

(* {1 Fleet: migration and standby failover} *)

let test_fleet_migrate () =
  let fleet = Fleet.of_testbed Testbed.Nginx ~n:2 in
  let path = tmp_image "migrate" in
  (match Fleet.migrate_instance fleet 0 ~path with
  | Error e -> Alcotest.fail e
  | Ok fp ->
      Alcotest.(check int) "replacement carries the shipped state" fp
        (Fleet.image_fingerprint fleet 0));
  Alcotest.(check bool) "migrated instance serves" true (Fleet.healthy fleet 0);
  Fleet.refresh_serving fleet;
  Alcotest.(check int) "both instances back in rotation" 2 (Fleet.serving fleet);
  Alcotest.(check (option int)) "migration counted"
    (Some 1)
    (Metrics.find_counter (Fleet.metrics_snapshot fleet) "mcr_fleet_migrations_total")

let test_fleet_standby_failover () =
  let fleet = Fleet.of_testbed Testbed.Httpd ~n:2 in
  let sb =
    match Fleet.arm_standby fleet 1 with
    | Error e -> Alcotest.fail e
    | Ok sb -> sb
  in
  (* arming is non-disruptive: the primary keeps serving afterwards *)
  Alcotest.(check bool) "primary serves after arming" true (Fleet.healthy fleet 1);
  (match Fleet.failover_instance fleet 0 sb with
  | Ok _ -> Alcotest.fail "standby for instance 1 accepted by instance 0"
  | Error _ -> ());
  (match Fleet.failover_instance fleet 1 sb with
  | Error e -> Alcotest.fail e
  | Ok fp ->
      Alcotest.(check int) "failover reports the armed fingerprint"
        (Fleet.standby_fingerprint sb) fp;
      Alcotest.(check int) "standby carries the armed state" fp
        (Fleet.image_fingerprint fleet 1));
  Alcotest.(check bool) "standby serves" true (Fleet.healthy fleet 1);
  Alcotest.(check (option int)) "failover counted"
    (Some 1)
    (Metrics.find_counter (Fleet.metrics_snapshot fleet) "mcr_fleet_failovers_total")

(* {1 Replay: the image written at quiesce re-runs the recorded update} *)

(* A seed whose injected fault fires after the quiescent point (so the
   checkpoint image is still captured) yet forces a rollback. The seed
   rides inside the image's policy text, so the replay re-arms it. *)
let rollback_seed =
  let rec find s =
    if s > 10_000 then Alcotest.fail "no replay-conflict seed below 10000"
    else
      let f = Fault.of_seed s in
      if Fault.fires f Fault.Replay_conflict || Fault.fires f Fault.Transfer_conflict
      then s
      else find (s + 1)
  in
  lazy (find 1)

let written_image dir =
  match Sys.readdir dir with
  | [| file |] -> Filename.concat dir file
  | files -> Alcotest.failf "expected one image in %s, found %d" dir (Array.length files)

let test_replay_reproduces_rollback () =
  let dir = tmp_dir "replay_rb" in
  let kernel = K.create () in
  let m = Testbed.launch kernel Testbed.Httpd in
  ignore (Testbed.benchmark kernel Testbed.Httpd ~scale:2_000 ());
  let policy =
    Policy.default
    |> Policy.with_image_dir (Some dir)
    |> Policy.with_fault_seed (Some (Lazy.force rollback_seed))
  in
  let _m2, report = Manager.update m ~policy (Testbed.final_version Testbed.Httpd) in
  Alcotest.(check bool) "injected fault rolled the update back" false
    report.Manager.success;
  let path = written_image dir in
  match Timetravel.replay_path ~path with
  | Error e -> Alcotest.fail e
  | Ok v ->
      Alcotest.(check bool) "recorded verdict is a rollback" false
        v.Timetravel.v_expected_success;
      Alcotest.(check bool) "offline re-run reproduces reason and stage" true
        v.Timetravel.v_reproduced

let test_replay_reproduces_commit () =
  let dir = tmp_dir "replay_ok" in
  let kernel = K.create () in
  let m = Testbed.launch kernel Testbed.Vsftpd in
  ignore (Testbed.benchmark kernel Testbed.Vsftpd ~scale:2_000 ());
  let policy = Policy.default |> Policy.with_image_dir (Some dir) in
  let _m2, report = Manager.update m ~policy (Testbed.final_version Testbed.Vsftpd) in
  Alcotest.(check bool) "update committed" true report.Manager.success;
  let path = written_image dir in
  match Timetravel.replay_path ~path with
  | Error e -> Alcotest.fail e
  | Ok v ->
      Alcotest.(check bool) "recorded verdict is a commit" true
        v.Timetravel.v_expected_success;
      Alcotest.(check bool) "offline re-run commits too" true
        v.Timetravel.v_reproduced

let test_replay_requires_flight () =
  (* a manually saved image (no update attempt) has nothing to replay *)
  let _k, _m, _path, img = loaded_save Testbed.Httpd "noflight" in
  match Timetravel.replay img with
  | Ok _ -> Alcotest.fail "replay of a flightless image succeeded"
  | Error e -> Alcotest.(check bool) "error says why" true (contains e "flight")

let () =
  Alcotest.run "image"
    [
      ( "codec",
        [
          Alcotest.test_case "save -> read round-trip" `Quick test_roundtrip;
          Alcotest.test_case "layout names sections" `Quick test_layout_names_sections;
          Alcotest.test_case "corruption goldens" `Quick test_corruption_goldens;
          Alcotest.test_case "unknown section skipped" `Quick test_unknown_section_skipped;
          Alcotest.test_case "huge length fields" `Quick test_huge_length_fields;
        ] );
      ( "restore",
        [
          Alcotest.test_case "nginx under load restores and updates" `Quick
            test_restore_under_load;
          Alcotest.test_case "wrong program refused" `Quick
            test_install_refuses_wrong_program;
          QCheck_alcotest.to_alcotest prop_save_restore_identity;
        ] );
      ( "ctl",
        [
          Alcotest.test_case "SAVE/RESTORE over the socket" `Quick test_ctl_save_restore;
          Alcotest.test_case "SAVE to unwritable path errs" `Quick test_ctl_save_bad_path;
        ] );
      ( "fleet",
        [
          Alcotest.test_case "migrate carries state across kernels" `Quick
            test_fleet_migrate;
          Alcotest.test_case "standby failover" `Quick test_fleet_standby_failover;
        ] );
      ( "replay",
        [
          Alcotest.test_case "rollback reproduced offline" `Quick
            test_replay_reproduces_rollback;
          Alcotest.test_case "commit reproduced offline" `Quick
            test_replay_reproduces_commit;
          Alcotest.test_case "flightless image refused" `Quick test_replay_requires_flight;
        ] );
    ]
