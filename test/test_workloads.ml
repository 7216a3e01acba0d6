(* Tests for the workload generators and the testbed against each server,
   including Figure 3 mechanics (update under held connections). *)

module K = Mcr_simos.Kernel
module S = Mcr_simos.Sysdefs
module Manager = Mcr_core.Manager
module W = Mcr_workloads
module Testbed = Mcr_workloads.Testbed
module Holders = Mcr_workloads.Holders

let fresh_with server ?instr ?version () =
  let kernel = K.create () in
  let m = Testbed.launch ?instr ?version kernel server in
  (kernel, m)

let test_http_bench_completes () =
  let kernel, _ = fresh_with Testbed.Nginx () in
  let r = W.Http_bench.run kernel ~port:(Testbed.port Testbed.Nginx) ~requests:50 ~path:"/index.html" () in
  Alcotest.(check int) "all requests ok" 50 r.W.Bench_result.requests;
  Alcotest.(check int) "no errors" 0 r.W.Bench_result.errors;
  Alcotest.(check bool) "bytes delivered" true (r.W.Bench_result.bytes > 50 * 1000);
  Alcotest.(check bool) "time elapsed" true (r.W.Bench_result.elapsed_ns > 0)

let test_httpd_bench_completes () =
  let kernel, _ = fresh_with Testbed.Httpd () in
  let r = W.Http_bench.run kernel ~port:(Testbed.port Testbed.Httpd) ~requests:40 ~path:"/index.html" () in
  Alcotest.(check int) "all ok" 40 r.W.Bench_result.requests;
  Alcotest.(check int) "no errors" 0 r.W.Bench_result.errors

let test_ftp_bench_completes () =
  let kernel, _ = fresh_with Testbed.Vsftpd () in
  let r = W.Ftp_bench.run kernel ~port:(Testbed.port Testbed.Vsftpd) ~users:6 ~file:"big.bin" () in
  Alcotest.(check int) "all retrievals ok" 6 r.W.Bench_result.requests;
  Alcotest.(check bool) "1MB each" true (r.W.Bench_result.bytes >= 6 * (1 lsl 20))

let test_ssh_bench_completes () =
  let kernel, _ = fresh_with Testbed.Sshd () in
  let r = W.Ssh_bench.run kernel ~port:(Testbed.port Testbed.Sshd) ~sessions:4 ~commands:3 () in
  Alcotest.(check int) "all commands ok" 12 r.W.Bench_result.requests;
  Alcotest.(check int) "no errors" 0 r.W.Bench_result.errors

let test_holders_lifecycle server =
  let kernel, _ = fresh_with server () in
  let h = Testbed.open_holders kernel server ~n:5 in
  Alcotest.(check int) "all connected" 5 (Holders.connected h);
  Holders.close_all h;
  ignore (K.run_until kernel ~max_ns:(K.clock_ns kernel + 60_000_000_000) (fun () -> Holders.all_done h));
  Alcotest.(check bool) "all done" true (Holders.all_done h)

let test_update_under_held_connections server =
  let kernel, m = fresh_with server () in
  ignore (Testbed.benchmark kernel server ~scale:10_000 ());
  let h = Testbed.open_holders kernel server ~n:8 in
  let m2, report = Manager.update m (Testbed.final_version server) in
  Alcotest.(check bool)
    (Testbed.name server ^ " update ok under held connections")
    true report.Manager.success;
  Alcotest.(check bool) "state transfer measured" true (report.Manager.state_transfer_ns > 0);
  Holders.close_all h;
  ignore (K.run_until kernel ~max_ns:(K.clock_ns kernel + 120_000_000_000) (fun () -> Holders.all_done h));
  Alcotest.(check bool) "holders complete on new version" true (Holders.all_done h);
  ignore m2

(* The shared completion wait: clients exiting out of spawn order must not
   end it early, and a client killed from outside ends it exactly when it
   is the last one to die. *)
let test_completion_wait () =
  let kernel = K.create () in
  let ms = 1_000_000 in
  let sleep ns = ignore (K.syscall (S.Nanosleep { ns })) in
  let sleepers =
    List.map
      (fun d -> W.Client.spawn kernel (Printf.sprintf "sleep-%d" d) (fun _ -> sleep (d * ms)))
      [ 30; 10; 20 ]
  in
  let blocked =
    W.Client.spawn kernel "blocked" (fun _ ->
        ignore (K.syscall (S.Sem_wait { name = "never-posted"; timeout_ns = None })))
  in
  let killed_at = ref (-1) in
  let _killer =
    W.Client.spawn kernel "killer" (fun _ ->
        sleep (40 * ms);
        Alcotest.(check bool) "blocked client alive until killed" true (K.alive blocked);
        K.kill_process kernel blocked ~status:9;
        killed_at := K.clock_ns kernel)
  in
  let w = W.Client.exits (sleepers @ [ blocked ]) in
  let start = K.clock_ns kernel in
  Alcotest.(check bool) "not done before running" false (W.Client.all_exited w);
  (* the 10 and 20 ms clients are gone, the first-spawned one is not *)
  Alcotest.(check bool) "out-of-order exits do not end the wait" false
    (K.run_until kernel ~max_ns:(start + (25 * ms)) (fun () -> W.Client.all_exited w));
  Alcotest.(check bool) "a live client holds the wait" false
    (K.run_until kernel ~max_ns:(start + (35 * ms)) (fun () -> W.Client.all_exited w));
  Alcotest.(check bool) "every sleeper exited" true
    (List.for_all (fun p -> not (K.alive p)) sleepers);
  Alcotest.(check bool) "wait ends" true (W.Client.drive kernel (fun () -> W.Client.all_exited w));
  Alcotest.(check bool) "the kill happened" true (!killed_at >= 0);
  Alcotest.(check int) "wait ends at the kill" !killed_at (K.clock_ns kernel);
  Alcotest.(check bool) "and stays ended" true (W.Client.all_exited w)

let test_profiling_workload_runs server =
  let kernel = K.create () in
  let profiler = Mcr_quiesce.Profiler.create kernel in
  Mcr_quiesce.Profiler.set_filter profiler (fun th ->
      K.thread_name th <> "mcr-ctl"
      && Mcr_program.Progdef.image_of_proc (K.thread_proc th) <> None);
  Mcr_quiesce.Profiler.attach profiler;
  let _m = Testbed.launch ~instr:Mcr_program.Instr.baseline ~profiler kernel server in
  let holders = Testbed.profiling_workload kernel server in
  Mcr_quiesce.Profiler.detach profiler;
  Holders.close_all holders;
  let report = Mcr_quiesce.Profiler.report profiler in
  Alcotest.(check bool)
    (Testbed.name server ^ " finds quiescent points")
    true
    (report.Mcr_quiesce.Profiler.quiescent_points > 0)

let test_client_contains () =
  let check name expected haystack needle =
    Alcotest.(check bool) name expected (W.Client.contains haystack needle)
  in
  check "empty needle" true "226 done" "";
  check "empty needle, empty haystack" true "" "";
  check "needle at the end" true "150 ok 226" "226";
  check "needle at the start" true "226 done" "226";
  check "needle longer than haystack" false "22" "226";
  check "repeated prefix" true "2226" "226";
  check "partial match only" false "2262" "2263";
  check "absent" false "550 no such file" "226"

(* The reply scan against a naive [String.sub] reference: haystacks of
   0-2,048 bytes over the bytes the three codes are made of, with a needle
   put at the start, at the end or in the middle, overlapping needles such
   as "2226" and "15150", the empty needle, and needles longer than the
   haystack. *)
let naive_contains haystack needle =
  let n = String.length needle in
  let rec at i = i + n <= String.length haystack && (String.sub haystack i n = needle || at (i + 1)) in
  at 0

let naive_classify reply =
  if naive_contains reply "226" then W.Client.Complete
  else if naive_contains reply "550" then W.Client.Missing
  else if naive_contains reply "150" then W.Client.Opening
  else W.Client.Data

let scan_needles = [ ""; "226"; "550"; "150"; "2226"; "15150"; "2"; "f5"; "0150226550f" ]

let prop_reply_scan =
  let open QCheck.Gen in
  let over_alphabet len = string_size ~gen:(oneofl [ '0'; '1'; '2'; '5'; '6'; 'f' ]) len in
  let haystack = over_alphabet (frequency [ (1, int_bound 4); (3, int_bound 2048) ]) in
  let needle = oneof [ oneofl scan_needles; over_alphabet (int_range 1 12) ] in
  let place = oneofl [ `None; `Start; `End; `Middle ] in
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~name:"reply scan matches a String.sub reference" ~count:500
       (QCheck.make
          ~print:(fun (h, n, _) -> Printf.sprintf "%S in %S" n h)
          (triple haystack needle place))
       (fun (h, n, place) ->
         let h =
           match place with
           | `None -> h
           | `Start -> n ^ h
           | `End -> h ^ n
           | `Middle ->
               let k = String.length h / 2 in
               String.sub h 0 k ^ n ^ String.sub h k (String.length h - k)
         in
         W.Client.classify_retr h = naive_classify h
         && List.for_all
              (fun n -> W.Client.contains h n = naive_contains h n)
              (n :: scan_needles)))

(* [Ftp_bench]'s counts over an empty file, a 1 KiB file and a missing one
   (550), each retrieved twice by three users. *)
let test_ftp_bench_files () =
  List.iter
    (fun (name, content, requests, errors, bytes) ->
      let kernel, _ = fresh_with Testbed.Vsftpd () in
      Option.iter
        (K.fs_write kernel ~path:(Mcr_servers.Vsftpd_sim.ftp_root ^ "/" ^ name))
        content;
      let r =
        W.Ftp_bench.run kernel ~port:(Testbed.port Testbed.Vsftpd) ~users:3 ~retrievals:2
          ~file:name ()
      in
      Alcotest.(check (triple int int int))
        (name ^ ": requests, errors, bytes")
        (requests, errors, bytes)
        (r.W.Bench_result.requests, r.W.Bench_result.errors, r.W.Bench_result.bytes))
    [
      ("empty.bin", Some "", 6, 0, 24);
      ("kib.bin", Some (String.make 1024 'd'), 6, 0, 6168);
      ("missing.bin", None, 0, 6, 0);
    ]

(* The web servers' reply is [Printf]'s "200 #%d %s", byte for byte. *)
let test_ok_reply_bytes () =
  List.iter
    (fun body ->
      List.iter
        (fun n ->
          Alcotest.(check string)
            (Printf.sprintf "n=%d, %d-byte body" n (String.length body))
            (Printf.sprintf "200 #%d %s" n body)
            (Mcr_servers.Srvutil.ok_reply n body))
        [ 0; 1; 9; 10; -1; max_int; min_int ])
    [ ""; Testbed.html_1k; String.init (64 * 1024) (fun i -> Char.chr (i land 0xff)) ]

let () =
  let per_server name f =
    List.map
      (fun s -> Alcotest.test_case (name ^ ": " ^ Testbed.name s) `Quick (fun () -> f s))
      Testbed.all
  in
  Alcotest.run "mcr_workloads"
    [
      ( "benchmarks",
        [
          Alcotest.test_case "http (nginx)" `Quick test_http_bench_completes;
          Alcotest.test_case "http (httpd)" `Quick test_httpd_bench_completes;
          Alcotest.test_case "ftp" `Quick test_ftp_bench_completes;
          Alcotest.test_case "ssh" `Quick test_ssh_bench_completes;
          Alcotest.test_case "completion wait" `Quick test_completion_wait;
          Alcotest.test_case "client contains" `Quick test_client_contains;
          prop_reply_scan;
          Alcotest.test_case "ftp bench files" `Quick test_ftp_bench_files;
          Alcotest.test_case "web reply bytes" `Quick test_ok_reply_bytes;
        ] );
      ("holders", per_server "lifecycle" test_holders_lifecycle);
      ("fig3-mechanics", per_server "update under holds" test_update_under_held_connections);
      ("profiling", per_server "workload" test_profiling_workload_runs);
    ]
