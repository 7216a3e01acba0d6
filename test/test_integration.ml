(* End-to-end tests of the full MCR pipeline on the paper's Listing 1
   server: launch, serve, quiesce, live-update with type transformation,
   rollback on reinitialization and tracing conflicts, mcr-ctl. *)

module K = Mcr_simos.Kernel
module S = Mcr_simos.Sysdefs
module P = Mcr_program.Progdef
module Ty = Mcr_types.Ty
module Symtab = Mcr_types.Symtab
module Aspace = Mcr_vmem.Aspace
module Manager = Mcr_core.Manager
module Ctl = Mcr_core.Ctl
module Listing1 = Mcr_servers.Listing1

let drive ?(max_s = 120) kernel pred =
  let ok = K.run_until kernel ~max_ns:(K.clock_ns kernel + (max_s * 1_000_000_000)) pred in
  Alcotest.(check bool) "simulation made progress" true ok

let boot () =
  let kernel = K.create () in
  K.fs_write kernel ~path:Listing1.config_path "welcome=hi";
  let m = Manager.launch kernel (Listing1.v1 ()) in
  Alcotest.(check bool) "startup completes" true (Manager.wait_startup m ());
  (kernel, m)

(* one client request; returns the server's reply *)
let request kernel =
  let reply = ref None in
  let p =
    K.spawn_process kernel ~image:(K.Fresh_image (Aspace.create ())) ~name:"client"
      ~entry:"main"
      ~main:(fun _ ->
        let rec connect n =
          match K.syscall (S.Connect { port = Listing1.port }) with
          | S.Ok_fd fd -> Some fd
          | S.Err S.ECONNREFUSED when n > 0 ->
              ignore (K.syscall (S.Nanosleep { ns = 1_000_000 }));
              connect (n - 1)
          | _ -> None
        in
        match connect 100 with
        | None -> reply := Some "NOCONN"
        | Some fd -> (
            ignore (K.syscall (S.Write { fd; data = "GET /" }));
            match K.syscall (S.Read { fd; max = 256; nonblock = false }) with
            | S.Ok_data d -> reply := Some d
            | _ -> reply := Some "NOREAD"))
      ()
  in
  drive kernel (fun () -> not (K.alive p));
  match !reply with Some r -> r | None -> Alcotest.fail "client produced no reply"

(* ------------------------------------------------------------------ *)

let test_serves_requests () =
  let kernel, _m = boot () in
  Alcotest.(check string) "first" "hi/v1:1" (request kernel);
  Alcotest.(check string) "second" "hi/v1:2" (request kernel);
  Alcotest.(check string) "third" "hi/v1:3" (request kernel)

let test_quiescence_converges_fast () =
  let kernel, m = boot () in
  ignore (request kernel);
  match Manager.quiesce_only m with
  | Some ns ->
      Alcotest.(check bool) "under 100 ms" true (ns < 100_000_000);
      (* the server must still work after release *)
      Alcotest.(check string) "serves after release" "hi/v1:2" (request kernel)
  | None -> Alcotest.fail "quiescence did not converge"

let test_live_update_preserves_state () =
  let kernel, m = boot () in
  Alcotest.(check string) "pre 1" "hi/v1:1" (request kernel);
  Alcotest.(check string) "pre 2" "hi/v1:2" (request kernel);
  Alcotest.(check string) "pre 3" "hi/v1:3" (request kernel);
  let m2, report = Manager.update m (Listing1.v2 ()) in
  Alcotest.(check bool) "update succeeded" true report.Manager.success;
  Alcotest.(check (option string)) "no failure" None (Option.map Mcr_error.to_string report.Manager.failure);
  (* the request counter survived the update: state was transferred *)
  Alcotest.(check string) "post 4" "hi/v2:4" (request kernel);
  Alcotest.(check string) "post 5" "hi/v2:5" (request kernel);
  (* old version is gone *)
  Alcotest.(check bool) "old process terminated" false (K.alive (Manager.root_proc m));
  Alcotest.(check bool) "new process alive" true (K.alive (Manager.root_proc m2));
  ignore m2

let test_update_transforms_list_nodes () =
  let kernel, m = boot () in
  for _ = 1 to 3 do
    ignore (request kernel)
  done;
  let m2, report = Manager.update m (Listing1.v2 ()) in
  Alcotest.(check bool) "update ok" true report.Manager.success;
  (* walk the transformed list in the new version's memory: values 3,2,1 and
     the new field zero-initialized (Figure 2) *)
  let image = Manager.root_image m2 in
  let aspace = image.P.i_aspace in
  let env = image.P.i_version.P.tyenv in
  let head = (Symtab.lookup image.P.i_symtab "list").Symtab.addr in
  let field base name = Mcr_types.Access.read_field aspace env ~base (Ty.Named "l_t") name in
  let rec walk addr acc =
    if addr = 0 then List.rev acc
    else walk (field addr "next") ((field addr "value", field addr "new") :: acc)
  in
  let nodes = walk (field head "next") [] in
  Alcotest.(check (list (pair int int)))
    "nodes transformed with new field zeroed"
    [ (3, 0); (2, 0); (1, 0) ]
    nodes;
  (* and the structure keeps working *)
  Alcotest.(check string) "post-update request" "hi/v2:4" (request kernel)

let test_update_timing_reported () =
  let kernel, m = boot () in
  for _ = 1 to 2 do
    ignore (request kernel)
  done;
  let _, report = Manager.update m (Listing1.v2 ()) in
  Alcotest.(check bool) "success" true report.Manager.success;
  Alcotest.(check bool) "quiesce < 100ms" true (report.Manager.quiesce_ns < 100_000_000);
  Alcotest.(check bool) "cm measured" true (report.Manager.control_migration_ns > 0);
  Alcotest.(check bool) "st measured" true (report.Manager.state_transfer_ns > 0);
  Alcotest.(check bool) "update < 1s" true (report.Manager.total_ns < 1_000_000_000);
  Alcotest.(check bool) "replayed calls" true (report.Manager.replayed_calls > 0)

let test_rollback_on_omitted_call () =
  let kernel, m = boot () in
  Alcotest.(check string) "pre" "hi/v1:1" (request kernel);
  let m2, report = Manager.update m (Listing1.v2 ~variant:`Omit_listen ()) in
  Alcotest.(check bool) "update failed" false report.Manager.success;
  Alcotest.(check bool) "replay conflicts reported" true
    (report.Manager.replay_conflicts <> []);
  (* rollback: the old version resumes service, state intact *)
  Alcotest.(check string) "old still serves" "hi/v1:2" (request kernel);
  Alcotest.(check bool) "same manager" true (m == m2)

let test_rollback_on_tracing_conflict () =
  let kernel, m = boot () in
  ignore (request kernel);
  let m2, report = Manager.update m (Listing1.v2 ~variant:`Change_hidden ()) in
  Alcotest.(check bool) "update failed" false report.Manager.success;
  Alcotest.(check bool) "transfer conflicts reported" true
    (report.Manager.transfer_conflicts <> []);
  Alcotest.(check string) "old still serves" "hi/v1:2" (request kernel);
  ignore m2

let test_chained_updates () =
  (* v1 -> v2 -> back to a v1-shaped version: the reconstructed startup log
     of the replayed version must support the next update *)
  let kernel, m = boot () in
  ignore (request kernel);
  let m2, r1 = Manager.update m (Listing1.v2 ()) in
  Alcotest.(check bool) "first update ok" true r1.Manager.success;
  Alcotest.(check string) "v2 serves" "hi/v2:2" (request kernel);
  ignore (request kernel);
  (* a third version: v2 shape, different tag and layout *)
  let v3 = { (Listing1.v2 ()) with P.version_tag = "3.0"; P.layout_bias = 1024 } in
  let m3, r2 = Manager.update m2 v3 in
  Alcotest.(check bool) "second update ok" true r2.Manager.success;
  Alcotest.(check string) "v3 serves with preserved count" "hi/v2:4" (request kernel);
  ignore m3

let test_rollback_on_renamed_function () =
  (* the paper's admitted conservativeness (Section 5): renaming a startup
     function changes the call-stack IDs, so replay cannot match the
     recorded calls and conservatively rolls back *)
  let kernel, m = boot () in
  ignore (request kernel);
  let m2, report = Manager.update m (Listing1.v2 ~variant:`Rename_init ()) in
  Alcotest.(check bool) "spurious but safe rollback" false report.Manager.success;
  Alcotest.(check string) "old still serves" "hi/v1:2" (request kernel);
  ignore m2

let test_update_scales_to_many_nodes () =
  (* a moderately large object graph: 150 list nodes transferred and
     type-transformed in one update *)
  let kernel, m = boot () in
  for _ = 1 to 150 do
    ignore (request kernel)
  done;
  let m2, report = Manager.update m (Listing1.v2 ()) in
  Alcotest.(check bool) "update ok" true report.Manager.success;
  (match report.Manager.transfers with
  | [ (_, o) ] ->
      Alcotest.(check bool) "all nodes reallocated" true
        (o.Mcr_trace.Transfer.fresh_allocations >= 150)
  | _ -> Alcotest.fail "expected one pair");
  Alcotest.(check string) "counter continues" "hi/v2:151" (request kernel);
  ignore m2

let test_chained_updates_preserve_pinned_objects () =
  (* the hidden structure (reachable only through the conservative pointer
     in b) is pinned at its original address by the first update; the
     second update must re-discover the pinned region and carry it forward
     — content intact, address stable, pages mapped in every version *)
  let kernel, m = boot () in
  ignore (request kernel);
  let hidden_addr_in m' =
    let image = Manager.root_image m' in
    Mcr_vmem.Aspace.read_word image.P.i_aspace
      (Symtab.lookup image.P.i_symtab "b").Symtab.addr
  in
  let read_hidden m' addr =
    let image = Manager.root_image m' in
    ( Mcr_vmem.Aspace.read_word image.P.i_aspace addr,
      Mcr_vmem.Aspace.read_word image.P.i_aspace (Mcr_vmem.Addr.add_words addr 1) )
  in
  let m2, r1 = Manager.update m (Listing1.v2 ()) in
  Alcotest.(check bool) "hop 1 ok" true r1.Manager.success;
  let addr1 = hidden_addr_in m2 in
  Alcotest.(check (pair int int)) "content after hop 1" (11, 22) (read_hidden m2 addr1);
  ignore (request kernel);
  let v3 = { (Listing1.v2 ()) with P.version_tag = "3.0"; P.layout_bias = 1024 } in
  let m3, r2 = Manager.update m2 v3 in
  Alcotest.(check bool) "hop 2 ok" true r2.Manager.success;
  let addr2 = hidden_addr_in m3 in
  Alcotest.(check int) "pinned address stable across hops" addr1 addr2;
  Alcotest.(check (pair int int)) "content after hop 2" (11, 22) (read_hidden m3 addr2);
  Alcotest.(check string) "still serving" "hi/v2:3" (request kernel)

let test_ctl_roundtrip () =
  let kernel, m = boot () in
  ignore (request kernel);
  let reply = ref None in
  Ctl.exec kernel ~path:(Manager.ctl_path m) Ctl.Frame.Update
    ~on_result:(fun r -> reply := Some r)
    ();
  drive kernel (fun () -> Manager.update_requested m);
  let m2, report = Manager.update m (Listing1.v2 ()) in
  Alcotest.(check bool) "update ok" true report.Manager.success;
  drive kernel (fun () -> !reply <> None);
  Alcotest.(check bool) "ctl client told OK" true (!reply = Some (Ok ""));
  Alcotest.(check string) "new version serves" "hi/v2:2" (request kernel);
  ignore m2

let test_ctl_failure_reply () =
  let kernel, m = boot () in
  ignore (request kernel);
  let reply = ref None in
  Ctl.exec kernel ~path:(Manager.ctl_path m) Ctl.Frame.Update
    ~on_result:(fun r -> reply := Some r)
    ();
  drive kernel (fun () -> Manager.update_requested m);
  let _, report = Manager.update m (Listing1.v2 ~variant:`Omit_listen ()) in
  Alcotest.(check bool) "update failed" false report.Manager.success;
  drive kernel (fun () -> !reply <> None);
  (match (!reply, report.Manager.failure) with
  | Some (Error (Ctl.Refused r)), Some reason ->
      Alcotest.(check string) "refusal names the rollback reason" (Mcr_error.to_string reason) r
  | _ -> Alcotest.fail "expected a refused UPDATE");
  Alcotest.(check string) "old still serves" "hi/v1:2" (request kernel)

let test_config_change_across_update () =
  (* mutable reinitialization re-reads configuration: with no dirty state,
     the new version's freshly initialized banner stands *)
  let kernel, m = boot () in
  K.fs_write kernel ~path:Listing1.config_path "welcome=bonjour";
  let _, report = Manager.update m (Listing1.v2 ()) in
  Alcotest.(check bool) "update ok" true report.Manager.success;
  Alcotest.(check string) "new banner picked up" "bonjour/v2:1" (request kernel)

let test_dirty_page_false_sharing () =
  (* soft-dirty tracking is page-granular (as in Linux): once requests dirty
     the heap page holding the startup-time banner buffer, the banner is
     transferred along with the genuinely dirty objects and the old value
     survives a concurrent config change — the same behaviour the real
     system exhibits *)
  let kernel, m = boot () in
  ignore (request kernel);
  K.fs_write kernel ~path:Listing1.config_path "welcome=bonjour";
  let _, report = Manager.update m (Listing1.v2 ()) in
  Alcotest.(check bool) "update ok" true report.Manager.success;
  Alcotest.(check string) "old banner transferred with its dirty page, count preserved"
    "hi/v2:2" (request kernel)

let test_trace_statistics_nonempty () =
  let kernel, m = boot () in
  for _ = 1 to 3 do
    ignore (request kernel)
  done;
  let stats = Manager.trace_statistics m in
  Alcotest.(check bool) "precise pointers found" true
    (stats.Mcr_trace.Objgraph.precise.Mcr_trace.Objgraph.ptr > 0);
  Alcotest.(check bool) "likely pointers found (hidden ptr in b)" true
    (stats.Mcr_trace.Objgraph.likely.Mcr_trace.Objgraph.ptr > 0)

let test_memory_stats () =
  let kernel, m = boot () in
  ignore (request kernel);
  let ms = Manager.memory_stats m in
  Alcotest.(check bool) "resident positive" true (ms.Manager.resident_bytes > 0);
  Alcotest.(check bool) "tags positive" true (ms.Manager.tag_metadata_words > 0);
  Alcotest.(check bool) "log recorded" true (ms.Manager.startup_log_entries > 0);
  Alcotest.(check int) "one process" 1 ms.Manager.processes

let test_update_drains_inflight_connection () =
  (* a connection accepted before quiescence is served by the OLD version
     before it parks: quiescence waits for in-flight events to drain *)
  let kernel, m = boot () in
  ignore (request kernel);
  let reply = ref None in
  let _client =
    K.spawn_process kernel ~image:(K.Fresh_image (Aspace.create ())) ~name:"slow-client"
      ~entry:"main"
      ~main:(fun _ ->
        match K.syscall (S.Connect { port = Listing1.port }) with
        | S.Ok_fd fd -> (
            (* connected and accepted, but the request arrives mid-update *)
            ignore (K.syscall (S.Nanosleep { ns = 200_000_000 }));
            ignore (K.syscall (S.Write { fd; data = "GET /" }));
            match K.syscall (S.Read { fd; max = 256; nonblock = false }) with
            | S.Ok_data d -> reply := Some d
            | _ -> reply := Some "NOREAD")
        | _ -> reply := Some "NOCONN")
      ()
  in
  (* let the connect land and the old server accept it *)
  K.run_for kernel 10_000_000;
  let _m2, report = Manager.update m (Listing1.v2 ()) in
  Alcotest.(check bool) "update ok" true report.Manager.success;
  drive kernel (fun () -> !reply <> None);
  Alcotest.(check (option string)) "in-flight connection drained by old version"
    (Some "hi/v1:2") !reply

let test_update_queued_connection_served_by_new () =
  (* a connection that lands in the backlog while both versions are parked
     is served by the NEW version after release *)
  let kernel, m = boot () in
  ignore (request kernel);
  let reply = ref None in
  let _client =
    K.spawn_process kernel ~image:(K.Fresh_image (Aspace.create ())) ~name:"late-client"
      ~entry:"main"
      ~main:(fun _ ->
        (* sleep past quiescence convergence (~10-20 ms), into the window
           where the old version is parked and the new one not yet released *)
        ignore (K.syscall (S.Nanosleep { ns = 60_000_000 }));
        match K.syscall (S.Connect { port = Listing1.port }) with
        | S.Ok_fd fd -> (
            ignore (K.syscall (S.Write { fd; data = "GET /" }));
            match K.syscall (S.Read { fd; max = 256; nonblock = false }) with
            | S.Ok_data d -> reply := Some d
            | _ -> reply := Some "NOREAD")
        | _ -> reply := Some "NOCONN")
      ()
  in
  let _m2, report = Manager.update m (Listing1.v2 ()) in
  Alcotest.(check bool) "update ok" true report.Manager.success;
  drive kernel (fun () -> !reply <> None);
  Alcotest.(check (option string)) "queued connection served by new version"
    (Some "hi/v2:2") !reply

let () =
  Alcotest.run "mcr_integration"
    [
      ( "serving",
        [
          Alcotest.test_case "serves requests" `Quick test_serves_requests;
          Alcotest.test_case "quiescence converges" `Quick test_quiescence_converges_fast;
        ] );
      ( "live-update",
        [
          Alcotest.test_case "state preserved" `Quick test_live_update_preserves_state;
          Alcotest.test_case "list nodes transformed" `Quick test_update_transforms_list_nodes;
          Alcotest.test_case "timing reported" `Quick test_update_timing_reported;
          Alcotest.test_case "config change picked up" `Quick test_config_change_across_update;
          Alcotest.test_case "dirty-page false sharing" `Quick test_dirty_page_false_sharing;
          Alcotest.test_case "in-flight connection drained" `Quick
            test_update_drains_inflight_connection;
          Alcotest.test_case "queued connection to new version" `Quick
            test_update_queued_connection_served_by_new;
          Alcotest.test_case "chained updates" `Quick test_chained_updates;
          Alcotest.test_case "chained pins preserved" `Quick
            test_chained_updates_preserve_pinned_objects;
        ] );
      ( "rollback",
        [
          Alcotest.test_case "omitted call" `Quick test_rollback_on_omitted_call;
          Alcotest.test_case "tracing conflict" `Quick test_rollback_on_tracing_conflict;
          Alcotest.test_case "renamed function" `Quick test_rollback_on_renamed_function;
        ] );
      ( "scale",
        [ Alcotest.test_case "150-node transfer" `Quick test_update_scales_to_many_nodes ] );
      ( "mcr-ctl",
        [
          Alcotest.test_case "roundtrip" `Quick test_ctl_roundtrip;
          Alcotest.test_case "failure reply" `Quick test_ctl_failure_reply;
        ] );
      ( "introspection",
        [
          Alcotest.test_case "trace statistics" `Quick test_trace_statistics_nonempty;
          Alcotest.test_case "memory stats" `Quick test_memory_stats;
        ] );
    ]
