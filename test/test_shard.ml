(* Sharded parallel state transfer, proved four ways: shard-plan algebra
   (the partition is exact, deterministic, balanced enough to have a
   critical path no worse than the sequential walk), image identity (every
   worker count commits the byte-identical image and reports identical
   conflict/rollback behaviour), the control surface (the Policy builder
   and POLICY transfer_workers= over the ctl socket), and the fault property (mid-transfer
   faults under workers > 1 still satisfy the rollback guarantee). *)

module K = Mcr_simos.Kernel
module S = Mcr_simos.Sysdefs
module P = Mcr_program.Progdef
module Manager = Mcr_core.Manager
module Policy = Mcr_core.Policy
module Ctl = Mcr_core.Ctl
module Fault = Mcr_fault.Fault
module Metrics = Mcr_obs.Metrics
module Objgraph = Mcr_trace.Objgraph
module Testbed = Mcr_workloads.Testbed
module Holders = Mcr_workloads.Holders
module Listing1 = Mcr_servers.Listing1
module Aspace = Mcr_vmem.Aspace
module Addr = Mcr_vmem.Addr

let worker_counts = [ 1; 2; 3; 8 ]

let drive kernel pred =
  ignore (K.run_until kernel ~max_ns:(K.clock_ns kernel + 120_000_000_000) pred)

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

(* Byte-identity digest of an address space (same fold as test_precopy). *)
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

(* A quiescent analysis with a meaningful object graph to shard. *)
let listing1_analysis () =
  let kernel = K.create () in
  let m = launch_listing1 kernel in
  for _ = 1 to 8 do
    ignore (rpc kernel ~port:Listing1.port "GET /")
  done;
  Objgraph.analyze (Manager.root_image m)

(* ------------------------------------------------------------------ *)
(* Shard-plan algebra *)

let test_plan_partitions_exactly () =
  let a = listing1_analysis () in
  List.iter
    (fun w ->
      let plan = Objgraph.shard a ~workers:w in
      let label fmt = Printf.sprintf "W=%d: %s" w fmt in
      Alcotest.(check bool) (label "effective workers in range") true
        (plan.Objgraph.sp_workers >= 1 && plan.Objgraph.sp_workers <= w);
      Alcotest.(check int) (label "words array sized") plan.Objgraph.sp_workers
        (Array.length plan.Objgraph.sp_words);
      Alcotest.(check int) (label "object counts partition the reachable set")
        a.Objgraph.reachable_count
        (Array.fold_left ( + ) 0 plan.Objgraph.sp_objects);
      Alcotest.(check int) (label "word counts partition the reachable words")
        a.Objgraph.reachable_words
        (Array.fold_left ( + ) 0 plan.Objgraph.sp_words);
      Alcotest.(check int) (label "tracing charges partition cost_ns")
        a.Objgraph.cost_ns
        (Array.fold_left ( + ) 0 plan.Objgraph.sp_trace_ns);
      Array.iter
        (fun n -> Alcotest.(check bool) (label "no empty shard") true (n > 0))
        plan.Objgraph.sp_objects;
      (* every reachable object is assigned to a valid shard, in address
         order (contiguous ranges); unreachable objects are unassigned *)
      let last = ref (-1) in
      Array.iter
        (fun (o : Objgraph.obj) ->
          let s = plan.Objgraph.sp_shard_of.(o.Objgraph.id) in
          if o.Objgraph.reachable then begin
            Alcotest.(check bool) (label "assigned") true
              (s >= 0 && s < plan.Objgraph.sp_workers);
            Alcotest.(check bool) (label "address-contiguous") true (s >= !last);
            last := s
          end
          else Alcotest.(check int) (label "unreachable unassigned") (-1) s)
        a.Objgraph.objects)
    [ 1; 2; 3; 5; 8; 64 ]

let test_plan_deterministic () =
  let a = listing1_analysis () in
  List.iter
    (fun w ->
      let p1 = Objgraph.shard a ~workers:w in
      let p2 = Objgraph.shard a ~workers:w in
      Alcotest.(check (array int))
        (Printf.sprintf "W=%d: same assignment" w)
        p1.Objgraph.sp_shard_of p2.Objgraph.sp_shard_of;
      Alcotest.(check (array int))
        (Printf.sprintf "W=%d: same words" w)
        p1.Objgraph.sp_words p2.Objgraph.sp_words)
    worker_counts

let test_critical_path_bounds () =
  let a = listing1_analysis () in
  Alcotest.(check int) "W=1 critical path is the sequential cost" a.Objgraph.cost_ns
    (Array.fold_left max 0 (Objgraph.shard a ~workers:1).Objgraph.sp_trace_ns);
  let prev = ref a.Objgraph.cost_ns in
  List.iter
    (fun w ->
      let c = Array.fold_left max 0 (Objgraph.shard a ~workers:w).Objgraph.sp_trace_ns in
      Alcotest.(check bool)
        (Printf.sprintf "W=%d: critical path <= sequential" w)
        true (c <= a.Objgraph.cost_ns);
      Alcotest.(check bool)
        (Printf.sprintf "W=%d: critical path >= fair share" w)
        true
        (c * w >= a.Objgraph.cost_ns);
      Alcotest.(check bool)
        (Printf.sprintf "W=%d: monotone non-increasing" w)
        true (c <= !prev);
      prev := c)
    [ 2; 3; 4; 5; 6; 7; 8 ]

let test_invalid_workers_rejected () =
  let a = listing1_analysis () in
  Alcotest.check_raises "shard rejects workers = 0"
    (Invalid_argument "Objgraph.shard: workers must be >= 1") (fun () ->
      ignore (Objgraph.shard a ~workers:0))

(* ------------------------------------------------------------------ *)
(* Control surface *)

let test_policy_builder () =
  Alcotest.(check int) "default is sequential" 1 Policy.default.Policy.transfer_workers;
  let p = Policy.with_transfer_workers 4 Policy.default in
  Alcotest.(check int) "builder sets workers" 4 p.Policy.transfer_workers;
  Alcotest.check_raises "workers = 0 rejected"
    (Invalid_argument "Policy.with_transfer_workers: workers must be >= 1") (fun () ->
      ignore (Policy.with_transfer_workers 0 Policy.default))

let test_ctl_workers_knob () =
  let kernel = K.create () in
  let m = launch_listing1 kernel in
  let path = Manager.ctl_path m in
  let ask_raw command =
    let reply = ref None in
    Ctl.request_v kernel ~path ~command ~on_result:(fun r -> reply := Some r) ();
    drive kernel (fun () -> !reply <> None);
    !reply
  in
  let ask kv = ask_raw (Ctl.Frame.command_to_string (Ctl.Frame.Policy kv)) in
  Alcotest.(check bool) "transfer_workers=3 acknowledged" true
    (ask "transfer_workers=3" = Some (Ok ""));
  Alcotest.(check int) "policy updated" 3 (Manager.policy m).Policy.transfer_workers;
  Alcotest.(check bool) "transfer_workers=0 refused, naming the key" true
    (ask "transfer_workers=0"
    = Some (Error (Ctl.Refused "Policy.of_kv: transfer_workers=0 is below 1")));
  Alcotest.(check int) "policy unchanged on refusal" 3
    (Manager.policy m).Policy.transfer_workers;
  Alcotest.(check bool) "bare key refused" true
    (match ask_raw "POLICY transfer_workers" with
    | Some (Error (Ctl.Refused r)) -> String.starts_with ~prefix:"usage: POLICY" r
    | _ -> false);
  (* the knob drives the next update: commits and reports the pool size *)
  let _, report = Manager.update m (Listing1.v2 ()) in
  Alcotest.(check bool) "update with workers=3 committed" true report.Manager.success;
  Alcotest.(check (option int)) "workers gauge exported" (Some 3)
    (Metrics.find_gauge report.Manager.metrics "mcr_transfer_workers")

(* ------------------------------------------------------------------ *)
(* Identity: every worker count commits the same bytes *)

let test_four_servers_byte_identical_any_workers () =
  List.iter
    (fun server ->
      let run w =
        let kernel = K.create () in
        let m = Testbed.launch kernel server in
        let holders = Testbed.open_holders kernel server ~n:4 in
        let policy = Policy.with_transfer_workers w Policy.default in
        let m2, report = Manager.update m ~policy (Testbed.final_version server) in
        Alcotest.(check bool)
          (Printf.sprintf "%s W=%d: committed" (Testbed.name server) w)
          true report.Manager.success;
        Holders.close_all holders;
        program_digest m2
      in
      let reference = run 1 in
      List.iter
        (fun w ->
          Alcotest.(check (list int))
            (Printf.sprintf "%s W=%d: image byte-identical to W=1" (Testbed.name server) w)
            reference (run w))
        (List.filter (fun w -> w <> 1) worker_counts))
    Testbed.all

let test_rollback_identical_any_workers () =
  (* a conflicting update (httpd unprepared) must roll back with the same
     reason and conflict rendering for every worker count *)
  let run w =
    let kernel = K.create () in
    let m = Testbed.launch kernel Testbed.Httpd in
    let policy = Policy.with_transfer_workers w Policy.default in
    let m2, report = Manager.update m ~policy (Mcr_servers.Httpd_sim.unprepared ()) in
    Alcotest.(check bool)
      (Printf.sprintf "W=%d: rolled back" w)
      false report.Manager.success;
    let rendering =
      ( Option.map Mcr_error.to_string report.Manager.failure,
        List.map
          (Format.asprintf "%a" Mcr_replay.Replayer.pp_conflict)
          report.Manager.replay_conflicts,
        List.map
          (Format.asprintf "%a" Mcr_trace.Transfer.pp_conflict)
          report.Manager.transfer_conflicts )
    in
    (rendering, program_digest m2)
  in
  let reference = run 1 in
  List.iter
    (fun w ->
      let r = run w in
      Alcotest.(check bool)
        (Printf.sprintf "W=%d: identical rollback" w)
        true (r = reference))
    (List.filter (fun w -> w <> 1) worker_counts)

let prop_byte_identity_random_workers =
  QCheck.Test.make ~name:"any worker count commits the single-worker image" ~count:30
    QCheck.(pair (int_range 2 16) (int_range 0 5))
    (fun (w, extra) ->
      let run workers =
        let kernel = K.create () in
        let m = launch_listing1 kernel in
        for _ = 1 to extra do
          ignore (rpc kernel ~port:Listing1.port "GET /")
        done;
        let policy = Policy.with_transfer_workers workers Policy.default in
        let m2, report = Manager.update m ~policy (Listing1.v2 ()) in
        (report.Manager.success, program_digest m2)
      in
      let ok1, d1 = run 1 and okw, dw = run w in
      if not (ok1 && okw && d1 = dw) then
        QCheck.Test.fail_reportf "w=%d extra=%d ok1=%b okw=%b identical=%b" w extra ok1 okw
          (d1 = dw)
      else true)

(* ------------------------------------------------------------------ *)
(* Faults mid-transfer with workers > 1 keep the rollback guarantee *)

let prop_rollback_guarantee_with_workers =
  let servers = Array.of_list Testbed.all in
  QCheck.Test.make ~name:"faults under workers > 1 never break the old version" ~count:40
    QCheck.(triple (int_range 0 (Array.length servers - 1)) (int_range 0 1_000_000)
              (int_range 2 8))
    (fun (si, seed, w) ->
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
        Policy.with_transfer_workers w Policy.default
        |> Policy.with_deadlines ~quiesce_ns:(Some 3_000_000_000)
             ~update_ns:(Some 30_000_000_000)
      in
      let m2, report = Manager.update m ~policy ~fault (Testbed.final_version server) in
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
            "server=%s seed=%d w=%d reason=%s alive=%b digest=%b fds=%b leak=%b clean=%b"
            (Testbed.name server) seed w
            (Option.fold ~none:"<none>" ~some:Mcr_error.to_string report.Manager.failure)
            ok_alive ok_digest ok_fds (not ok_no_leak) clean.Manager.success
        else true
      end)

let () =
  let qt = QCheck_alcotest.to_alcotest in
  Alcotest.run "mcr_shard"
    [
      ( "plan",
        [
          Alcotest.test_case "partitions exactly" `Quick test_plan_partitions_exactly;
          Alcotest.test_case "deterministic" `Quick test_plan_deterministic;
          Alcotest.test_case "critical-path bounds" `Quick test_critical_path_bounds;
          Alcotest.test_case "invalid workers rejected" `Quick test_invalid_workers_rejected;
        ] );
      ( "api",
        [
          Alcotest.test_case "policy builder" `Quick test_policy_builder;
          Alcotest.test_case "ctl workers knob" `Quick test_ctl_workers_knob;
        ] );
      ( "identity",
        [
          Alcotest.test_case "four servers byte-identical for every W" `Slow
            test_four_servers_byte_identical_any_workers;
          Alcotest.test_case "rollback identical for every W" `Slow
            test_rollback_identical_any_workers;
          qt prop_byte_identity_random_workers;
        ] );
      ("faults", [ qt prop_rollback_guarantee_with_workers ]);
    ]
