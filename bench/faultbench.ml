(* fault-matrix: the rollback guarantee, measured.

   One row per (injection stage x server): inject the fault with
   deadlines armed, record the rollback reason and the rollback latency
   (virtual ns from the update call to the resumed old version). Stages
   marked "guaranteed" must roll back — a commit there is a harness bug
   and the run exits nonzero, which is what CI keys on ([--smoke] runs a
   reduced, still fully deterministic subset). Syscall faults are best
   effort: replayed calls can mask them, so their rows report whatever
   outcome occurred.

   When $MCR_FLIGHT_DIR is set, every attempt's flight record is written
   to $MCR_FLIGHT_DIR/flight_fault_matrix.json — the rollback-explanation
   artifact CI uploads, renderable with bin/mcr_postmortem. *)

module K = Mcr_simos.Kernel
module S = Mcr_simos.Sysdefs
module Manager = Mcr_core.Manager
module Fault = Mcr_fault.Fault
module Testbed = Mcr_workloads.Testbed

(* name, plan, quiescence deadline, rollback guaranteed *)
let stages =
  [
    ("quiesce-refusal", [ Fault.Quiesce_refusal ], Some 1_000_000_000, true);
    ("replay-conflict", [ Fault.Replay_conflict ], None, true);
    ("startup-crash", [ Fault.Startup_crash ], None, true);
    ("startup-hang", [ Fault.Startup_hang ], None, true);
    ("reinit-hang", [ Fault.Reinit_hang ], None, true);
    ("transfer-conflict", [ Fault.Transfer_conflict ], None, true);
    ("likely-misclass", [ Fault.Likely_misclassification ], None, true);
    ( "syscall-enospc",
      [ Fault.Syscall_failure { call = "open_at"; err = S.ENOSPC; after = 0 } ],
      None,
      false );
    ( "syscall-connreset",
      [ Fault.Syscall_failure { call = "read"; err = S.ECONNRESET; after = 0 } ],
      None,
      false );
  ]

let smoke_stages = [ "quiesce-refusal"; "startup-crash"; "transfer-conflict" ]

let flights : Mcr_obs.Flight.record list ref = ref []

let flush_flights () =
  match Sys.getenv_opt "MCR_FLIGHT_DIR" with
  | None | Some "" -> ()
  | Some dir ->
      Printf.printf "fault-matrix: flight records -> %s\n"
        (Bench_cell.write_file ~dir "flight_fault_matrix.json"
           (Mcr_obs.Export.flight_json (List.rev !flights)))

let run ?(smoke = false) () =
  let servers = if smoke then [ Testbed.Httpd ] else Testbed.all in
  let stages =
    if smoke then List.filter (fun (n, _, _, _) -> List.mem n smoke_stages) stages
    else stages
  in
  Printf.printf "\n== fault-matrix%s: rollback latency per injection stage ==\n"
    (if smoke then " (smoke)" else "");
  Printf.printf "%-18s %-14s %-42s %12s\n" "stage" "server" "outcome" "latency(ms)";
  let violations = ref 0 in
  List.iter
    (fun (stage, plan, qdl, guaranteed) ->
      List.iter
        (fun server ->
          let kernel = K.create () in
          let m = Testbed.launch kernel server in
          let m2, report =
            Manager.update m
              ~policy:
                (Mcr_core.Policy.with_deadlines ~quiesce_ns:qdl
                   ~update_ns:(Some 20_000_000_000) Mcr_core.Policy.default)
              ~fault:(Fault.script plan)
              (Testbed.final_version server)
          in
          flights := report.Manager.flight :: !flights;
          let outcome =
            if report.Manager.success then "COMMIT"
            else
              match report.Manager.failure with
              | Some r -> Mcr_error.to_string r
              | None -> "<no reason>"
          in
          let old_ok = K.alive (Manager.root_proc m2) in
          if guaranteed && (report.Manager.success || not old_ok) then begin
            incr violations;
            Printf.printf "%-18s %-14s %-42s %12s  <-- GUARANTEE VIOLATED\n" stage
              (Testbed.name server) outcome "-"
          end
          else
            Printf.printf "%-18s %-14s %-42s %12.2f\n" stage (Testbed.name server)
              outcome
              (float_of_int report.Manager.total_ns /. 1e6))
        servers)
    stages;
  flush_flights ();
  if !violations > 0 then begin
    Printf.printf "\nfault-matrix: %d rollback-guarantee violation(s)\n" !violations;
    exit 1
  end
