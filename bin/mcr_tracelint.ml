(* mcr-tracelint: structural lint for the tracing instrumentation. Runs
   traced updates across the four servers — plus a pre-copy commit and one
   scenario per kind of exit: a failure before restart, and rollbacks from
   startup, pre-copy, state transfer and reinit — and fails (exit 1) if any
   trace has unbalanced Trace.span begin/end pairs, via the same
   Export.check_balanced the test suite uses. Wired into `dune build @lint`
   and CI, so an instrumentation change that forgets a span_end breaks the
   build, not a later debugging session. *)

module K = Mcr_simos.Kernel
module Manager = Mcr_core.Manager
module Policy = Mcr_core.Policy
module Testbed = Mcr_workloads.Testbed
module Trace = Mcr_obs.Trace
module Export = Mcr_obs.Export
module Fault = Mcr_fault.Fault

let failures = ref 0

let check label trace =
  match Export.check_balanced trace with
  | Ok () -> Printf.printf "ok   %-28s %d event(s) balanced\n%!" label (Trace.emitted trace)
  | Error errors ->
      incr failures;
      Printf.printf "FAIL %-28s %d violation(s)\n" label (List.length errors);
      List.iter (fun e -> Printf.printf "       %s\n" e) errors

let scenario label ?policy ?fault ?(between_rounds = false) server =
  let kernel = K.create () in
  let trace = Trace.create ~clock:(fun () -> K.clock_ns kernel) () in
  let m = Testbed.launch ~trace kernel server in
  (match policy with Some p -> Manager.set_policy m p | None -> ());
  let traffic () = ignore (Testbed.benchmark kernel server ~scale:1000 ()) in
  traffic ();
  let on_precopy_round = if between_rounds then Some (fun _ -> traffic ()) else None in
  let _, report =
    Manager.update m ?fault ?on_precopy_round (Testbed.final_version server)
  in
  Printf.printf "     %-28s update %s\n%!" label
    (match report.Manager.failure with
    | None -> "committed"
    | Some reason -> "rolled back: " ^ Mcr_error.to_string reason);
  check label trace

let () =
  List.iter
    (fun server -> scenario (Testbed.name server) server)
    [ Testbed.Nginx; Testbed.Httpd; Testbed.Vsftpd; Testbed.Sshd ];
  scenario "httpd+transfer-conflict" ~fault:(Fault.script [ Fault.Transfer_conflict ])
    Testbed.Httpd;
  scenario "nginx+precopy" ~policy:(Policy.with_precopy true Policy.default) Testbed.Nginx;
  scenario "nginx+quiesce-refusal"
    ~policy:(Policy.with_quiesce_deadline_ns (Some 500_000_000) Policy.default)
    ~fault:(Fault.script [ Fault.Quiesce_refusal ])
    Testbed.Nginx;
  scenario "vsftpd+startup-crash" ~fault:(Fault.script [ Fault.Startup_crash ]) Testbed.Vsftpd;
  scenario "nginx+precopy-diverged"
    ~policy:(Policy.with_precopy ~max_rounds:2 ~threshold_words:0 true Policy.default)
    ~between_rounds:true Testbed.Nginx;
  scenario "sshd+reinit-hang" ~fault:(Fault.script [ Fault.Reinit_hang ]) Testbed.Sshd;
  if !failures > 0 then begin
    Printf.printf "tracelint: %d unbalanced trace(s)\n" !failures;
    exit 1
  end;
  print_endline "tracelint: all traces balanced"
