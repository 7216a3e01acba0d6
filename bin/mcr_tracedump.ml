(* mcr-tracedump: run a full live update with the observability sink
   enabled and export the event trace — Chrome trace-event JSON (load it
   in Perfetto / chrome://tracing) and/or a plain-text timeline — plus the
   manager's metrics snapshot.

     dune exec bin/mcr_tracedump.exe -- --server nginx --out nginx.trace.json
     dune exec bin/mcr_tracedump.exe -- --server httpd --format timeline *)

module K = Mcr_simos.Kernel
module Manager = Mcr_core.Manager
module Ctl = Mcr_core.Ctl
module Testbed = Mcr_workloads.Testbed
module Holders = Mcr_workloads.Holders
module Loadgen = Mcr_workloads.Loadgen
module Trace = Mcr_obs.Trace
module Metrics = Mcr_obs.Metrics
module Export = Mcr_obs.Export

let server_of_string = function
  | "nginx" -> Ok Testbed.Nginx
  | "httpd" -> Ok Testbed.Httpd
  | "vsftpd" -> Ok Testbed.Vsftpd
  | "sshd" -> Ok Testbed.Sshd
  | s -> Error (`Msg ("unknown server " ^ s ^ " (nginx|httpd|vsftpd|sshd)"))

type format = Chrome | Timeline | Both

let format_of_string = function
  | "chrome" -> Ok Chrome
  | "timeline" -> Ok Timeline
  | "both" -> Ok Both
  | s -> Error (`Msg ("unknown format " ^ s ^ " (chrome|timeline|both)"))

let write_file path data =
  let dir = Filename.dirname path in
  if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
  let oc = open_out_bin path in
  output_string oc data;
  close_out oc;
  Printf.printf "wrote %s (%d bytes)\n" path (String.length data)

let run server requests conns openloop out format =
  let kernel = K.create () in
  let trace = Trace.create ~clock:(fun () -> K.clock_ns kernel) () in
  Printf.printf "launching %s with tracing enabled...\n%!" (Testbed.name server);
  let m = Testbed.launch ~trace kernel server in
  ignore (Testbed.benchmark kernel server ~scale:(max 1 (100_000 / requests)) ());
  (* Open-loop clients share the update pipeline's trace sink, so each
     request.* span lands on the same timeline as the update.* spans it
     overlaps — a stalled request visibly brackets the window segment
     that held it. Same Chrome trace-event schema, one more category. *)
  let lg =
    if openloop > 0 then
      Some (Loadgen.start kernel ~server ~trace ~rate:20_000 ~requests:openloop ())
    else None
  in
  let holders =
    if conns > 0 then Some (Testbed.open_holders kernel server ~n:conns) else None
  in
  Printf.printf "updating %s -> %s...\n%!"
    (Manager.version m).Mcr_program.Progdef.version_tag
    (Testbed.final_version server).Mcr_program.Progdef.version_tag;
  let reply = ref None in
  Ctl.exec kernel ~path:(Manager.ctl_path m) Ctl.Frame.Update
    ~on_result:(fun r ->
      reply := Some (match r with Ok "" -> "OK" | Ok p -> p | Error e -> Format.asprintf "%a" Ctl.pp_error e))
    ();
  ignore
    (K.run_until kernel
       ~max_ns:(K.clock_ns kernel + 10_000_000_000)
       (fun () -> Manager.update_requested m));
  let m2, report = Manager.update m (Testbed.final_version server) in
  ignore
    (K.run_until kernel ~max_ns:(K.clock_ns kernel + 10_000_000_000) (fun () -> !reply <> None));
  (match holders with
  | Some h ->
      Holders.close_all h;
      ignore
        (K.run_until kernel
           ~max_ns:(K.clock_ns kernel + 60_000_000_000)
           (fun () -> Holders.all_done h))
  | None -> ());
  Option.iter (fun lg -> Loadgen.drive lg) lg;
  Printf.printf "update %s; %d events traced (%d dropped)\n"
    (if report.Manager.success then "committed" else "rolled back")
    (Trace.emitted trace) (Trace.dropped trace);
  let base =
    match out with
    | Some p -> p
    | None ->
        let slug =
          match server with
          | Testbed.Nginx -> "nginx"
          | Testbed.Httpd -> "httpd"
          | Testbed.Vsftpd -> "vsftpd"
          | Testbed.Sshd -> "sshd"
        in
        slug ^ ".trace"
  in
  (match format with
  | Chrome -> write_file (base ^ ".json") (Export.chrome_json trace)
  | Timeline -> write_file (base ^ ".txt") (Export.timeline trace)
  | Both ->
      write_file (base ^ ".json") (Export.chrome_json trace);
      write_file (base ^ ".txt") (Export.timeline trace));
  print_string (Metrics.render (Manager.metrics_snapshot m2));
  if not report.Manager.success then exit 1

open Cmdliner

let server_conv =
  Arg.conv ~docv:"SERVER" (server_of_string, fun ppf s -> Fmt.string ppf (Testbed.name s))

let format_conv =
  Arg.conv ~docv:"FORMAT"
    ( format_of_string,
      fun ppf f ->
        Fmt.string ppf (match f with Chrome -> "chrome" | Timeline -> "timeline" | Both -> "both")
    )

let server =
  Arg.(value & opt server_conv Testbed.Nginx & info [ "server"; "s" ] ~doc:"Server to run.")

let requests =
  Arg.(value & opt int 200 & info [ "requests"; "n" ] ~doc:"Benchmark requests before update.")

let conns =
  Arg.(value & opt int 4 & info [ "conns"; "c" ] ~doc:"Long-lived connections held across the update.")

let openloop =
  Arg.(
    value & opt int 0
    & info [ "open-loop" ]
        ~doc:
          "Additionally run this many open-loop Poisson clients through the update; \
           their $(b,request.*) spans share the trace timeline with the update \
           pipeline's spans.")

let out =
  Arg.(value & opt (some string) None & info [ "out"; "o" ] ~doc:"Output path base (extension added per format).")

let format =
  Arg.(value & opt format_conv Chrome & info [ "format"; "f" ] ~doc:"Export format: chrome, timeline, or both.")

let cmd =
  Cmd.v
    (Cmd.info "mcr-tracedump" ~doc:"Export an MCR live-update event trace")
    Term.(const run $ server $ requests $ conns $ openloop $ out $ format)

let () = exit (Cmd.eval cmd)
