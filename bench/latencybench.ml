(* The client-perceived latency experiment: what does a live update cost
   the clients, at the tail?

   For each evaluated server an open-loop Poisson driver
   ({!Mcr_workloads.Loadgen}) schedules an arrival stream whose span
   brackets a live update, twice with identical preparation and seed —
   differing only in {!Mcr_core.Policy.t.request_parking}. Both runs
   use {!Mcr_core.Policy.t.concurrent_transfer} (the copy occupies a
   dedicated core), so clients — stand-ins for remote machines — stay
   live through the window and their arrival/backoff timers fire inside
   it. That is the regime where the two policies genuinely diverge:

   - parking off (the baseline): connections arriving once the window
     has filled the accept backlog are refused; the clients retry on an
     exponential backoff, so the tail is inflated by the backoff
     quantization (a refused client sleeps past the window's end by up
     to its whole last interval) and by the post-window refusal
     lottery of the returning herd;
   - parking on: the manager parks the listeners before quiescence
     (after a short drain), arriving connections complete their
     handshake into the parked SYN queue, and unparking on commit or
     rollback releases them FIFO into the survivor's backlog — no
     refusals, no retry storm, tail = window + queue-drain position.

   Because the driver is open-loop, latency is measured from the
   *scheduled* arrival (coordinated omission charged, not hidden), so
   the p99.9 comparison is exactly the client fleet's view. The run
   fails (exit 1) if any request is lost (issued <> completed+errored,
   or errors with parking on), if a parked connection is stranded
   (parked <> resumed+aborted), if the full-mode stream does not sustain
   >= 10k concurrent in-flight requests, or if parking does not
   strictly improve p99.9 on every server.

   $MCR_LATENCY_JSON: write every cell as JSON (the CI workflow uploads
   it; the committed BENCH_latency.json baseline is this file from a
   smoke run, and [family] lets `bench check` re-measure every cell
   against it, gating the p99/p99.9 tail and request conservation). Next to it,
   per-cell post-mortem inputs are dropped: latency_flight_*.json (the
   attempt's flight record) and latency_requests_*.json (per-request
   stamps) — feed both to `mcr-postmortem FLIGHT --requests REQS` for
   the client-impact section. *)

module K = Mcr_simos.Kernel
module Manager = Mcr_core.Manager
module Policy = Mcr_core.Policy
module Testbed = Mcr_workloads.Testbed
module Loadgen = Mcr_workloads.Loadgen
module Stats = Mcr_util.Stats
module C = Bench_cell

let fms = C.fms

(* Arrival rate (req/s of virtual time), chosen so the stream's span
   (requests/rate) brackets the update window: smoke is a steady 30 k/s
   the servers absorb outside the window, so every refusal is
   window-caused; full mode is 250 k/s — far above the service rate —
   so the scheduled-arrival pile through the window exceeds 10k
   concurrent in-flight requests per server. *)
let default_rate ~smoke = if smoke then 30_000 else 250_000
let default_requests ~smoke = if smoke then 1_500 else 12_000
let seed = 11

(* Virtual warm-up between the first scheduled arrival and the update
   request: enough for the accept path to reach steady state, short
   enough that most of the stream lands inside or after the window. *)
let warm_ns = 5_000_000

type cell = {
  parking : bool;
  requests : int;
  rate : int;
  issued : int;
  completed : int;
  errored : int;
  refused_retries : int;
  peak_in_flight : int;
  parked : int;
  resumed : int;
  aborted : int;
  downtime_ns : int;
  summary : Stats.hist_summary;  (* bucketed, as STATS/report render it *)
  p99_ns : int;  (* exact tail percentiles from the per-request records *)
  p999_ns : int;
}

(* The stream leaves thousands of connections alive at once in the web
   servers' single address space, so those get a large-heap version pair
   (nginx in particular region-allocates per accepted connection and
   OOM-kills its worker under load on the default heap). vsftpd and sshd
   fork a session process per connection — each session gets its own
   default heap, and a large per-session heap would only bloat every
   fork. Both sides of the comparison use the same versions; only the
   parking policy differs. *)
let heap_words = 8 * 1024 * 1024

let versions server =
  match (server : Testbed.server) with
  | Testbed.Nginx ->
      (Mcr_servers.Nginx_sim.base ~heap_words (), Mcr_servers.Nginx_sim.final ~heap_words ())
  | Testbed.Httpd ->
      (Mcr_servers.Httpd_sim.base ~heap_words (), Mcr_servers.Httpd_sim.final ~heap_words ())
  | Testbed.Vsftpd -> (Mcr_servers.Vsftpd_sim.base (), Mcr_servers.Vsftpd_sim.final ())
  | Testbed.Sshd -> (Mcr_servers.Sshd_sim.base (), Mcr_servers.Sshd_sim.final ())

(* vsftpd serves a 1 MiB big.bin by default; the latency stream RETRs it
   thousands of times, so shrink it to keep the byte charges from
   swamping the window signal (both sides of the comparison see the
   same file). *)
let shrink_ftp_payload kernel server =
  match (server : Testbed.server) with
  | Testbed.Vsftpd ->
      K.fs_write kernel
        ~path:(Mcr_servers.Vsftpd_sim.ftp_root ^ "/big.bin")
        (String.make 1024 'f')
  | _ -> ()

(* A cell's kernel, manager and stream are garbage once it returns; the
   collection at the start of the next keeps a sweep's peak at its largest
   cell instead of that cell on top of the previous one's garbage. *)
let measure server ~parking ~requests ~rate () =
  Gc.full_major ();
  let kernel = K.create () in
  let base_version, final_version = versions server in
  let m = Testbed.launch ~version:base_version kernel server in
  shrink_ftp_payload kernel server;
  let policy =
    Policy.with_concurrent_transfer true
      (if parking then Policy.with_request_parking true (Manager.policy m)
       else Manager.policy m)
  in
  let lg =
    Loadgen.start kernel ~server ~seed ~metrics:(Manager.metrics m) ~rate ~requests ()
  in
  K.run_for kernel warm_ns;
  let _m2, report = Manager.update m ~policy final_version in
  if not report.Manager.success then begin
    Printf.printf "!! %s update failed (parking=%b): %s\n" (Testbed.name server) parking
      (Option.fold ~none:"?" ~some:Mcr_error.to_string report.Manager.failure);
    exit 1
  end;
  Loadgen.drive lg;
  let cell = {
    parking;
    requests;
    rate;
    issued = Loadgen.issued lg;
    completed = Loadgen.completed lg;
    errored = Loadgen.errored lg;
    refused_retries = Loadgen.refused_retries lg;
    peak_in_flight = Loadgen.peak_in_flight lg;
    parked = report.Manager.parked_requests;
    resumed = report.Manager.resumed_requests;
    aborted = report.Manager.aborted_requests;
    downtime_ns = report.Manager.downtime_ns;
    summary = Loadgen.summary lg;
    p99_ns = Loadgen.exact_percentile lg 99.;
    p999_ns = Loadgen.exact_percentile lg 99.9;
  }
  in
  (* The post-mortem inputs: the attempt's flight record and the driver's
     per-request stamps. `mcr-postmortem latency_flight_X.json --requests
     latency_requests_X.json` names the waterfall segment each stalled
     request was held in. *)
  (cell, Mcr_obs.Flight.to_json report.Manager.flight, Loadgen.requests_json lg)

(* Conservation: the driver and the kernel must agree that nothing was
   lost — every issued request completed or errored, and every parked
   connection was resumed or aborted. *)
let conservation_violations server c =
  let v = ref [] in
  if c.issued <> c.requests then
    v := Printf.sprintf "issued %d <> scheduled %d" c.issued c.requests :: !v;
  if c.completed + c.errored <> c.issued then
    v :=
      Printf.sprintf "completed %d + errored %d <> issued %d" c.completed c.errored
        c.issued
      :: !v;
  if c.errored > 0 then v := Printf.sprintf "%d request(s) errored" c.errored :: !v;
  if c.parked <> c.resumed + c.aborted then
    v :=
      Printf.sprintf "parked %d <> resumed %d + aborted %d" c.parked c.resumed c.aborted
      :: !v;
  if c.aborted > 0 then
    v := Printf.sprintf "%d parked connection(s) aborted" c.aborted :: !v;
  List.iter
    (fun msg -> Printf.printf "!! %s (parking=%b): %s\n" (Testbed.name server) c.parking msg)
    !v;
  List.length !v

(* The cell: server, parking and the stream's size, then what the clients
   saw. The gate fails when the p99/p99.9 tail exceeds the baseline by
   more than the tolerance or any request is lost. *)
let latency =
  C.spec ~sweep:"latency"
    ~key:(fun cell ->
      let ( let* ) = Result.bind in
      let* server = C.server_key cell in
      let* parking = C.bool_key "parking" cell in
      let* requests = C.int_key "requests" cell in
      let* rate = C.int_key "rate" cell in
      Ok (server, parking, requests, rate))
    ~label:(fun (server, parking, _, _) ->
      Printf.sprintf "%s parking=%s" (Testbed.name server) (if parking then "on" else "off"))
    ~measure:
      (List.map (fun (server, parking, requests, rate) ->
           let c, _, _ = measure server ~parking ~requests ~rate () in
           c))
    ~row:(fun (server, _, _, _) c ->
      let s = c.summary in
      [
        C.server server;
        ("parking", `Bool c.parking);
        ("requests", `Int c.requests);
        ("rate", `Int c.rate);
        ("issued", `Int c.issued);
        ("completed", `Int c.completed);
        ("errored", `Int c.errored);
        ("refused_retries", `Int c.refused_retries);
        ("peak_in_flight", `Int c.peak_in_flight);
        ("parked", `Int c.parked);
        ("resumed", `Int c.resumed);
        ("aborted", `Int c.aborted);
        ("downtime_ns", `Int c.downtime_ns);
        ("p50_ns", `Int s.Stats.p50_ns);
        ("p90_ns", `Int s.Stats.p90_ns);
        ("p99_ns", `Int c.p99_ns);
        ("p999_ns", `Int c.p999_ns);
        ("max_ns", `Int s.Stats.max_ns);
      ])
    ~audit:(fun (server, _, _, _) c -> conservation_violations server c)
    [
      C.metric ~what:"p99" "p99_ns" C.Ceiling_pct C.Ms;
      C.metric ~what:"p99.9" "p999_ns" C.Ceiling_pct C.Ms;
    ]

let family = { C.family = "latency"; sweeps = [ C.Sweep latency ]; finish = ignore }

let run ?(smoke = false) () =
  let requests = default_requests ~smoke in
  let rate = default_rate ~smoke in
  let json = ref [] in
  Printf.printf
    "\n== latency%s: open-loop tail through a live update, parking off vs on ==\n"
    (if smoke then " (smoke)" else "");
  Printf.printf "   %d requests at %d req/s against each server (seed %d)\n" requests rate
    seed;
  Printf.printf "%-10s %-7s %8s %8s %8s %8s %9s %7s %7s %8s\n" "server" "parking" "p50"
    "p99" "p99.9" "max(ms)" "peak-infl" "refused" "parked" "downtime";
  let violations = ref 0 in
  let artifact_dir =
    Option.map Filename.dirname (Sys.getenv_opt "MCR_LATENCY_JSON")
  in
  let write_artifact name data =
    Option.iter (fun dir -> ignore (C.write_file ~dir name data)) artifact_dir
  in
  List.iter
    (fun server ->
      let slug =
        match server with
        | Testbed.Nginx -> "nginx"
        | Testbed.Httpd -> "httpd"
        | Testbed.Vsftpd -> "vsftpd"
        | Testbed.Sshd -> "sshd"
      in
      (* a cell's artifacts are written before the next cell runs *)
      let cell parking =
        let c, flight, reqs = measure server ~parking ~requests ~rate () in
        let side = if parking then "on" else "off" in
        write_artifact (Printf.sprintf "latency_flight_%s_%s.json" slug side) flight;
        write_artifact (Printf.sprintf "latency_requests_%s_%s.json" slug side) reqs;
        c
      in
      let off = cell false in
      let on = cell true in
      List.iter
        (fun c ->
          violations := !violations + conservation_violations server c;
          json := C.line latency (server, c.parking, requests, rate) c :: !json;
          let s = c.summary in
          Printf.printf "%-10s %-7s %8s %8s %8s %8s %9d %7d %7d %8s\n"
            (Testbed.name server)
            (if c.parking then "on" else "off")
            (fms s.Stats.p50_ns) (fms c.p99_ns) (fms c.p999_ns) (fms s.Stats.max_ns)
            c.peak_in_flight c.refused_retries c.parked (fms c.downtime_ns))
        [ off; on ];
      (* The full-mode stream must sustain a 10k-connection pile-up. *)
      if (not smoke) && off.peak_in_flight < 10_000 then begin
        incr violations;
        Printf.printf "!! %s: peak in-flight %d below 10000\n" (Testbed.name server)
          off.peak_in_flight
      end;
      (* Parking must pay for itself at the tail (exact percentiles —
         the bucketed histogram can tie genuinely different tails). *)
      if on.p999_ns >= off.p999_ns then begin
        incr violations;
        Printf.printf "!! %s: parking p99.9 %s ms not below no-parking %s ms\n"
          (Testbed.name server) (fms on.p999_ns) (fms off.p999_ns)
      end;
      (* Parking must suppress the retry storm (any residual refusals
         come from the pre-park slice of the burst, not the window). *)
      if on.refused_retries > 0 && on.refused_retries >= off.refused_retries then begin
        incr violations;
        Printf.printf "!! %s: %d refused-connect retries with parking on (>= %d without)\n"
          (Testbed.name server) on.refused_retries off.refused_retries
      end)
    Testbed.all;
  C.write_cells ~family:"latency" ~env:"MCR_LATENCY_JSON" (List.rev !json);
  if !violations > 0 then begin
    Printf.printf "\nlatency: %d violation(s)\n" !violations;
    exit 1
  end;
  Printf.printf
    "\nrequest parking strictly improves p99.9 on all servers, nothing lost, nothing stranded\n"
