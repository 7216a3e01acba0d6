(* The four workloads, and one repetition of any of them.

   Every workload is a seeded open-loop client stream served by one MCR
   instance while the instance is updated or checkpointed. The workloads
   differ in which layer does the host-side work:

   - web-openloop: nginx, thousands of short-lived client processes and
     one pre-copy update. Host time goes to kernel scheduling (simos) and
     the load driver; the state transferred is small.
   - session-openloop: vsftpd with held logged-in sessions, a fork per
     connection and one remap update. The process table and per-process
     address spaces dominate host time and memory.
   - bulk-transfer: Apache httpd holding large per-connection buffers,
     six successive updates with four transfer workers. Host time goes to
     tracing and copying the state (trace, vmem); the client stream is
     light, so the kernel is nearly idle.
   - checkpoint: the bulk-transfer state saved to an image file, read
     back and restored into a fresh kernel. The image layer does the work.

   A trace/transfer optimisation should show on bulk-transfer and not on
   web-openloop; a kernel optimisation the other way round.

   Open-loop latency is measured from each request's scheduled arrival
   (the load driver's rule), so an update window is charged to every
   request it delayed. The seed drives the arrival stream only. *)

module K = Mcr_simos.Kernel
module P = Mcr_program.Progdef
module Manager = Mcr_core.Manager
module Policy = Mcr_core.Policy
module Testbed = Mcr_workloads.Testbed
module Loadgen = Mcr_workloads.Loadgen
module Bench_result = Mcr_workloads.Bench_result
module Image = Mcr_image.Image
module Aspace = Mcr_vmem.Aspace
module Flight = Mcr_obs.Flight
module Client_impact = Mcr_obs.Client_impact
module Trace = Mcr_obs.Trace
module Transfer = Mcr_trace.Transfer
module Nginx = Mcr_servers.Nginx_sim
module Httpd = Mcr_servers.Httpd_sim
module Vsftpd = Mcr_servers.Vsftpd_sim

(* ------------------------------------------------------------------ *)
(* Sizes. The fixed rates sit below saturation: nginx p50 stays near
   0.08 ms at 20k req/s and vsftpd near 0.25 ms at 3k req/s. *)

let ms = 1_000_000

(* Virtual time between the first scheduled arrival and an update (or
   save) request. *)
let lead_ns = 100 * ms

(* nginx region-allocates per accepted connection: the open-loop pile-up
   of web-openloop needs room beyond the default heap. *)
let nginx_heap_words = 8 * 1024 * 1024

(* vsftpd forks a session process per connection and every fork copies
   the master's heap, so a smaller heap keeps the thousands of session
   address spaces in bounds. The simulated timings do not depend on it. *)
let vsftpd_heap_words = 16 * 1024

let web_rate = 20_000
let web_requests = 6_000
let session_rate = 3_000
let session_requests = 2_000
let sessions = 50

(* bulk-transfer and checkpoint run Apache httpd: [held] connections each
   carrying a [ConnBufferWords] read buffer, 2.1 M live words. Every
   client connection gets such a buffer too, so the stream through
   bulk-transfer is slow enough that the connections parked in an update
   window fit in the heap beside the held ones. (nginx is not used here:
   after a base -> final update, a final -> final update that follows an
   open-loop request commits, but nginx then answers with errors.) *)
let held = 64
let held_heap_words = 2 * 1024 * 1024
let held_config = "ServerLimit 2\nThreadsPerChild 2\nConnBufferWords 32768"
let bulk_updates = 6
let bulk_rate = 500
let bulk_requests = 1_000

(* The save pause lasts a few milliseconds; a short, fast stream puts a
   few percent of its requests inside it, so p99 measures the pause. *)
let checkpoint_rate = 15_000
let checkpoint_requests = 1_000
let checkpoint_lead_ns = 33 * ms

(* Closed-loop traffic between updates, as a Testbed.benchmark scale. *)
let warm_scale = 10_000
let between_scale = 2_000

(* Under dedicated-core accounting a client step that straddles the end
   of the copy window runs the clock past it, leaving a residue of a few
   microseconds in the flight record's attribution. The residue is
   reported (core.unattributed_ns); only a larger one fails the run. *)
let concurrent_epsilon_ns = 10_000

(* ------------------------------------------------------------------ *)
(* One repetition's result, passed from the child process to the parent. *)

type sample = {
  setup_s : float;
  wall_s : float;
  peak_rss_mb : float;
  virt : (string * float) list;  (* the virtual-clock end-to-end metrics *)
  layers : (string * float) list;
  attempted : int;
  failed : int;
  violations : string list;
  self_time : (string * int * int * int * float) list;  (* Span.self_by_layer *)
  files : string list;  (* traced run: the Chrome traces written *)
}

type ctx = {
  seed : int;
  traced : bool;
  out_dir : string;  (* traces and the checkpoint image *)
  mutable attempted : int;
  mutable failed : int;
  mutable violations : string list;
  mutable kernel : K.t option;  (* the kernel the stream runs on *)
  mutable manager : Manager.t option;  (* the surviving instance *)
  mutable stream : Loadgen.t option;
  mutable reports : Manager.report list;  (* newest first *)
  mutable shared_frames : int;
  mutable unattributed_ns : int;
  mutable save_pause_ns : int;  (* checkpoint *)
  mutable restore_pause_ns : int;
  mutable image : (Image.t * int) option;  (* checkpoint: image and file bytes *)
  mutable sinks : (string * Trace.t) list;  (* the program's virtual-clock sinks *)
}

let violate c fmt = Printf.ksprintf (fun m -> c.violations <- m :: c.violations) fmt

let failed c n fmt =
  Printf.ksprintf
    (fun m ->
      c.failed <- c.failed + n;
      c.violations <- m :: c.violations)
    fmt

let program_sink c k name =
  if not c.traced then None
  else begin
    let t = Trace.create ~clock:(fun () -> K.clock_ns k) () in
    c.sinks <- (name, t) :: c.sinks;
    Some t
  end

(* ------------------------------------------------------------------ *)
(* The calls into the layers, each timed from outside. *)

let launch c k ?config ~version server =
  let trace = program_sink c k "mcr" in
  let m =
    Span.time ~k "workloads.launch" (fun () -> Testbed.launch ?trace ?config ~version k server)
  in
  c.kernel <- Some k;
  c.manager <- Some m;
  m

let holders k server ~n =
  ignore (Span.time ~k "workloads.holders" (fun () -> Testbed.open_holders k server ~n))

let stream c k m server ~rate ~requests =
  let trace = program_sink c k "requests" in
  let lg =
    Span.time ~k "workloads.prespawn" (fun () ->
        Loadgen.start k ~server ~seed:c.seed ~metrics:(Manager.metrics m) ?trace ~rate ~requests
          ())
  in
  c.stream <- Some lg;
  lg

let run_for k ns = Span.time ~k "simos.run_for" (fun () -> K.run_for k ns)
let drain k lg = Span.time ~k "workloads.drive" (fun () -> Loadgen.drive lg)

let traffic c k server ~scale =
  let r = Span.time ~k "workloads.traffic" (fun () -> Testbed.benchmark k server ~scale ()) in
  c.attempted <- c.attempted + r.Bench_result.requests + r.Bench_result.errors;
  if r.Bench_result.errors > 0 || r.Bench_result.requests = 0 then
    failed c r.Bench_result.errors "closed-loop traffic: %d ok, %d errors"
      r.Bench_result.requests r.Bench_result.errors

let live_shared_frames k =
  List.fold_left
    (fun acc p -> if K.alive p then acc + Aspace.shared_frame_count (K.aspace p) else acc)
    0 (K.procs k)

let update c k m ~policy version =
  c.attempted <- c.attempted + 1;
  let m', r = Span.time ~k "core.update" (fun () -> Manager.update m ~policy version) in
  c.reports <- r :: c.reports;
  c.manager <- Some m';
  let n = List.length c.reports in
  if not r.Manager.success then
    failed c 1 "update %d rolled back: %s" n
      (Option.fold ~none:"?" ~some:Mcr_error.to_string r.Manager.failure);
  let residue = abs (Flight.unattributed_ns r.Manager.flight) in
  c.unattributed_ns <- max c.unattributed_ns residue;
  let epsilon = if policy.Policy.concurrent_transfer then concurrent_epsilon_ns else 0 in
  if not (Flight.reconciled ~epsilon r.Manager.flight) then
    violate c "update %d: attribution misses downtime by %d ns" n residue;
  if r.Manager.parked_requests <> r.Manager.resumed_requests + r.Manager.aborted_requests then
    violate c "update %d: parked %d <> resumed %d + aborted %d" n r.Manager.parked_requests
      r.Manager.resumed_requests r.Manager.aborted_requests;
  if r.Manager.aborted_requests > 0 then
    failed c r.Manager.aborted_requests "update %d: %d parked connection(s) aborted" n
      r.Manager.aborted_requests;
  let shared = live_shared_frames k in
  c.shared_frames <- c.shared_frames + shared;
  if shared > 0 then violate c "update %d: %d shared frame(s) outlive the window" n shared;
  m'

(* ------------------------------------------------------------------ *)
(* The workloads. Each sets up and returns its measured phase. *)

let web c =
  let k = K.create () in
  let m = launch c k ~version:(Nginx.base ~heap_words:nginx_heap_words ()) Testbed.Nginx in
  let lg = stream c k m Testbed.Nginx ~rate:web_rate ~requests:web_requests in
  fun () ->
    run_for k lead_ns;
    let policy =
      Manager.policy m |> Policy.with_request_parking true |> Policy.with_concurrent_transfer true
      |> Policy.with_precopy ~max_rounds:6 ~threshold_words:100_000 true
    in
    ignore (update c k m ~policy (Nginx.final ~heap_words:nginx_heap_words ()));
    drain k lg

let session c =
  let k = K.create () in
  let config = "anonymous_enable=NO\nsession_buffer_words 4096" in
  let m =
    launch c k ~config ~version:(Vsftpd.base ~heap_words:vsftpd_heap_words ()) Testbed.Vsftpd
  in
  (* every RETR would otherwise move the default 1 MiB payload *)
  K.fs_write k ~path:(Vsftpd.ftp_root ^ "/big.bin") (String.make 1024 'f');
  holders k Testbed.Vsftpd ~n:sessions;
  let lg = stream c k m Testbed.Vsftpd ~rate:session_rate ~requests:session_requests in
  fun () ->
    run_for k lead_ns;
    let policy =
      Manager.policy m |> Policy.with_transfer_remap true |> Policy.with_request_parking true
      |> Policy.with_concurrent_transfer true
    in
    ignore (update c k m ~policy (Vsftpd.final ~heap_words:vsftpd_heap_words ()));
    drain k lg

(* The httpd instance bulk-transfer and checkpoint share: warmed up, then
   holding [held] connections with their buffers. *)
let held_pair () =
  (Httpd.base ~heap_words:held_heap_words (), Httpd.final ~heap_words:held_heap_words ())

let held_httpd c k =
  let base, _ = held_pair () in
  let m = launch c k ~config:held_config ~version:base Testbed.Httpd in
  traffic c k Testbed.Httpd ~scale:warm_scale;
  holders k Testbed.Httpd ~n:held;
  m

let bulk c =
  let k = K.create () in
  let m = held_httpd c k in
  let _, final = held_pair () in
  let lg = stream c k m Testbed.Httpd ~rate:bulk_rate ~requests:bulk_requests in
  fun () ->
    (* base -> final, then final -> final *)
    let m = ref m in
    for i = 1 to bulk_updates do
      if i > 1 then traffic c k Testbed.Httpd ~scale:between_scale;
      run_for k lead_ns;
      let policy =
        Manager.policy !m |> Policy.with_transfer_workers 4 |> Policy.with_request_parking true
      in
      m := update c k !m ~policy final
    done;
    drain k lg

let checkpoint c =
  let k = K.create () in
  let m = held_httpd c k in
  let lg = stream c k m Testbed.Httpd ~rate:checkpoint_rate ~requests:checkpoint_requests in
  let path = Filename.concat c.out_dir (Printf.sprintf "checkpoint-%d.mcrimg" (Unix.getpid ())) in
  fun () ->
    run_for k checkpoint_lead_ns;
    c.attempted <- c.attempted + 3;
    let v0 = K.clock_ns k in
    let saved = Span.time ~k "image.save" (fun () -> Manager.save_image m ~path) in
    c.save_pause_ns <- K.clock_ns k - v0;
    drain k lg;
    match saved with
    | Error e -> failed c 3 "save: %s" e
    | Ok img -> (
        match Span.time "image.read" (fun () -> Image.read ~path) with
        | Error e -> failed c 2 "read back: %s" (Image.error_to_string e)
        | Ok back -> (
            let bytes = (Unix.stat path).Unix.st_size in
            Sys.remove path;
            c.image <- Some (back, bytes);
            if Image.fingerprint back <> Image.fingerprint img then
              violate c "image read back with fingerprint %d, captured %d"
                (Image.fingerprint back) (Image.fingerprint img);
            (* restore: relaunch the same version in a fresh kernel, then
               install the image over it (install verifies the fingerprint) *)
            let k2 = K.create () in
            let base, _ = held_pair () in
            let m2 =
              Span.time ~k:k2 "workloads.launch" (fun () ->
                  Testbed.launch ~config:held_config ~version:base k2 Testbed.Httpd)
            in
            c.manager <- Some m2;
            let v1 = K.clock_ns k2 in
            match Span.time ~k:k2 "image.restore" (fun () -> Manager.restore_image m2 back) with
            | Error e -> failed c 1 "restore: %s" e
            | Ok _ ->
                c.restore_pause_ns <- K.clock_ns k2 - v1;
                traffic c k2 Testbed.Httpd ~scale:between_scale))

let all =
  [
    ("web-openloop", web);
    ("session-openloop", session);
    ("bulk-transfer", bulk);
    ("checkpoint", checkpoint);
  ]

let names = List.map fst all

(* ------------------------------------------------------------------ *)
(* After the measured phase: correctness checks and metrics. *)

let check_stream c lg =
  let total = Loadgen.total lg and issued = Loadgen.issued lg in
  let completed = Loadgen.completed lg and errored = Loadgen.errored lg in
  c.attempted <- c.attempted + total;
  if completed < total then
    failed c (total - completed) "stream: %d of %d requests completed (%d issued, %d errored)"
      completed total issued errored
  else if completed + errored <> issued then
    violate c "stream: completed %d + errored %d <> issued %d" completed errored issued;
  (* a p50 above 1 ms means the backlog grows at the fixed rate *)
  let p50 = Loadgen.exact_percentile lg 50. in
  if p50 >= ms then violate c "stream: p50 %.3f ms is not under 1 ms" (float_of_int p50 /. 1e6)

let msf ns = float_of_int ns /. 1e6

(* The update with the longest downtime: the one the end-to-end metrics
   report and the per-layer segments explain. *)
let worst c =
  List.fold_left
    (fun acc (r : Manager.report) ->
      match acc with
      | Some (w : Manager.report) when w.Manager.downtime_ns >= r.Manager.downtime_ns -> acc
      | _ -> Some r)
    None c.reports

let virtual_metrics c lg =
  let downtime_ns, update_ns =
    match worst c with
    | Some r ->
        ( r.Manager.downtime_ns,
          List.fold_left (fun acc (r : Manager.report) -> max acc r.Manager.total_ns) 0 c.reports )
    | None -> (c.save_pause_ns, c.save_pause_ns + c.restore_pause_ns)
  in
  [
    ("downtime_ms", msf downtime_ns);
    ("update_ms", msf update_ns);
    ("client_p99_ms", msf (Loadgen.exact_percentile lg 99.));
  ]

let layer_metrics c k m lg =
  let fi = float_of_int in
  let procs = K.procs k in
  let n_procs = List.length procs in
  let drive_s = Span.seconds "simos.run_for" +. Span.seconds "workloads.drive" in
  let parking = K.parking_stats k in
  let worst = worst c in
  (* a figure of the worst update; 0 in checkpoint, which updates nothing *)
  let of_worst f = match worst with Some r -> f r | None -> 0. in
  let report_ms f = of_worst (fun r -> msf (f r)) in
  let attr f = report_ms (fun r -> f r.Manager.flight.Flight.f_attribution) in
  let sum f =
    of_worst (fun r -> fi (List.fold_left (fun acc (_, o) -> acc + f o) 0 r.Manager.transfers))
  in
  let transferred = sum (fun o -> o.Transfer.transferred_words) in
  let remapped = sum (fun o -> o.Transfer.remapped_words) in
  let staged =
    of_worst (fun r ->
        fi
          (List.fold_left
             (fun acc (rd : Flight.round) -> acc + rd.Flight.r_words)
             0 r.Manager.flight.Flight.f_rounds))
  in
  let reqs_json = Span.time "obs.requests_json" (fun () -> Loadgen.requests_json lg) in
  let stalled =
    match (worst, Client_impact.reqs_of_json reqs_json) with
    | Some r, Ok (_, reqs) -> fi (Client_impact.analyze r.Manager.flight reqs).Client_impact.ci_stalled
    | None, _ -> 0.
    | Some _, Error e ->
        violate c "request stamps do not round-trip: %s" e;
        0.
  in
  List.iter
    (fun (r : Manager.report) ->
      ignore (Span.time "obs.flight_json" (fun () -> Flight.to_json r.Manager.flight)))
    c.reports;
  let records = Loadgen.records lg in
  let refused = List.length (List.filter (fun r -> r.Loadgen.rq_retries > 0) records) in
  let mem = Manager.memory_stats m in
  let image_bytes, image_words, image_procs =
    match c.image with
    | Some (img, bytes) -> (fi bytes, fi (Image.total_words img), fi (Image.proc_count img))
    | None -> (0., 0., 0.)
  in
  let ratio a b = if b > 0. then a /. b else 0. in
  [
    ("simos.drive_s", drive_s);
    ("simos.procs", fi n_procs);
    ("simos.procs_alive", fi (List.length (List.filter K.alive procs)));
    ("simos.us_per_proc", ratio (drive_s *. 1e6) (fi n_procs));
    ("simos.busy_frac", 1. -. ratio (fi (K.idle_ns k)) (fi (K.clock_ns k)));
    ("simos.parked", fi parking.K.parked);
    ("simos.aborted", fi parking.K.aborted);
    ("workloads.launch_s", Span.seconds "workloads.launch");
    ("workloads.prespawn_s", Span.seconds "workloads.prespawn");
    ("workloads.holders_s", Span.seconds "workloads.holders");
    ("workloads.traffic_s", Span.seconds "workloads.traffic");
    ("workloads.drive_alloc_mw", Span.mwords "workloads.drive" +. Span.mwords "simos.run_for");
    ("workloads.peak_in_flight", fi (Loadgen.peak_in_flight lg));
    ("workloads.stalled", stalled);
    ("workloads.latency_samples", fi (List.length records));
    ("workloads.client_p50_ms", msf (Loadgen.exact_percentile lg 50.));
    ("workloads.client_p999_ms", msf (Loadgen.exact_percentile lg 99.9));
    ("workloads.refused_frac", ratio (fi refused) (fi (Loadgen.issued lg)));
    ("workloads.failed_frac", ratio (fi c.failed) (fi c.attempted));
    ("core.update_s", Span.seconds "core.update");
    ("core.update_alloc_mw", Span.mwords "core.update");
    ("core.quiesce_ms", report_ms (fun r -> r.Manager.quiesce_ns));
    ("core.control_migration_ms", report_ms (fun r -> r.Manager.control_migration_ns));
    ("core.state_transfer_ms", report_ms (fun r -> r.Manager.state_transfer_ns));
    ("core.channel_ms", attr (fun a -> a.Flight.a_channel_ns));
    ("core.handlers_ms", attr (fun a -> a.Flight.a_handlers_ns));
    ("core.teardown_ms", attr (fun a -> a.Flight.a_teardown_ns));
    ( "core.rollbacks",
      fi (List.length (List.filter (fun (r : Manager.report) -> not r.Manager.success) c.reports))
    );
    ("core.unattributed_ns", fi c.unattributed_ns);
    ( "quiesce.window_ms",
      match worst with
      | Some _ -> attr (fun a -> a.Flight.a_quiesce_ns)
      | None -> msf c.save_pause_ns );
    ("replay.restart_ms", attr (fun a -> a.Flight.a_restart_ns));
    ("replay.replayed_calls", of_worst (fun r -> fi r.Manager.replayed_calls));
    ("program.relink_ms", attr (fun a -> a.Flight.a_relink_ns));
    ("trace.trace_ms", attr (fun a -> a.Flight.a_trace_ns));
    ("trace.copy_ms", attr (fun a -> a.Flight.a_copy_ns));
    ("trace.spawn_join_ms", attr (fun a -> a.Flight.a_spawn_join_ns));
    ("trace.live_words", sum (fun o -> o.Transfer.live_words));
    ("trace.copied_words", transferred -. remapped);
    ("trace.remapped_words", remapped);
    ("trace.hashed_words", sum (fun o -> o.Transfer.hashed_words));
    ("trace.skipped_clean_words", sum (fun o -> o.Transfer.skipped_clean_words));
    ("trace.remap_ratio", ratio remapped transferred);
    ("trace.precopy_reuse", ratio (sum (fun o -> o.Transfer.precopied_words)) staged);
    ("vmem.resident_mb", fi mem.Manager.resident_bytes /. 1e6);
    ("vmem.shared_frames", fi c.shared_frames);
    ("alloc.mcr_mb", fi mem.Manager.mcr_bytes /. 1e6);
    ("image.save_s", Span.seconds "image.save");
    ("image.read_s", Span.seconds "image.read");
    ("image.restore_s", Span.seconds "image.restore");
    ("image.mb", image_bytes /. 1e6);
    ("image.mb_per_s", ratio (image_bytes /. 1e6) (Span.seconds "image.save"));
    ("image.words", image_words);
    ("image.procs", image_procs);
    ("obs.flight_json_s", Span.seconds "obs.flight_json");
    ("obs.requests_json_s", Span.seconds "obs.requests_json");
  ]

(* Only the traced run pays for these whole-state passes. *)
let traced_metrics c m ~host ~name =
  let prog = (Manager.version m).P.prog in
  ignore (Span.time "trace.analyze" (fun () -> Manager.trace_statistics m));
  List.iter
    (fun (im : P.image) ->
      ignore
        (Span.time "vmem.fingerprint" (fun () -> Image.aspace_fingerprint ~prog im.P.i_aspace)))
    (Manager.images m);
  Option.iter
    (fun (img, _) -> ignore (Span.time "image.encode" (fun () -> Image.encode img)))
    c.image;
  let sinks = ("host", host) :: List.rev c.sinks in
  let files =
    List.map
      (fun (sink, t) ->
        let path = Filename.concat c.out_dir (Printf.sprintf "%s.%s.json" name sink) in
        let oc = open_out_bin path in
        output_string oc (Mcr_obs.Export.chrome_json t);
        close_out oc;
        path)
      sinks
  in
  let count f = float_of_int (List.fold_left (fun acc (_, t) -> acc + f t) 0 sinks) in
  ( [
      ("trace.analyze_s", Span.seconds "trace.analyze");
      ("vmem.fingerprint_s", Span.seconds "vmem.fingerprint");
      ("image.encode_s", Span.seconds "image.encode");
      ("obs.trace_events", count Trace.emitted);
      ("obs.trace_dropped", count Trace.dropped);
    ],
    files )

let traced_only =
  [ "trace.analyze_s"; "vmem.fingerprint_s"; "image.encode_s"; "obs.trace_events";
    "obs.trace_dropped" ]

(* VmHWM of this process, in MB. *)
let peak_rss_mb () =
  let ic = open_in "/proc/self/status" in
  let rec scan () =
    match input_line ic with
    | line when String.starts_with ~prefix:"VmHWM:" line ->
        Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d kB" (fun kb ->
            float_of_int kb *. 1024. /. 1e6)
    | _ -> scan ()
    | exception End_of_file -> 0.
  in
  Fun.protect ~finally:(fun () -> close_in ic) scan

(* One repetition of workload [name] in this process. *)
let run_rep name ~seed ~traced ~out_dir =
  let setup = List.assoc name all in
  let c =
    {
      seed; traced; out_dir; attempted = 0; failed = 0; violations = []; kernel = None; manager = None;
      stream = None; reports = []; shared_frames = 0; unattributed_ns = 0; save_pause_ns = 0;
      restore_pause_ns = 0; image = None; sinks = [];
    }
  in
  let host = if traced then Some (Span.enable_sink ()) else None in
  let t0 = Span.now_ns () in
  let measured = setup c in
  let t1 = Span.now_ns () in
  measured ();
  let t2 = Span.now_ns () in
  let k, m, lg =
    match (c.kernel, c.manager, c.stream) with
    | Some k, Some m, Some lg -> (k, m, lg)
    | _ -> invalid_arg "Workload.run_rep: the workload set up no instance or stream"
  in
  check_stream c lg;
  let layers = layer_metrics c k m lg in
  let extra, files =
    match host with
    | Some host -> traced_metrics c m ~host ~name
    | None -> (List.map (fun n -> (n, 0.)) traced_only, [])
  in
  {
    setup_s = float_of_int (t1 - t0) /. 1e9;
    wall_s = float_of_int (t2 - t1) /. 1e9;
    peak_rss_mb = peak_rss_mb ();
    virt = virtual_metrics c lg;
    layers = layers @ extra;
    attempted = c.attempted;
    failed = c.failed;
    violations = List.rev c.violations;
    self_time = Span.self_by_layer ();
    files;
  }
