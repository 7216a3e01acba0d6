module K = Mcr_simos.Kernel
module S = Mcr_simos.Sysdefs
module P = Mcr_program.Progdef
module Instr = Mcr_program.Instr
module Loader = Mcr_program.Loader
module Barrier = Mcr_quiesce.Barrier
module Record = Mcr_replay.Record
module Replayer = Mcr_replay.Replayer
module Logdefs = Mcr_replay.Logdefs
module Objgraph = Mcr_trace.Objgraph
module Transfer = Mcr_trace.Transfer
module Heap = Mcr_alloc.Heap
module Pool = Mcr_alloc.Pool
module Aspace = Mcr_vmem.Aspace
module Addr = Mcr_vmem.Addr
module Region = Mcr_vmem.Region
module Trace = Mcr_obs.Trace
module Metrics = Mcr_obs.Metrics
module Flight = Mcr_obs.Flight
module Fault = Mcr_fault.Fault
module Err = Mcr_error
module Image = Mcr_image.Image

let reserved_fd_base = 1000
let protocol_version = Frame.protocol_version

(* Coordinator constant of the parallel transfer: relink the program and
   prelink shared libraries for the remapped immutable objects (Section 6). *)
let relink_ns = 25_000_000

type log_source = Recorder of Record.t | Replayed of Replayer.t

(* The manager's metric instruments; the registry itself travels across
   updates, so counters accumulate over the whole manager lineage. *)
type mset = {
  m_updates : Metrics.counter;
  m_commits : Metrics.counter;
  m_rollbacks : Metrics.counter;
  m_replayed : Metrics.counter;
  m_live : Metrics.counter;
  m_replay_conflicts : Metrics.counter;
  m_transfer_conflicts : Metrics.counter;
  m_transfer_pairs : Metrics.counter;
  m_transferred_objects : Metrics.counter;
  m_transferred_words : Metrics.counter;
  m_remapped_words : Metrics.counter;
  m_skipped_clean_words : Metrics.counter;
  m_precopy_bytes : Metrics.counter;
  m_processes : Metrics.gauge;
  m_quiesce_h : Metrics.histogram;
  m_cm_h : Metrics.histogram;
  m_st_h : Metrics.histogram;
  m_total_h : Metrics.histogram;
  m_downtime_h : Metrics.histogram;
  m_precopy_rounds_h : Metrics.histogram;
  m_pair_cost_h : Metrics.histogram;
  m_workers_g : Metrics.gauge;
  m_shard_words_h : Metrics.histogram;
  m_slo_violations : Metrics.counter;
  m_parked : Metrics.counter;
  m_resumed : Metrics.counter;
  m_aborted : Metrics.counter;
}

let make_mset metrics =
  {
    m_updates = Metrics.counter metrics "mcr_updates_total";
    m_commits = Metrics.counter metrics "mcr_update_commits_total";
    m_rollbacks = Metrics.counter metrics "mcr_update_rollbacks_total";
    m_replayed = Metrics.counter metrics "mcr_replayed_calls_total";
    m_live = Metrics.counter metrics "mcr_live_calls_total";
    m_replay_conflicts = Metrics.counter metrics "mcr_replay_conflicts_total";
    m_transfer_conflicts = Metrics.counter metrics "mcr_transfer_conflicts_total";
    m_transfer_pairs = Metrics.counter metrics "mcr_transfer_pairs_total";
    m_transferred_objects = Metrics.counter metrics "mcr_transferred_objects_total";
    m_transferred_words = Metrics.counter metrics "mcr_transferred_words_total";
    m_remapped_words = Metrics.counter metrics "mcr_transfer_remapped_words_total";
    m_skipped_clean_words =
      Metrics.counter metrics "mcr_transfer_skipped_clean_words_total";
    m_precopy_bytes = Metrics.counter metrics "mcr_precopy_bytes_total";
    m_processes = Metrics.gauge metrics "mcr_processes";
    m_quiesce_h = Metrics.histogram metrics "mcr_quiesce_ns";
    m_cm_h = Metrics.histogram metrics "mcr_control_migration_ns";
    m_st_h = Metrics.histogram metrics "mcr_state_transfer_ns";
    m_total_h = Metrics.histogram metrics "mcr_update_total_ns";
    m_downtime_h = Metrics.histogram metrics "mcr_update_downtime_ns";
    m_precopy_rounds_h =
      Metrics.histogram metrics ~bounds:[| 1; 2; 3; 4; 6; 8; 12; 16 |] "mcr_precopy_rounds";
    m_pair_cost_h = Metrics.histogram metrics "mcr_pair_cost_ns";
    m_workers_g = Metrics.gauge metrics "mcr_transfer_workers";
    m_shard_words_h = Metrics.histogram metrics "mcr_transfer_shard_words";
    m_slo_violations = Metrics.counter metrics "mcr_slo_violations_total";
    m_parked = Metrics.counter metrics "mcr_requests_parked_total";
    m_resumed = Metrics.counter metrics "mcr_requests_resumed_total";
    m_aborted = Metrics.counter metrics "mcr_requests_aborted_total";
  }

(* What a manager shares with every manager descended from it by updates:
   the metrics registry (counters accumulate over the whole lineage), the
   trace sink, the control-socket path, the policy mcr-ctl commands adjust
   between updates, and the flight recorder ring (one record per update
   attempt, newest first, capped) so EXPLAIN works against whichever
   incarnation is serving. *)
type lineage = {
  metrics : Metrics.t;
  mset : mset;
  trace : Trace.t option;
  ctl_path : string;
  mutable policy : Policy.t;
  mutable flight_log : Flight.record list;
  mutable flight_seq : int;
}

type t = {
  kernel : K.t;
  instr : Instr.t;
  prog_version : P.version;
  root_image : P.image;
  log_source : log_source;
  (* this incarnation's parked mcr-ctl UPDATE *)
  ctl : Ctl_server.pending;
  lin : lineage;
}

type report = {
  success : bool;
  quiesce_ns : int;
  control_migration_ns : int;
  state_transfer_ns : int;
  total_ns : int;
  downtime_ns : int;
  precopy_rounds : int;
  precopy_bytes : int;
  replayed_calls : int;
  live_calls : int;
  replay_conflicts : Replayer.conflict list;
  transfer_conflicts : Transfer.conflict list;
  transfers : (Logdefs.proc_key * Transfer.outcome) list;
  failure : Err.rollback_reason option;
  metrics : Metrics.snapshot;
  flight : Flight.record;
  parked_requests : int;
  resumed_requests : int;
  aborted_requests : int;
  client_latency : Mcr_util.Stats.hist_summary option;
}

let kernel t = t.kernel
let root_proc t = t.root_image.P.i_proc
let root_image t = t.root_image
let version t = t.prog_version
let tree t = t.root_image.P.i_tree
let images t = P.Tree.images (tree t)
let ctl_path t = t.lin.ctl_path
let update_requested t = Ctl_server.waiting t.ctl
let trace t = t.lin.trace
let metrics (t : t) = t.lin.metrics
let policy t = t.lin.policy
let set_policy t p = t.lin.policy <- p

(* refreshes the process gauge first *)
let snapshot lin tree =
  Metrics.set lin.mset.m_processes (P.Tree.count tree);
  Metrics.snapshot lin.metrics

let metrics_snapshot (t : t) = snapshot t.lin (tree t)
let flight_records t = t.lin.flight_log

(* ------------------------------------------------------------------ *)
(* Process-tree subscriptions *)

let first_quiesce_heap_hook (im : P.image) =
  Heap.end_startup im.P.i_heap;
  (* the startup checkpoint owns the "startup" epoch; pre-copy rounds and
     the transfer own their own ("mcr.precopy", "mcr.transfer") so no
     consumer can clobber another's dirty baseline *)
  Aspace.epoch_reset im.P.i_aspace ~name:"startup"

(* The manager's own subscriptions on a freshly launched tree, made before
   any other: every barrier traces, every startup ends in a checkpoint. *)
let subscribe ?trace (root : P.image) =
  let tree = root.P.i_tree in
  Barrier.set_trace root.P.i_barrier trace;
  P.Tree.on_first_quiesce tree first_quiesce_heap_hook;
  P.Tree.on_fork tree (fun child -> Barrier.set_trace child.P.i_barrier trace)

(* ------------------------------------------------------------------ *)
(* Controller thread (the libmcr side of mcr-ctl) *)

(* SAVE/RESTORE serve persistent checkpoint images over the control
   socket. Dispatch runs on the controller thread of the cooperative
   scheduler, so the capture instant is atomic by construction: no other
   simulated thread can interleave a write between two captured words.
   The image file itself lives on the host filesystem — it must survive
   kernel teardown. [save_image]/[restore_image] are the host-side
   spellings. *)
let save_members kernel policy members ~path =
  if members = [] then Error "program not running"
  else
    Result.map_error Image.error_to_string
      (Image.save kernel ~path ~members ~policy_text:(Policy.to_kv policy) ())

let install_members img members =
  if members = [] then Error "program not running"
  else Result.map_error Image.error_to_string (Image.install img ~members)

let dispatch kernel lin ctl tree =
  let reply = function Ok v -> Frame.ok_inline v | Error e -> Frame.err e in
  function
  | Frame.Update -> Ctl_server.await ctl
  (* metrics snapshots are cheap and never block on the update semaphore *)
  | Frame.Stats -> Frame.ok_payload (Metrics.render (snapshot lin tree))
  (* EXPLAIN serves the flight-recorder ring: 1 is the newest record *)
  | Frame.Explain n -> (
      let n = Option.value n ~default:1 in
      match List.nth_opt lin.flight_log (n - 1) with
      | Some r -> Frame.ok_payload (Flight.to_json r)
      | None ->
          Frame.err
            (if lin.flight_log = [] then "no flight records"
             else Printf.sprintf "no flight record %d" n))
  | Frame.Save path ->
      reply
        (Result.map
           (fun img -> string_of_int (Image.fingerprint img))
           (save_members kernel lin.policy (P.Tree.images tree) ~path))
  | Frame.Restore path ->
      reply
        (Result.bind (Result.map_error Image.error_to_string (Image.read ~path)) (fun img ->
             Result.map
               (fun r ->
                 Printf.sprintf "paired=%d skipped=%d unmatched=%d fingerprint=%d"
                   r.Image.paired_procs r.Image.skipped_saved_procs r.Image.unmatched_live_procs
                   (Image.fingerprint img))
               (install_members img (P.Tree.images tree))))
  | Frame.Policy kv -> (
      match Policy.of_kv ~base:lin.policy kv with
      | Ok p ->
          lin.policy <- p;
          Frame.ok
      | Error e -> Frame.err e)
  | Frame.Fleet _ -> Frame.err "unknown command"

(* Start [proc]'s controller thread on the lineage's socket (Ctl_server
   unlinks a stale socket name before binding). *)
let spawn_ctl kernel (root : P.image) lin =
  let proc = root.P.i_proc in
  let ctl = Ctl_server.pending ~sem:(Printf.sprintf "mcr.ctl.done.%d" (K.pid proc)) in
  let dispatch = dispatch kernel lin ctl root.P.i_tree in
  Ctl_server.spawn kernel proc ~path:lin.ctl_path ~dispatch ();
  ctl

(* ------------------------------------------------------------------ *)
(* Launch *)

let launch kernel ?(instr = Instr.full) ?profiler ?trace ?(policy = Policy.default)
    prog_version =
  let image = P.image_of_proc_exn (Loader.launch kernel ~instr ?profiler prog_version) in
  subscribe ?trace image;
  let recorder = Record.start kernel image in
  let metrics = Metrics.create () in
  let lin =
    {
      metrics;
      mset = make_mset metrics;
      trace;
      ctl_path = "/run/mcr/" ^ prog_version.P.prog ^ ".sock";
      policy;
      flight_log = [];
      flight_seq = 0;
    }
  in
  {
    kernel;
    instr;
    prog_version;
    root_image = image;
    log_source = Recorder recorder;
    ctl = spawn_ctl kernel image lin;
    lin;
  }

let wait_startup t ?(max_ns = 10_000_000_000) () =
  K.run_until t.kernel
    ~max_ns:(K.clock_ns t.kernel + max_ns)
    (fun () -> t.root_image.P.i_startup_complete)

(* ------------------------------------------------------------------ *)
(* Quiescence *)

let request_all t = List.iter (fun (im : P.image) -> Barrier.request im.P.i_barrier) (images t)

let all_quiesced t = P.Tree.for_all (tree t) (fun im -> Barrier.quiesced im.P.i_barrier)

let release_all t =
  List.iter
    (fun (im : P.image) ->
      if Barrier.requested im.P.i_barrier then Barrier.release im.P.i_barrier)
    (images t)

let quiesce_only t =
  let t0 = K.clock_ns t.kernel in
  request_all t;
  let ok = K.run_until t.kernel ~max_ns:(t0 + 1_000_000_000) (fun () -> all_quiesced t) in
  let elapsed = K.clock_ns t.kernel - t0 in
  release_all t;
  if ok then Some elapsed else None

(* ------------------------------------------------------------------ *)
(* Persistent checkpoint images (host-side API; the ctl spellings are
   SAVE/RESTORE, handled by [dispatch]) *)

(* with no live process this quiesces trivially and [f] reports "program
   not running" *)
let with_quiesced t f =
  request_all t;
  let ok =
    K.run_until t.kernel ~max_ns:(K.clock_ns t.kernel + 5_000_000_000) (fun () -> all_quiesced t)
  in
  let r = if ok then f () else Error (Err.to_string Err.Quiescence_did_not_converge) in
  release_all t;
  r

let save_image t ~path =
  with_quiesced t (fun () -> save_members t.kernel t.lin.policy (images t) ~path)

let restore_image t img = with_quiesced t (fun () -> install_members img (images t))

(* ------------------------------------------------------------------ *)
(* Read-only measurement hooks *)

let trace_statistics t =
  Objgraph.sum_stats (List.map (fun im -> (Objgraph.analyze im).Objgraph.stats) (images t))

type memory_stats = {
  app_bytes : int;
  mcr_bytes : int;
  resident_bytes : int;
  tag_metadata_words : int;
  startup_log_entries : int;
  processes : int;
}

(* Footprint model for the MCR runtime, calibrated to the paper's numbers:
   libmcr.so plus per-process runtime structures, a fat record per tagged
   object ("our tags ... are extremely space-inefficient", Section 8), and
   the in-memory startup log. *)
let libmcr_bytes_per_proc = 96 * 1024
let tag_record_bytes = 240
let log_entry_bytes = 256

let memory_stats t =
  let imgs = images t in
  let app =
    List.fold_left (fun acc (im : P.image) -> acc + Aspace.touched_bytes im.P.i_aspace) 0 imgs
  in
  let tags =
    List.fold_left
      (fun acc (im : P.image) ->
        acc
        + Heap.metadata_words im.P.i_heap
        + Heap.metadata_words im.P.i_lib_heap
        + List.fold_left (fun a (_, p) -> a + (Pool.stats p).Pool.tag_words) 0 im.P.i_pools)
      0 imgs
  in
  let log_entries =
    match t.log_source with
    | Recorder r -> Record.entry_count r
    | Replayed r ->
        List.fold_left
          (fun acc (l : Logdefs.plog) -> acc + List.length l.Logdefs.entries)
          0 (Replayer.new_logs r)
  in
  let instrumented = t.instr.Instr.static_instr || t.instr.Instr.dynamic_instr in
  let mcr =
    if not instrumented then 0
    else
      (List.length imgs * libmcr_bytes_per_proc)
      + (tags / 2 * tag_record_bytes) (* 2 in-band words per tagged object *)
      + (log_entries * log_entry_bytes)
  in
  {
    app_bytes = app;
    mcr_bytes = mcr;
    resident_bytes = app + mcr;
    tag_metadata_words = tags;
    startup_log_entries = log_entries;
    processes = List.length imgs;
  }

(* ------------------------------------------------------------------ *)
(* The live update *)

(* The new version, once the restart stage has launched it. *)
type restarted = {
  new_root : P.image;
  new_ctl : Ctl_server.pending;
  rep : Replayer.t;
  logs : Logdefs.plog list;
  (* while set, processes the new version forks start with quiescence
     requested, like its root *)
  in_update : bool ref;
  (* pre-copy staging per process pair, kept for the in-window transfer *)
  sessions : (Logdefs.proc_key, Transfer.precopy) Hashtbl.t;
}

(* One update attempt. Stages fill it in as they run; [finish] reads it
   on every exit. Every stage adds its virtual-clock interval to [stages];
   the flight attribution, the stage histograms and the report's stage
   durations are all read from that one log, so the segments summing to
   the downtime (measured from [window_start]) is a real cross-check, not
   an identity. Recording never touches the clock. *)
type attempt = {
  t : t;
  pol : Policy.t;
  fault : Fault.t option;
  target : P.version;
  t0 : int;
  pstats0 : K.parking_stats;
  (* The service-interruption window opens when quiescence is requested:
     immediately for single-shot updates, only after the pre-copy rounds
     otherwise. Failures before the window opens cost zero downtime. *)
  mutable window_start : int option;
  mutable parked : bool;
  mutable quiesced : bool;  (* the old version reached its quiescent point *)
  mutable stages : (string * int * int) list;  (* (name, start, end), newest first *)
  mutable rounds : Flight.round list;  (* pre-copy rounds, newest first *)
  mutable transfers : (Logdefs.proc_key * Transfer.outcome) list;  (* newest first *)
  (* checkpoint image of the old version at its quiescent point, written
     with the flight record attached once the attempt ends *)
  mutable image : Image.t option;
  mutable restarted : restarted option;
}

type 'a stage_result = ('a, Err.rollback_reason * string) result

let clock a = K.clock_ns a.t.kernel
let downtime a = match a.window_start with Some w -> clock a - w | None -> 0

let deadline_exceeded a =
  match a.pol.Policy.update_deadline_ns with Some d -> clock a - a.t0 >= d | None -> false

let precopy_bytes a =
  List.fold_left (fun acc r -> acc + (r.Flight.r_words * Addr.word_size)) 0 a.rounds

let sum_transfers a f = List.fold_left (fun acc (_, o) -> acc + f o) 0 a.transfers
let transfer_conflicts a =
  List.concat_map (fun (_, o) -> o.Transfer.conflicts) (List.rev a.transfers)
(* stage events go on the old root's pid *)
let instant a name args =
  Trace.instant a.t.lin.trace ~pid:(K.pid (root_proc a.t)) ~cat:"stage" ~args name

let span_begin a ?args name =
  Trace.span_begin a.t.lin.trace ~pid:(K.pid (root_proc a.t)) ~cat:"stage" ?args name

let span_end a ?args name =
  Trace.span_end a.t.lin.trace ~pid:(K.pid (root_proc a.t)) ~cat:"stage" ?args name

let log_interval a name start = a.stages <- (name, start, clock a) :: a.stages

let interval a name =
  List.find_map (fun (n, s, e) -> if n = name then Some (s, e) else None) a.stages

let duration a name = match interval a name with Some (s, e) -> e - s | None -> 0

(* A stage's flight segment: the part of its interval at or after the
   window opened. Quiescence counts only after park/drain, and under
   pre-copy restart+replay (run before the window) counts nothing. *)
let segment a name =
  match (a.window_start, interval a name) with
  | Some w, Some (s, e) -> max 0 (e - max s w)
  | _ -> 0

(* Run [f] inside the named stage span and log its interval; [f] returns
   its value and the span's closing args. *)
let stage a name f =
  span_begin a name;
  let start = clock a in
  let v, args = f () in
  span_end a ~args name;
  log_interval a name start;
  v

(* ---- in-flight request parking. Listeners are parked (new connections
   queue kernel-side instead of getting ECONNREFUSED) just before the
   window opens, the old version gets a bounded drain to finish requests
   it already accepted, and whichever version survives the attempt
   unparks — listener descriptors are shared across versions, so the
   parked queue drains into the survivor's accept backlog. ---- *)
let park a =
  if a.pol.Policy.request_parking then begin
    let n =
      List.fold_left (fun acc (im : P.image) -> acc + K.park_listeners a.t.kernel im.P.i_proc) 0
        (images a.t)
    in
    a.parked <- true;
    instant a "park" [ ("listeners", string_of_int n) ];
    if a.pol.Policy.drain_ns > 0 then K.run_for a.t.kernel a.pol.Policy.drain_ns
  end

let unpark a imgs =
  if a.parked then begin
    let n =
      List.fold_left
        (fun acc (im : P.image) -> acc + K.unpark_listeners a.t.kernel im.P.i_proc)
        0 imgs
    in
    instant a "unpark" [ ("resumed", string_of_int n) ]
  end

(* Clamp a stage's horizon to the whole-update deadline. *)
let bounded a horizon =
  match a.pol.Policy.update_deadline_ns with Some d -> min horizon (a.t0 + d) | None -> horizon

(* Fault injection. [refusal a p]: while [p] stays armed, barriers given
   this refusal decline quiescence. [consume a p]: fire [p] once. *)
let refusal a point =
  match a.fault with
  | Some f when Fault.fires f point -> Some (fun () -> Fault.fires f point)
  | _ -> None

let consume a point = match a.fault with Some f -> Fault.consume f point | None -> false

let set_refusals imgs f =
  List.iter (fun (im : P.image) -> Barrier.set_refusal im.P.i_barrier f) imgs

(* ---- checkpoint: quiesce the running version; the window opens here.
   Shared by both stage orders. Quiescence is measured from the window
   opening, after park and drain. ---- *)
let quiesce a : unit stage_result =
  let t = a.t in
  let ok =
    stage a "quiesce" (fun () ->
        (* park first, then drain: new arrivals queue kernel-side while the
           old version finishes what it already accepted, so the barrier
           finds the accept loops idle instead of mid-request *)
        park a;
        (* fault injection: while armed, old-version threads decline the
           barrier *)
        set_refusals (images t) (refusal a Fault.Quiesce_refusal);
        let wstart = clock a in
        a.window_start <- Some wstart;
        request_all t;
        let max_ns =
          bounded a
            (wstart + Option.value a.pol.Policy.quiesce_deadline_ns ~default:5_000_000_000)
        in
        let ok = K.run_until a.t.kernel ~max_ns (fun () -> all_quiesced t) in
        ignore (consume a Fault.Quiesce_refusal);
        set_refusals (images t) None;
        (ok, [ ("converged", if ok then "yes" else "no") ]))
  in
  a.quiesced <- ok;
  let waited = segment a "quiesce" in
  if ok && a.pol.Policy.image_dir <> None then
    a.image <-
      Some
        (Image.capture a.t.kernel ~members:(images t) ~policy_text:(Policy.to_kv a.pol)
           ~target_tag:a.target.P.version_tag ());
  let failed reason = Error (reason, "quiesce") in
  if deadline_exceeded a then failed Err.Update_deadline_exceeded
  else if not ok then
    failed
      (Barrier.failure_reason
         ~deadline_hit:
           (match a.pol.Policy.quiesce_deadline_ns with Some d -> waited >= d | None -> false))
  else Ok ()

let new_quiesced r =
  let tree = r.new_root.P.i_tree in
  P.Tree.count tree > 0
  && P.Tree.for_all tree (fun im -> im.P.i_startup_complete && Barrier.quiesced im.P.i_barrier)

(* ---- restart: launch the new version under replay. Without pre-copy
   this elapses inside the window. ---- *)
let restart a : restarted stage_result =
  let t = a.t and k = a.t.kernel in
  let r, startup_ok =
    stage a "restart_replay" (fun () ->
        let t1 = clock a in
        let logs =
          match t.log_source with Recorder r -> Record.logs r | Replayed r -> Replayer.new_logs r
        in
        (* global inheritance: every reserved-range descriptor from every
           old process, deduplicated (separability makes numbers globally
           unique). Reserved-range descriptors are created during startup,
           so the set is stable whether or not the old version is still
           serving (pre-copy). *)
        let inherited =
          List.fold_left
            (fun acc (im : P.image) ->
              List.fold_left
                (fun acc fd ->
                  if fd >= reserved_fd_base && not (List.mem_assoc fd acc) then
                    (fd, im.P.i_proc) :: acc
                  else acc)
                acc (K.fds im.P.i_proc))
            [] (images t)
          |> List.rev
        in
        (* fixed-address inheritance: every old process's pinned pages,
           once each, reserved in the new version before its heaps exist *)
        let reserved =
          let seen = Hashtbl.create 16 in
          List.concat_map
            (fun (im : P.image) ->
              List.filter
                (fun (r : Region.t) ->
                  r.Region.name = Objgraph.pin_region
                  && (not (Hashtbl.mem seen r.Region.base))
                  && (Hashtbl.replace seen r.Region.base ();
                      true))
                (Aspace.regions im.P.i_aspace))
            (images t)
        in
        let in_update = ref true in
        let new_root = P.image_of_proc_exn (Loader.launch k ~instr:t.instr ~reserved a.target) in
        let new_proc = new_root.P.i_proc and new_tree = new_root.P.i_tree in
        subscribe ?trace:a.t.lin.trace new_root;
        (* reinitiate quiescence detection before startup runs, so the new
           version is never exposed to external events (Section 5); fault
           injection: new-version threads decline their startup barrier *)
        let hold (img : P.image) =
          Barrier.request img.P.i_barrier;
          Barrier.set_refusal img.P.i_barrier (refusal a Fault.Startup_hang)
        in
        hold new_root;
        P.Tree.on_fork new_tree (fun child -> if !in_update then hold child);
        List.iter
          (fun (fd, src) -> ignore (K.transfer_fd k ~src ~fd ~dst:new_proc ~at:fd))
          inherited;
        let rep =
          Replayer.start k ?trace:a.t.lin.trace ?fault:a.fault new_root ~logs
            ~inherited:(List.map fst inherited)
        in
        (* fault injection: syscall-level failures, scoped to new-version
           processes so the serving old version never sees them *)
        (match a.fault with
        | Some f
          when List.exists
                 (function Fault.Syscall_failure _ -> true | _ -> false)
                 (Fault.armed f) ->
            K.set_fault_hook k
              (Some
                 (fun th call ->
                   match P.image_of_proc (K.thread_proc th) with
                   | Some im when im.P.i_tree == new_tree -> Fault.syscall_result f ~call
                   | Some _ | None -> None))
        | _ -> ());
        (* the new version gets its own controller thread; its replayed
           unix_listen inherits the control socket *)
        let r =
          {
            new_root;
            new_ctl = spawn_ctl k new_root t.lin;
            rep;
            logs;
            in_update;
            sessions = Hashtbl.create 8;
          }
        in
        a.restarted <- Some r;
        (* fault injection: kill the new version mid-startup *)
        if consume a Fault.Startup_crash then begin
          ignore (K.run_until k ~max_ns:(clock a + 50_000_000) (fun () -> false));
          if K.alive new_proc then K.kill_process k new_proc ~status:139
        end;
        let ok =
          K.run_until k ~max_ns:(bounded a (t1 + 10_000_000_000)) (fun () ->
              new_quiesced r || (not (K.alive new_proc)) || Replayer.conflicts rep <> [])
        in
        ignore (consume a Fault.Startup_hang);
        set_refusals (P.Tree.images new_tree) None;
        ((r, ok), []))
  in
  let failed reason = Error (reason, "restart_replay") in
  if not (K.alive r.new_root.P.i_proc) then failed Err.Startup_crashed
  else
    match Replayer.rollback_reason r.rep with
    | Some reason -> failed reason
    | None ->
        if deadline_exceeded a then failed Err.Update_deadline_exceeded
        else if not (startup_ok && new_quiesced r) then failed Err.Startup_not_quiescent
        else Ok r

let old_proc_of_key a r key =
  match key with
  | Logdefs.Root -> Some (root_proc a.t)
  | _ ->
      List.find_map
        (fun (l : Logdefs.plog) ->
          if l.Logdefs.key = key then K.find_proc a.t.kernel l.Logdefs.pid else None)
        r.logs

let image_of_live = function
  | Some p when K.alive p -> Option.map (fun im -> (p, im)) (P.image_of_proc p)
  | _ -> None

let precopy_epoch = "mcr.precopy"

(* ---- pre-copy: speculative tracing + staging rounds, old version still
   serving. Staging is host-side only (no new-version writes), so aborting
   here needs no undo; each round's speculative copy cost elapses on the
   clock concurrently with service. ---- *)
let precopy a r ~on_precopy_round : unit stage_result =
  let dirty_only = a.pol.Policy.dirty_only and workers = a.pol.Policy.transfer_workers in
  let max_rounds = max 1 a.pol.Policy.precopy_max_rounds in
  let threshold = max 0 a.pol.Policy.precopy_threshold_words in
  (* one pair's round: trace the old image and stage its delta; returns
     the pair's critical-path cost and staged words *)
  let stage_pair key =
    match image_of_live (old_proc_of_key a r key) with
    | None -> (0, 0)
    | Some (_, oi) ->
        let aspace = oi.P.i_aspace in
        let since = Aspace.epoch_find aspace ~name:precopy_epoch in
        let analysis = Objgraph.analyze ?trace:a.t.lin.trace ?cost_since:since oi in
        let session =
          match Hashtbl.find_opt r.sessions key with
          | Some s -> s
          | None -> Transfer.precopy_create ()
        in
        Hashtbl.replace r.sessions key session;
        let rs =
          Transfer.precopy_round session ~old_image:oi ~analysis ?since ~dirty_only ~workers ()
        in
        (* staging is host-side (no program ran), so the write sequence is
           unchanged since [since] was read: resetting now is the same mark *)
        Aspace.epoch_reset aspace ~name:precopy_epoch;
        (* within a pair the worker pool shards the round, so the pair pays
           its critical path *)
        (rs.Transfer.round_trace_ns + rs.Transfer.round_cost_ns,
         rs.Transfer.round_words)
  in
  let rec round n =
    if deadline_exceeded a then Error (Err.Update_deadline_exceeded, "precopy")
    else begin
      (* rounds run per pair in parallel, like transfers *)
      let cost, delta =
        List.fold_left
          (fun (cost, delta) (key, _) ->
            let c, w = stage_pair key in
            (max cost c, delta + w))
          (0, 0) (Replayer.pairs r.rep)
      in
      instant a "precopy.round"
        [ ("round", string_of_int n); ("delta_words", string_of_int delta);
          ("cost_ns", string_of_int cost) ];
      a.rounds <- { Flight.r_words = delta; r_cost_ns = cost } :: a.rounds;
      (* the old version keeps serving while the speculative copy elapses —
         this is the whole point *)
      K.run_for a.t.kernel cost;
      Option.iter (fun f -> f n) on_precopy_round;
      if n >= 2 && delta <= threshold then Ok ()
      else if n >= max_rounds then
        if max_rounds = 1 || delta <= threshold then Ok ()
        else Error (Err.Precopy_diverged, "precopy")
      else round (n + 1)
    end
  in
  stage a "precopy" (fun () ->
      (* each attempt is a fresh pre-copy session: forget any epoch a
         previous (rolled-back) attempt left on the old images so round
         one stages the full copy set and pays full tracing *)
      List.iter
        (fun (im : P.image) -> Aspace.epoch_remove im.P.i_aspace ~name:precopy_epoch)
        (images a.t);
      let res = round 1 in
      (res, [ ("rounds", string_of_int (List.length a.rounds)) ]))

(* Tracing and copying each run sharded across the worker pool, so a pair
   pays the max over shards of each phase, not the sum. *)
let pair_cost (o : Transfer.outcome) = o.trace_critical_ns + o.cost_ns

(* One old/new process pair's mutable tracing and transfer. *)
let transfer_pair a r (oldp, oi) (newp, ni) key new_pid =
  let pol = a.pol and mset = a.t.lin.mset in
  let cost_since =
    (* the pre-copy epoch discounts in-window tracing only if this
       attempt's rounds actually paid for it *)
    if Hashtbl.mem r.sessions key then Aspace.epoch_find oi.P.i_aspace ~name:precopy_epoch
    else None
  in
  let analysis = Objgraph.analyze ?trace:a.t.lin.trace ?cost_since ?fault:a.fault oi in
  let o =
    Transfer.run ~old_image:oi ~new_image:ni ~analysis ~dirty_only:pol.Policy.dirty_only
      ~remap:pol.Policy.transfer_remap ?precopy:(Hashtbl.find_opt r.sessions key)
      ~workers:pol.Policy.transfer_workers ?trace:a.t.lin.trace ?fault:a.fault ()
  in
  a.transfers <- (key, o) :: a.transfers;
  Metrics.incr mset.m_transfer_pairs;
  Metrics.incr ~by:o.Transfer.transferred_objects mset.m_transferred_objects;
  Metrics.incr ~by:o.Transfer.transferred_words mset.m_transferred_words;
  Metrics.incr ~by:o.Transfer.remapped_words mset.m_remapped_words;
  Metrics.incr ~by:o.Transfer.skipped_clean_words mset.m_skipped_clean_words;
  Metrics.observe mset.m_pair_cost_h (pair_cost o);
  let pair = Format.asprintf "%a" Logdefs.pp_key key in
  (* pair transfers run in parallel — the charged time is the max across
     pairs, so a begin/end pair cannot represent one; a Complete event
     carries the pair's own duration instead *)
  Trace.complete a.t.lin.trace ~pid:new_pid ~cat:"stage"
    ~args:
      [ ("pair", pair); ("words", string_of_int o.Transfer.transferred_words);
        ("objects", string_of_int o.Transfer.transferred_objects);
        ("workers", string_of_int o.Transfer.workers) ]
    ~dur_ns:(pair_cost o) "transfer.pair";
  Metrics.set mset.m_workers_g o.Transfer.workers;
  if o.Transfer.workers > 1 then
    Array.iteri
      (fun s words ->
        Metrics.observe mset.m_shard_words_h words;
        Trace.complete a.t.lin.trace ~pid:new_pid ~cat:"stage"
          ~args:[ ("pair", pair); ("shard", string_of_int s); ("words", string_of_int words) ]
          ~dur_ns:(o.Transfer.trace_shard_ns.(s) + o.Transfer.shard_cost_ns.(s))
          "transfer.shard")
      o.Transfer.shard_words;
  (* post-startup descriptors (open connections) move to the paired
     process at the same numbers *)
  List.iter
    (fun fd ->
      if fd < reserved_fd_base then
        ignore (K.transfer_fd a.t.kernel ~src:oldp ~fd ~dst:newp ~at:fd))
    (K.fds oldp)

(* The parallel transfer's charge, as the flight segments it bills. The
   critical (costliest, first on ties) pair bounds the parallel phase: its
   tracing, its copy critical path (the max shard) and the worker pool's
   spawn/join overhead on top. The coordinator adds relinking the program
   and prelinking shared libraries for the remapped immutable objects
   (Section 6; prepaid under pre-copy) and per-pair channel setup. *)
let charge a =
  let critical =
    List.fold_left
      (fun best (_, o) ->
        if pair_cost o > Option.fold ~none:0 ~some:pair_cost best then Some o else best)
      None (List.rev a.transfers)
  in
  let trace, cost, copy =
    match critical with
    | None -> (0, 0, 0)
    | Some o ->
        ( o.trace_critical_ns,
          o.cost_ns,
          if o.workers > 1 then Array.fold_left max 0 o.shard_cost_ns else o.cost_ns )
  in
  {
    Flight.zero_attribution with
    a_trace_ns = trace;
    a_copy_ns = copy;
    a_spawn_join_ns = cost - copy;
    a_relink_ns = (if a.pol.Policy.precopy then 0 else relink_ns);
    a_channel_ns = 2_000_000 * List.length a.transfers;
  }

(* ---- restore: mutable tracing, in waves so reinit handlers can re-create
   volatile processes that then get their own transfer ---- *)
let state_transfer a r : unit stage_result =
  let k = a.t.kernel in
  let handlers_ok =
    stage a "state_transfer" (fun () ->
        let done_pairs = Hashtbl.create 8 in
        (* transfer every pair not transferred yet; true if any was *)
        let wave () =
          List.filter (fun (key, _) -> not (Hashtbl.mem done_pairs key)) (Replayer.pairs r.rep)
          |> List.fold_left
               (fun worked (key, new_pid) ->
                 Hashtbl.replace done_pairs key ();
                 match
                   ( image_of_live (old_proc_of_key a r key),
                     image_of_live (K.find_proc k new_pid) )
                 with
                 | Some old_side, Some new_side ->
                     transfer_pair a r old_side new_side key new_pid;
                     true
                 | _ -> worked)
               false
        in
        ignore (wave ());
        (* volatile quiescent states: run the new version's reinit handlers *)
        let handler_threads =
          (* fault injection: a handler that spins forever without
             blocking. Each iteration makes a syscall (so the thread dies
             with its process after rollback) and charges time (so the
             clock reaches the settling horizon) *)
          (if not (consume a Fault.Reinit_hang) then []
           else
             [
               K.spawn_thread k r.new_root.P.i_proc ~name:"reinit:fault-hang" (fun th ->
                   K.push_frame th "reinit:fault-hang";
                   let rec spin () =
                     ignore (K.syscall S.Getpid);
                     K.charge k 50_000_000;
                     spin ()
                   in
                   spin ());
             ])
          @ List.concat_map
              (fun (im : P.image) ->
                List.map
                  (fun (name, run) ->
                    K.spawn_thread k im.P.i_proc ~name:("reinit:" ^ name) (fun th ->
                        K.push_frame th ("reinit:" ^ name);
                        run { P.kernel = k; thread = th; proc = im.P.i_proc; image = im }))
                  (P.reinit_handlers im.P.i_version))
              (P.Tree.images r.new_root.P.i_tree)
        in
        (* wait until every handler has run to completion (or parked) AND
           the processes they re-created have quiesced — the bare
           new_quiesced predicate holds trivially before the handlers get
           scheduled *)
        let handlers_ok =
          K.run_until k ~max_ns:(clock a + 2_000_000_000) (fun () ->
              List.for_all
                (fun th -> (not (K.thread_alive th)) || K.blocked_in th <> None)
                handler_threads
              && new_quiesced r)
        in
        let rec more_waves n =
          if wave () && n < 4 then begin
            ignore (K.run_until k ~max_ns:(clock a + 1_000_000_000) (fun () -> new_quiesced r));
            more_waves (n + 1)
          end
        in
        more_waves 0;
        (* The waves only accumulated charges: the clock so far was
           reinit-handler settling. Dedicated-core accounting keeps client
           machines live through the copy window (the latency bench
           measures their timers firing inside it); single-core, the
           default, freezes them, preserving historical downtime numbers. *)
        let charged = clock a in
        (if a.pol.Policy.concurrent_transfer then K.charge_concurrent else K.charge)
          k
          (Flight.attribution_sum (charge a));
        log_interval a "charge" charged;
        (handlers_ok, [ ("pairs", string_of_int (List.length a.transfers)) ]))
  in
  let failed reason = Error (reason, "state_transfer") in
  if deadline_exceeded a then failed Err.Update_deadline_exceeded
  else if not handlers_ok then failed Err.Reinit_not_quiesced
  else
    match Transfer.rollback_reason (transfer_conflicts a) with
    | Some reason -> failed reason
    | None -> Ok ()

(* Terminate a dying version's images. Exit unmaps each one's address
   space, so the frames it shared with the survivor (zero-copy remap) are
   the survivor's alone and no shared frame outlives the window. *)
let retire k imgs ~status =
  List.iter (fun (im : P.image) -> K.kill_process k im.P.i_proc ~status) imgs

let explain a reason ~stage =
  {
    Flight.e_reason = Err.to_string reason;
    e_stage = stage;
    e_conflicts = Err.conflict_objs reason;
    e_fault =
      Option.bind a.fault (fun f ->
          match Fault.fired f with [] -> None | fired -> Some (String.concat "," fired));
  }

(* The downtime window's segments, read from the stage log. The charge
   bills its segments; the handlers segment is the rest of the transfer
   stage, so a charge that took longer than it billed leaves a residue. *)
let attribution a =
  let billed = if interval a "charge" = None then Flight.zero_attribution else charge a in
  {
    billed with
    Flight.a_quiesce_ns = segment a "quiesce";
    a_restart_ns = segment a "restart_replay";
    a_handlers_ns = segment a "state_transfer" - segment a "charge";
    a_teardown_ns = segment a "teardown";
  }

(* Append the attempt's flight record to the lineage ring, evaluate the
   SLO, and write the captured checkpoint image with the record attached. *)
let record_flight a ~attempt ~prior outcome =
  let lin = a.t.lin and pol = a.pol in
  let seq = lin.flight_seq + 1 in
  lin.flight_seq <- seq;
  let total_ns = clock a - a.t0 and dt = downtime a in
  let slo =
    match (pol.Policy.slo_downtime_ns, pol.Policy.slo_total_ns) with
    | None, None -> None
    | d, u ->
        let within budget v = match budget with Some b -> v <= b | None -> true in
        Some
          {
            Flight.s_downtime_budget_ns = d;
            s_total_budget_ns = u;
            s_downtime_ok = within d dt;
            s_total_ok = within u total_ns;
          }
  in
  (match slo with
  | Some s when Flight.slo_violated s -> Metrics.incr lin.mset.m_slo_violations
  | _ -> ());
  let record =
    {
      Flight.f_seq = seq;
      f_attempt = attempt;
      f_prog = a.t.prog_version.P.prog;
      f_from = a.t.prog_version.P.version_tag;
      f_to = a.target.P.version_tag;
      f_success = Result.is_ok outcome;
      f_start_ns = a.t0;
      f_total_ns = total_ns;
      f_downtime_ns = dt;
      f_precopy = pol.Policy.precopy;
      f_workers = pol.Policy.transfer_workers;
      f_remapped_words = sum_transfers a (fun o -> o.Transfer.remapped_words);
      f_skipped_clean_words = sum_transfers a (fun o -> o.Transfer.skipped_clean_words);
      f_rounds = List.rev a.rounds;
      f_attribution = attribution a;
      f_slo = slo;
      f_explanation =
        (match outcome with
        | Ok () -> None
        | Error (reason, stage) -> Some (explain a reason ~stage));
      f_prior = prior;
    }
  in
  lin.flight_log <- record :: List.filteri (fun i _ -> i < 31) lin.flight_log;
  (match (pol.Policy.image_dir, a.image) with
  | Some dir, Some img -> (
      let img = Image.with_flight_json img (Flight.to_json record) in
      let sanitize c =
        match c with 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '.' | '-' | '_' -> c | _ -> '-'
      in
      let base = String.map sanitize a.t.prog_version.P.prog in
      let path = Filename.concat dir (Printf.sprintf "%s-update-%d.mcrimg" base seq) in
      match Image.write img ~path with
      | Ok () -> instant a "image.write" [ ("path", path) ]
      | Error e ->
          Logs.warn (fun m ->
              m "checkpoint image write to %s failed: %s" path (Image.error_to_string e)))
  | _ -> ());
  record

(* The single exit of every attempt: commit (release the new version,
   terminate the old), rollback (terminate the new version, resume the
   old) or failure before restart (resume the old). Closes the spans,
   answers a pending mcr-ctl UPDATE, folds the attempt into the metrics
   and the flight recorder, and builds the report. *)
let finish a ~attempt ~prior outcome =
  let t = a.t and k = a.t.kernel and mset = a.t.lin.mset in
  let teardown_from = clock a in
  let failure = match outcome with Ok () -> None | Error (reason, _) -> Some reason in
  let survivor =
    match (a.restarted, failure) with
    | Some r, None ->
        span_begin a "commit";
        Ctl_server.respond k t.ctl Frame.ok;
        retire k (images t) ~status:0;
        r.in_update := false;
        K.set_fault_hook k None;
        List.iter
          (fun (im : P.image) ->
            (* the update window is over: close the transfer's dirty epoch
               on the survivor so the next update starts it afresh *)
            Aspace.epoch_reset im.P.i_aspace ~name:"mcr.transfer";
            Barrier.release im.P.i_barrier)
          (P.Tree.images r.new_root.P.i_tree);
        {
          t with
          prog_version = a.target;
          root_image = r.new_root;
          log_source = Replayed r.rep;
          ctl = r.new_ctl;
        }
    | Some r, Some reason ->
        r.in_update := false;
        K.set_fault_hook k None;
        span_begin a ~args:[ ("reason", Err.to_string reason) ] "rollback";
        retire k (P.Tree.images r.new_root.P.i_tree) ~status:1;
        release_all t;
        t
    | None, _ ->
        release_all t;
        t
  in
  (* whichever version survives serves: parked connections drain FIFO into
     its accept backlogs (the listener descriptors are shared across
     versions, so the queue is already its own) *)
  unpark a (images survivor);
  (* this attempt's conservation ledger entry *)
  let s = K.parking_stats k in
  let parked = s.K.parked - a.pstats0.K.parked
  and resumed = s.K.resumed - a.pstats0.K.resumed
  and aborted = s.K.aborted - a.pstats0.K.aborted in
  Metrics.incr ~by:parked mset.m_parked;
  Metrics.incr ~by:resumed mset.m_resumed;
  Metrics.incr ~by:aborted mset.m_aborted;
  (match failure with
  | None -> Metrics.incr mset.m_commits
  | Some reason ->
      Ctl_server.respond k t.ctl (Frame.err (Err.to_string reason));
      Metrics.incr mset.m_rollbacks;
      Metrics.incr (Metrics.counter t.lin.metrics (Err.metric_name reason)));
  let replay_conflicts =
    match (a.restarted, failure) with
    | Some r, Some _ -> Replayer.conflicts r.rep
    | _ -> []
  in
  (* empty on commit: any transfer conflict rolls the attempt back *)
  let transfer_conflicts = transfer_conflicts a in
  let calls f = match a.restarted with Some r -> f r.rep | None -> 0 in
  Metrics.incr ~by:(calls Replayer.replayed_calls) mset.m_replayed;
  Metrics.incr ~by:(calls Replayer.live_calls) mset.m_live;
  Metrics.incr ~by:(List.length replay_conflicts) mset.m_replay_conflicts;
  Metrics.incr ~by:(List.length transfer_conflicts) mset.m_transfer_conflicts;
  Metrics.observe mset.m_total_h (clock a - a.t0);
  Metrics.observe mset.m_downtime_h (downtime a);
  Metrics.observe mset.m_precopy_rounds_h (List.length a.rounds);
  Metrics.incr ~by:(precopy_bytes a) mset.m_precopy_bytes;
  if a.quiesced then Metrics.observe mset.m_quiesce_h (segment a "quiesce");
  List.iter
    (fun (h, name) -> if interval a name <> None then Metrics.observe h (duration a name))
    [ (mset.m_cm_h, "restart_replay"); (mset.m_st_h, "state_transfer") ];
  if Option.is_some a.restarted then
    span_end a (if Option.is_none failure then "commit" else "rollback");
  Option.iter
    (fun reason -> instant a "update.fail" [ ("reason", Err.to_string reason) ])
    failure;
  span_end a "update";
  log_interval a "teardown" teardown_from;
  (* before restart, everything so far was the checkpoint stage *)
  let quiesce_ns =
    if interval a "restart_replay" = None then clock a - a.t0
    else if a.quiesced then segment a "quiesce"
    else 0
  in
  let flight = record_flight a ~attempt ~prior outcome in
  ( survivor,
    {
      success = Option.is_none failure;
      quiesce_ns;
      control_migration_ns = duration a "restart_replay";
      state_transfer_ns = duration a "state_transfer";
      total_ns = clock a - a.t0;
      downtime_ns = downtime a;
      precopy_rounds = List.length a.rounds;
      precopy_bytes = precopy_bytes a;
      replayed_calls = calls Replayer.replayed_calls;
      live_calls = calls Replayer.live_calls;
      replay_conflicts;
      transfer_conflicts;
      transfers = List.rev a.transfers;
      failure;
      metrics = metrics_snapshot survivor;
      flight;
      parked_requests = parked;
      resumed_requests = resumed;
      aborted_requests = aborted;
      client_latency =
        Option.map Metrics.hist_snapshot_summary
          (Metrics.find_histogram (Metrics.snapshot t.lin.metrics) "mcr_request_latency_ns");
    } )

(* One attempt as a chain of stages. Without pre-copy the stage order is
   the paper's checkpoint/restart/restore: quiesce -> restart+replay ->
   transfer -> commit, and the service-interruption window is the whole
   update. With [pol.precopy] the old version keeps serving while the new
   version starts up and delta rounds speculatively stage the reachable
   graph; only then does quiescence open the window, so downtime is the
   final delta, not the bulk transfer. *)
let update_once t ~pol ~attempt ~prior ?fault ?on_precopy_round target =
  let k = t.kernel in
  let t0 = K.clock_ns k in
  Option.iter (fun f -> Fault.set_trace f t.lin.trace) fault;
  let a =
    {
      t;
      pol;
      fault;
      target;
      t0;
      pstats0 = K.parking_stats k;
      window_start = (if pol.Policy.precopy then None else Some t0);
      parked = false;
      quiesced = false;
      stages = [];
      rounds = [];
      transfers = [];
      image = None;
      restarted = None;
    }
  in
  Metrics.incr t.lin.mset.m_updates;
  span_begin a
    ~args:
      [ ("from", t.prog_version.P.version_tag); ("to", target.P.version_tag);
        ("prog", t.prog_version.P.prog) ]
    "update";
  let ( let* ) = Result.bind in
  let outcome =
    (* a manager whose processes are gone (already updated away from, or
       crashed) cannot be updated *)
    if images t = [] then Error (Err.Program_not_running, "init")
    else
      let* () = if pol.Policy.precopy then Ok () else quiesce a in
      let* r = restart a in
      let* () =
        if not pol.Policy.precopy then Ok ()
        else
          let* () = precopy a r ~on_precopy_round in
          (* relinking the program and prelinking shared libraries for the
             remapped immutable objects depends only on the new binary —
             prepay it too, with the old version still serving; then the
             window opens and pays only the delta *)
          K.run_for k relink_ns;
          quiesce a
      in
      state_transfer a r
  in
  finish a ~attempt ~prior outcome

(* Public entry point: resolve the effective policy (manager's stored
   policy, overridden for this call by [?policy]), then run [update_once]
   with bounded retry. The fault plan is shared across attempts — a fault
   consumed by attempt [n] is gone on attempt [n+1], so transient injected
   failures are exactly the ones retry recovers from. *)
let update t ?policy ?fault ?on_precopy_round new_version =
  let pol = Option.value policy ~default:t.lin.policy in
  let fault =
    if Option.is_some fault then fault else Option.map Fault.of_seed pol.Policy.fault_seed
  in
  let k = t.kernel in
  let rec attempt n prior =
    let t', rep =
      update_once t ~pol ~attempt:n ~prior ?fault ?on_precopy_round new_version
    in
    if rep.success || n >= pol.Policy.retries then (t', rep)
    else begin
      Metrics.incr (Metrics.counter t.lin.metrics "mcr_update_retries_total");
      (* linear backoff in virtual time before the next attempt *)
      ignore
        (K.run_until k
           ~max_ns:(K.clock_ns k + (pol.Policy.retry_backoff_ns * (n + 1)))
           (fun () -> false));
      (* retry lineage: the next attempt's record carries this one (its own
         lineage emptied, so the chain stays flat) *)
      attempt (n + 1) (prior @ [ { rep.flight with Flight.f_prior = [] } ])
    end
  in
  attempt 0 []

