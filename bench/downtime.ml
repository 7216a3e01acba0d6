(* The downtime experiment, four sweeps over the evaluated servers:

   1. Iterative pre-copy vs single-shot service interruption, swept over
      open-connection counts. For each (server, connections) configuration
      two fresh simulations run with identical preparation — launch, a
      short workload, [n] long-lived held connections — differing only in
      the update policy: the single-shot baseline (the window is the whole
      update) and pre-copy (the window is the final delta). The run fails
      (exit 1) if pre-copy downtime is not strictly below single-shot at
      the highest connection count for any server.

   2. Sharded parallel state transfer, swept over the worker-pool size at
      the highest connection count. The web servers carry per-connection
      buffer ballast (conn_buffer_words / ConnBufferWords config
      directives, with a heap sized to hold it) so the transfer window is
      dominated by tracing + copying — the component the worker pool
      parallelises. The run fails if the largest worker count is not
      strictly below workers=1 for any server, and (full mode only) if
      nginx/httpd do not reach a >= 2x downtime reduction.

   3. Zero-copy page remap vs plain single-shot, over the same connection
      points. The remap pass retracts the per-word copy charge of every
      byte-identical, layout-stable page and charges one remap_page_ns
      instead, so its downtime can only be <= the baseline; the run fails
      if it is not strictly below on vsftpd and OpenSSH at the top
      connection count. Those two servers always measure the 100-conn
      acceptance cell, even in smoke mode.

   4. Dirty-delta scaling: one lineage per server takes a warm update and
      then repeated self-updates under increasing interleaved traffic.
      With named dirty epochs the copied+hashed residue of each window
      must track the traffic actually served since the previous update —
      the run fails if the quiet self-update's residue is not well below
      the reachable heap, or if it does not grow with traffic.

   $MCR_DOWNTIME_JSON: write every sweep's cells as JSON for machine
   consumption (the CI workflow uploads it as an artifact; the committed
   BENCH_downtime.json baseline is this file from a smoke run, and
   [family] lets `bench check` re-measure every cell against it through
   the same point functions the sweeps call).

   $MCR_FLIGHT_DIR: write every measured update's flight record
   ({!Mcr_obs.Export.flight_json}) into that directory, one file per
   experiment — the post-mortem artifact CI uploads. *)

module K = Mcr_simos.Kernel
module Manager = Mcr_core.Manager
module Policy = Mcr_core.Policy
module Testbed = Mcr_workloads.Testbed
module Holders = Mcr_workloads.Holders
module Nginx = Mcr_servers.Nginx_sim
module Httpd = Mcr_servers.Httpd_sim
module C = Bench_cell

let fms = C.fms

type cell = {
  downtime_ns : int;
  total_ns : int;
  rounds : int;
  live_words : int;
  copied_words : int;  (* transferred minus the remapped portion *)
  remapped_words : int;
  hashed_words : int;
  skipped_clean_words : int;
}

let cell_of_report (report : Manager.report) =
  let sum f = List.fold_left (fun acc (_, o) -> acc + f o) 0 report.Manager.transfers in
  let transferred = sum (fun o -> o.Mcr_trace.Transfer.transferred_words) in
  let remapped = sum (fun o -> o.Mcr_trace.Transfer.remapped_words) in
  {
    downtime_ns = report.Manager.downtime_ns;
    total_ns = report.Manager.total_ns;
    rounds = report.Manager.precopy_rounds;
    live_words = sum (fun o -> o.Mcr_trace.Transfer.live_words);
    copied_words = transferred - remapped;
    remapped_words = remapped;
    hashed_words = sum (fun o -> o.Mcr_trace.Transfer.hashed_words);
    skipped_clean_words = sum (fun o -> o.Mcr_trace.Transfer.skipped_clean_words);
  }

(* Flight records of every measured update, oldest first — flushed to
   $MCR_FLIGHT_DIR at the end of the run. *)
let flights : Mcr_obs.Flight.record list ref = ref []

let flush_flights ~name =
  Option.iter
    (fun dir ->
      let path =
        C.write_file ~dir
          (Printf.sprintf "flight_%s.json" name)
          (Mcr_obs.Export.flight_json (List.rev !flights))
      in
      Printf.printf "downtime: wrote %s (%d flight record(s))\n" path (List.length !flights))
    (Sys.getenv_opt "MCR_FLIGHT_DIR");
  flights := []

let measure ?config ?base_version ?final_version server ~conns ~policy ~label () =
  let kernel = K.create () in
  let m = Testbed.launch ?config ?version:base_version kernel server in
  ignore (Testbed.benchmark kernel server ~scale:10_000 ());
  let holders =
    if conns > 0 then Some (Testbed.open_holders kernel server ~n:conns) else None
  in
  let target =
    match final_version with Some v -> v | None -> Testbed.final_version server
  in
  let _m2, report = Manager.update m ~policy target in
  (match holders with Some h -> Holders.close_all h | None -> ());
  flights := report.Manager.flight :: !flights;
  if not report.Manager.success then begin
    Printf.printf "!! %s update failed at %d conns (%s): %s\n" (Testbed.name server) conns
      label
      (Option.fold ~none:"?" ~some:Mcr_error.to_string report.Manager.failure);
    exit 1
  end;
  cell_of_report report

let server_conns cell =
  let ( let* ) = Result.bind in
  let* server = C.server_key cell in
  let* conns = C.int_key "conns" cell in
  Ok (server, conns)

let conns_label (server, conns) = Printf.sprintf "%s conns=%d" (Testbed.name server) conns
let downtime_gate what field = C.metric ~what field C.Ceiling_pct C.Ms

(* ------------------------------------------------------------------ *)
(* Sweep 1: pre-copy vs single-shot *)

let precopy_policy =
  Policy.with_precopy ~max_rounds:6 ~threshold_words:100_000 true Policy.default

let precopy_point (server, conns) =
  let ss = measure server ~conns ~policy:Policy.default ~label:"single-shot" () in
  let pc = measure server ~conns ~policy:precopy_policy ~label:"precopy" () in
  (ss, pc)

let precopy =
  C.spec ~sweep:"precopy" ~key:server_conns ~label:conns_label
    ~measure:(List.map precopy_point)
    ~row:(fun (server, conns) (ss, pc) ->
      [
        C.server server;
        ("conns", `Int conns);
        ("single_shot_downtime_ns", `Int ss.downtime_ns);
        ("precopy_downtime_ns", `Int pc.downtime_ns);
        ("precopy_rounds", `Int pc.rounds);
      ])
    [
      downtime_gate "single-shot" "single_shot_downtime_ns";
      downtime_gate "precopy" "precopy_downtime_ns";
    ]

let precopy_sweep ~smoke json =
  let points = if smoke then [ 0; 8 ] else [ 0; 25; 50; 100 ] in
  let servers = Testbed.all in
  Printf.printf "\n== downtime%s: pre-copy vs single-shot (downtime/total ms) ==\n"
    (if smoke then " (smoke)" else "");
  Printf.printf "%-10s %5s   %-17s %-23s %9s\n" "server" "conns" "single-shot" "precopy"
    "speedup";
  let top = List.fold_left max 0 points in
  let violations = ref 0 in
  List.iter
    (fun server ->
      List.iter
        (fun conns ->
          let ((ss, pc) as m) = precopy_point (server, conns) in
          let speedup =
            if pc.downtime_ns > 0 then
              float_of_int ss.downtime_ns /. float_of_int pc.downtime_ns
            else infinity
          in
          let at_top = conns = top in
          let ok = pc.downtime_ns < ss.downtime_ns in
          if at_top && not ok then incr violations;
          json := C.line precopy (server, conns) m :: !json;
          Printf.printf "%-10s %5d   %7s/%-9s %7s/%-9s(%d rds) %8.1fx%s\n"
            (Testbed.name server) conns (fms ss.downtime_ns) (fms ss.total_ns)
            (fms pc.downtime_ns) (fms pc.total_ns) pc.rounds speedup
            (if at_top && not ok then "  <-- NOT BELOW SINGLE-SHOT" else ""))
        points)
    servers;
  if !violations > 0 then begin
    Printf.printf
      "\ndowntime: %d configuration(s) where pre-copy did not beat single-shot at %d conns\n"
      !violations top;
    exit 1
  end;
  Printf.printf
    "\npre-copy downtime strictly below single-shot at %d connections on all servers\n" top

(* ------------------------------------------------------------------ *)
(* Sweep 2: transfer worker-pool size at the top connection count *)

(* Per-connection buffer ballast for the web servers: the config directive
   sizes every held connection's read buffer, and the versions get a heap
   large enough to hold [conns] of them (plus the usual server state).
   Returns the config and the base and final versions. *)
let ballast_words = 65_536
let ballast_heap_words = 8 * 1024 * 1024

let ballast = function
  | Testbed.Nginx ->
      ( Some (Printf.sprintf "worker_processes 1;\nconn_buffer_words %d;" ballast_words),
        Some (Nginx.base ~heap_words:ballast_heap_words ()),
        Some (Nginx.final ~heap_words:ballast_heap_words ()) )
  | Testbed.Httpd ->
      ( Some (Printf.sprintf "ServerLimit 2\nThreadsPerChild 2\nConnBufferWords %d" ballast_words),
        Some (Httpd.base ~heap_words:ballast_heap_words ()),
        Some (Httpd.final ~heap_words:ballast_heap_words ()) )
  | Testbed.Vsftpd | Testbed.Sshd -> (None, None, None)

let has_ballast server =
  let config, _, _ = ballast server in
  config <> None

let workers_point (server, conns, w) =
  let config, base_version, final_version = ballast server in
  let policy = Policy.with_transfer_workers w Policy.default in
  measure ?config ?base_version ?final_version server ~conns ~policy
    ~label:(Printf.sprintf "workers=%d" w) ()

let workers =
  C.spec ~sweep:"workers"
    ~key:(fun cell ->
      let ( let* ) = Result.bind in
      let* server, conns = server_conns cell in
      let* w = C.int_key "workers" cell in
      Ok (server, conns, w))
    ~label:(fun (server, conns, w) ->
      Printf.sprintf "%s conns=%d W=%d" (Testbed.name server) conns w)
    ~measure:(List.map workers_point)
    ~row:(fun (server, conns, w) c ->
      [
        C.server server;
        ("conns", `Int conns);
        ("workers", `Int w);
        ("downtime_ns", `Int c.downtime_ns);
        ("total_ns", `Int c.total_ns);
      ])
    [ downtime_gate "" "downtime_ns" ]

let workers_sweep ~smoke ~workers:pool json =
  let conns = if smoke then 8 else 100 in
  let pool = List.sort_uniq compare (List.filter (fun w -> w >= 1) pool) in
  let pool = if pool = [] then [ 1; 2; 4; 8 ] else pool in
  let servers = Testbed.all in
  Printf.printf
    "\n== downtime%s: sharded parallel transfer at %d conns (single-shot downtime ms) ==\n"
    (if smoke then " (smoke)" else "")
    conns;
  Printf.printf "%-10s" "server";
  List.iter (fun w -> Printf.printf " %9s" (Printf.sprintf "W=%d" w)) pool;
  Printf.printf " %9s\n" "speedup";
  let violations = ref 0 in
  let weak = ref 0 in
  List.iter
    (fun server ->
      let cells = List.map (fun w -> (w, workers_point (server, conns, w))) pool in
      let base = snd (List.hd cells) in
      let _, best = List.nth cells (List.length cells - 1) in
      let speedup =
        if best.downtime_ns > 0 then
          float_of_int base.downtime_ns /. float_of_int best.downtime_ns
        else infinity
      in
      (* The worker pool must pay for itself on the ballast-carrying web
         servers: largest pool strictly below workers=1. vsftpd/sshd have
         so little transferable state that the per-worker spawn/join cost
         dominates — reported, not asserted. *)
      let gated = has_ballast server in
      let ok = best.downtime_ns < base.downtime_ns in
      if gated && not ok then incr violations;
      (* ...and in full mode they must halve the window — the PR's
         acceptance criterion *)
      let need_2x = (not smoke) && gated in
      if need_2x && speedup < 2.0 then incr weak;
      List.iter (fun (w, c) -> json := C.line workers (server, conns, w) c :: !json) cells;
      Printf.printf "%-10s" (Testbed.name server);
      List.iter (fun (_, c) -> Printf.printf " %9s" (fms c.downtime_ns)) cells;
      Printf.printf " %8.1fx%s%s\n" speedup
        (if gated && not ok then "  <-- NOT BELOW W=1"
         else if (not gated) && not ok then "  (spawn/join-bound)"
         else "")
        (if need_2x && speedup < 2.0 then "  <-- BELOW 2x" else ""))
    servers;
  if !violations > 0 then begin
    Printf.printf
      "\ndowntime: %d web server(s) where the largest worker pool did not beat workers=1\n"
      !violations;
    exit 1
  end;
  if !weak > 0 then begin
    Printf.printf "\ndowntime: %d web server(s) below the 2x parallel-transfer bar\n" !weak;
    exit 1
  end;
  Printf.printf
    "\nparallel transfer beats workers=1 at %d connections on nginx/httpd%s\n" conns
    (if smoke then "" else " with >= 2x downtime reduction")

(* ------------------------------------------------------------------ *)
(* Sweep 3: zero-copy page remap vs plain single-shot *)

let remap_policy = Policy.with_transfer_remap true Policy.default

(* The acceptance servers: remap must pay for itself on the small-state
   daemons whose window is copy-dominated. *)
let remap_gated = function Testbed.Vsftpd | Testbed.Sshd -> true | _ -> false

let remap_points ~smoke server =
  let base = if smoke then [ 0; 8 ] else [ 0; 25; 50; 100 ] in
  if remap_gated server then List.sort_uniq compare (100 :: base) else base

(* Every server carries per-connection ballast here: the web servers their
   conn read buffers, vsftpd/sshd an opaque per-session buffer
   (session_buffer_words). Both sides of the comparison use the same
   config — only the policy differs. *)
let remap_ballast server =
  match (server : Testbed.server) with
  | Testbed.Vsftpd -> (Some "anonymous_enable=NO\nsession_buffer_words 4096", None, None)
  | Testbed.Sshd -> (Some "PermitRootLogin no\nsession_buffer_words 4096", None, None)
  | Testbed.Nginx | Testbed.Httpd -> ballast server

let remap_point (server, conns) =
  let config, base_version, final_version = remap_ballast server in
  let ss =
    measure ?config ?base_version ?final_version server ~conns ~policy:Policy.default
      ~label:"single-shot" ()
  in
  let rm =
    measure ?config ?base_version ?final_version server ~conns ~policy:remap_policy
      ~label:"remap" ()
  in
  (ss, rm)

let remap =
  C.spec ~sweep:"remap" ~key:server_conns ~label:conns_label
    ~measure:(List.map remap_point)
    ~row:(fun (server, conns) (ss, rm) ->
      [
        C.server server;
        ("conns", `Int conns);
        ("single_shot_downtime_ns", `Int ss.downtime_ns);
        ("remap_downtime_ns", `Int rm.downtime_ns);
        ("remapped_words", `Int rm.remapped_words);
        ("copied_words", `Int rm.copied_words);
      ])
    [
      downtime_gate "single-shot" "single_shot_downtime_ns";
      downtime_gate "remap" "remap_downtime_ns";
      C.metric ~what:"remap copied" "copied_words" C.Ceiling_pct C.Words;
    ]

let remap_sweep ~smoke json =
  Printf.printf "\n== downtime%s: zero-copy page remap vs single-shot (downtime ms) ==\n"
    (if smoke then " (smoke)" else "");
  Printf.printf "%-10s %5s %11s %11s %12s %12s\n" "server" "conns" "single-shot" "remap"
    "remapped_w" "copied_w";
  let violations = ref 0 in
  List.iter
    (fun server ->
      let points = remap_points ~smoke server in
      let top = List.fold_left max 0 points in
      List.iter
        (fun conns ->
          let ((ss, rm) as m) = remap_point (server, conns) in
          let gated = remap_gated server && conns = top in
          let ok = rm.downtime_ns < ss.downtime_ns in
          if gated && not ok then incr violations;
          json := C.line remap (server, conns) m :: !json;
          Printf.printf "%-10s %5d %11s %11s %12d %12d%s\n" (Testbed.name server) conns
            (fms ss.downtime_ns) (fms rm.downtime_ns) rm.remapped_words rm.copied_words
            (if gated && not ok then "  <-- NOT BELOW SINGLE-SHOT" else ""))
        points)
    Testbed.all;
  if !violations > 0 then begin
    Printf.printf
      "\ndowntime: %d configuration(s) where page remap did not beat single-shot\n"
      !violations;
    exit 1
  end;
  Printf.printf
    "\npage remap downtime strictly below single-shot on vsftpd/OpenSSH at 100 connections\n"

(* ------------------------------------------------------------------ *)
(* Sweep 4: dirty-delta scaling across back-to-back updates *)

let delta_servers = [ Testbed.Vsftpd; Testbed.Sshd ]

(* Traffic levels between self-updates, as benchmark scales (0 = none;
   smaller scale = more requests). *)
let delta_levels ~smoke = if smoke then [ 0; 10_000 ] else [ 0; 10_000; 2_000 ]

(* One lineage: warm update to the final version, then one self-update per
   level after serving that level's traffic. Returns (scale, cell) pairs in
   level order. *)
let delta_lineage server ~levels =
  let kernel = K.create () in
  let m0 = Testbed.launch kernel server in
  ignore (Testbed.benchmark kernel server ~scale:10_000 ());
  let fail (report : Manager.report) label =
    if not report.Manager.success then begin
      Printf.printf "!! %s delta lineage: %s update failed: %s\n" (Testbed.name server)
        label
        (Option.fold ~none:"?" ~some:Mcr_error.to_string report.Manager.failure);
      exit 1
    end
  in
  let m1, warm = Manager.update m0 ~policy:remap_policy (Testbed.final_version server) in
  flights := warm.Manager.flight :: !flights;
  fail warm "warm";
  let mgr = ref m1 in
  List.map
    (fun scale ->
      if scale > 0 then ignore (Testbed.benchmark kernel server ~scale ());
      let m2, r = Manager.update !mgr ~policy:remap_policy (Testbed.final_version server) in
      flights := r.Manager.flight :: !flights;
      fail r (Printf.sprintf "self-update (traffic scale %d)" scale);
      mgr := m2;
      (scale, cell_of_report r))
    levels

(* The gate replays one lineage per server, in the order the servers first
   appear, over that server's levels in key order. *)
let delta_measure keys =
  let servers =
    List.fold_left (fun acc (s, _) -> if List.mem s acc then acc else acc @ [ s ]) [] keys
  in
  let lineages =
    List.map
      (fun s ->
        let levels = List.filter_map (fun (t, l) -> if t = s then Some l else None) keys in
        (s, ref (delta_lineage s ~levels)))
      servers
  in
  List.map
    (fun (s, _) ->
      let rest = List.assoc s lineages in
      match !rest with
      | (_, c) :: tl ->
          rest := tl;
          c
      | [] -> assert false)
    keys

let delta =
  C.spec ~sweep:"delta"
    ~key:(fun cell ->
      let ( let* ) = Result.bind in
      let* server = C.server_key cell in
      let* scale = C.int_key "traffic_scale" cell in
      Ok (server, scale))
    ~label:(fun (server, scale) ->
      Printf.sprintf "%s delta traffic=%d" (Testbed.name server) scale)
    ~measure:delta_measure
    ~row:(fun (server, scale) c ->
      [
        C.server server;
        ("traffic_scale", `Int scale);
        ("downtime_ns", `Int c.downtime_ns);
        ("live_words", `Int c.live_words);
        ("copied_words", `Int c.copied_words);
        ("remapped_words", `Int c.remapped_words);
        ("hashed_words", `Int c.hashed_words);
        ("skipped_clean_words", `Int c.skipped_clean_words);
      ])
    [
      downtime_gate "" "downtime_ns";
      C.metric ~what:"copied" "copied_words" C.Ceiling_pct C.Words;
    ]

let delta_sweep ~smoke json =
  Printf.printf
    "\n== downtime%s: dirty-delta scaling across self-updates (words per window) ==\n"
    (if smoke then " (smoke)" else "");
  Printf.printf "%-10s %8s %10s %10s %10s %10s %10s\n" "server" "traffic" "live" "copied"
    "hashed" "remapped" "downtime";
  let violations = ref 0 in
  List.iter
    (fun server ->
      let cells = delta_lineage server ~levels:(delta_levels ~smoke) in
      List.iter
        (fun (scale, c) ->
          json := C.line delta (server, scale) c :: !json;
          Printf.printf "%-10s %8s %10d %10d %10d %10d %9s\n" (Testbed.name server)
            (if scale = 0 then "none" else Printf.sprintf "1/%d" scale)
            c.live_words c.copied_words c.hashed_words c.remapped_words (fms c.downtime_ns))
        cells;
      let residue c = c.copied_words + c.hashed_words in
      let quiet = List.assoc 0 cells in
      let _, busiest = List.nth cells (List.length cells - 1) in
      (* the window cost must track the dirty set, not the reachable heap *)
      if residue quiet * 2 >= quiet.live_words then begin
        incr violations;
        Printf.printf "%-10s   <-- quiet residue %d not well below %d live words\n"
          (Testbed.name server) (residue quiet) quiet.live_words
      end;
      if residue busiest < residue quiet then begin
        incr violations;
        Printf.printf "%-10s   <-- residue shrank under traffic (%d -> %d)\n"
          (Testbed.name server) (residue quiet) (residue busiest)
      end)
    delta_servers;
  if !violations > 0 then begin
    Printf.printf "\ndowntime: %d dirty-delta scaling violation(s)\n" !violations;
    exit 1
  end;
  Printf.printf "\ncopied+hashed words track the dirty set across back-to-back updates\n"

let run ?(smoke = false) ?(workers = [ 1; 2; 4; 8 ]) () =
  let json = ref [] in
  precopy_sweep ~smoke json;
  workers_sweep ~smoke ~workers json;
  remap_sweep ~smoke json;
  delta_sweep ~smoke json;
  C.write_cells ~family:"downtime" ~env:"MCR_DOWNTIME_JSON" (List.rev !json);
  flush_flights ~name:"downtime"

(* The regression gate re-measures every cell of BENCH_downtime.json and
   fails when a downtime or copied-word count exceeds it by more than the
   tolerance. The simulation is deterministic, so genuine behaviour
   changes show up exactly; the tolerance admits intentional cost-model
   drift without a baseline refresh. *)
let family =
  {
    C.family = "downtime";
    sweeps = [ C.Sweep precopy; C.Sweep workers; C.Sweep remap; C.Sweep delta ];
    finish = (fun () -> flush_flights ~name:"downtime_check");
  }
