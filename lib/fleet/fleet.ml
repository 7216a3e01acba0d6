(* The fleet coordinator. Each instance is one kernel + one manager
   lineage — the single-instance MCR mechanism untouched — and the fleet
   holds them in an array behind a balancer, with a separate control-plane
   kernel serving the FLEET command family through the same Ctl_server the
   per-manager mcr-ctl endpoint uses. *)

module K = Mcr_simos.Kernel
module S = Mcr_simos.Sysdefs
module P = Mcr_program.Progdef
module Manager = Mcr_core.Manager
module Policy = Mcr_core.Policy
module Frame = Mcr_core.Frame
module Ctl_server = Mcr_core.Ctl_server
module Metrics = Mcr_obs.Metrics
module Fleet_flight = Mcr_obs.Fleet_flight
module Aspace = Mcr_vmem.Aspace
module Image = Mcr_image.Image
module Testbed = Mcr_workloads.Testbed
module Bench_result = Mcr_workloads.Bench_result

type instance = { id : int; kernel : K.t; mutable manager : Manager.t }

(* The fleet's metric instruments; the registry is fleet-level, distinct
   from every instance manager's registry. *)
type fmset = {
  fm_size : Metrics.gauge;
  fm_serving : Metrics.gauge;
  fm_rollouts : Metrics.counter;
  fm_halts : Metrics.counter;
  fm_wave_promotions : Metrics.counter;
  fm_wave_halts : Metrics.counter;
  fm_instance_updates : Metrics.counter;
  fm_instance_rollbacks : Metrics.counter;
  fm_reverted : Metrics.counter;
  fm_requests : Metrics.counter;
  fm_client_errors : Metrics.counter;
  fm_migrations : Metrics.counter;
  fm_failovers : Metrics.counter;
  fm_wave_h : Metrics.histogram;
}

let make_fmset metrics =
  {
    fm_size = Metrics.gauge metrics "mcr_fleet_size";
    fm_serving = Metrics.gauge metrics "mcr_fleet_serving";
    fm_rollouts = Metrics.counter metrics "mcr_fleet_rollouts_total";
    fm_halts = Metrics.counter metrics "mcr_fleet_rollout_halts_total";
    fm_wave_promotions = Metrics.counter metrics "mcr_fleet_wave_promotions_total";
    fm_wave_halts = Metrics.counter metrics "mcr_fleet_wave_halts_total";
    fm_instance_updates = Metrics.counter metrics "mcr_fleet_instance_updates_total";
    fm_instance_rollbacks = Metrics.counter metrics "mcr_fleet_instance_rollbacks_total";
    fm_reverted = Metrics.counter metrics "mcr_fleet_reverted_instances_total";
    fm_requests = Metrics.counter metrics "mcr_fleet_requests_routed_total";
    fm_client_errors = Metrics.counter metrics "mcr_fleet_client_errors_total";
    fm_migrations = Metrics.counter metrics "mcr_fleet_migrations_total";
    fm_failovers = Metrics.counter metrics "mcr_fleet_failovers_total";
    fm_wave_h = Metrics.histogram metrics "mcr_fleet_wave_duration_ns";
  }

type t = {
  prog : string;
  size : int;
  policy : Fleet_policy.t ref;
  instances : instance array;
  balancer : Balancer.t;
  health : K.t -> Manager.t -> bool;
  target : int -> P.version;
  revert : int -> P.version;
  relaunch : int -> version_tag:string -> (K.t * Manager.t, string) result;
  ctl_kernel : K.t;
  ctl_path : string;
  ctl_pending : bool ref;
  ctl_result : string ref;
  ctl_sem : string;
  last_summary : Fleet_flight.t option ref;
  metrics : Metrics.t;
  fmset : fmset;
}

let prog t = t.prog
let size t = t.size
let policy t = !(t.policy)
let set_policy t p = t.policy := p
let balancer t = t.balancer
let serving t = Balancer.serving t.balancer
let manager t i = t.instances.(i).manager
let instance_kernel t i = t.instances.(i).kernel
let version_tag t i = (Manager.version t.instances.(i).manager).P.version_tag
let target_tag t i = (t.target i).P.version_tag
let last_summary t = !(t.last_summary)
let metrics t = t.metrics
let ctl_kernel t = t.ctl_kernel
let ctl_path t = t.ctl_path
let rollout_requested t = !(t.ctl_pending)

let metrics_snapshot t =
  Metrics.set t.fmset.fm_serving (Balancer.serving t.balancer);
  Metrics.snapshot t.metrics

let state_str = function
  | Balancer.Serving -> "serving"
  | Balancer.Draining -> "draining"
  | Balancer.Out -> "out"

(* Fleet-wide client latency: the open-loop driver observes
   mcr_request_latency_ns into each instance manager's own registry;
   merging the per-instance histograms (same log bounds everywhere) gives
   the tail a client of the whole fleet sees. *)
let client_latency t =
  Array.fold_left
    (fun acc inst ->
      match
        Metrics.find_histogram (Manager.metrics_snapshot inst.manager)
          "mcr_request_latency_ns"
      with
      | Some h when h.Metrics.total > 0 -> (
          match acc with
          | None -> Some h
          | Some m -> Some (Metrics.hist_snapshot_merge m h))
      | Some _ | None -> acc)
    None t.instances

let status_text t =
  let buf = Buffer.create 512 in
  let pol = !(t.policy) in
  Buffer.add_string buf
    (Printf.sprintf "fleet %s: size %d, serving %d, rollouts %d\n" t.prog t.size
       (Balancer.serving t.balancer)
       (Metrics.counter_value t.fmset.fm_rollouts));
  Buffer.add_string buf
    (Printf.sprintf "policy: canary=%d wave=%d max_unavailable=%d halt=%s drain_ns=%d\n"
       pol.Fleet_policy.canary pol.Fleet_policy.wave pol.Fleet_policy.max_unavailable
       (Fleet_policy.halt_to_string pol.Fleet_policy.halt)
       pol.Fleet_policy.drain_ns);
  Array.iter
    (fun inst ->
      Buffer.add_string buf
        (Printf.sprintf "instance %d: v%s %s\n" inst.id
           (Manager.version inst.manager).P.version_tag
           (state_str (Balancer.state t.balancer inst.id))))
    t.instances;
  (match client_latency t with
  | None -> ()
  | Some h ->
      let s = Metrics.hist_snapshot_summary h in
      Buffer.add_string buf
        (Printf.sprintf
           "client latency: %d request(s), p50 %d us, p99 %d us, p99.9 %d us, max %d us\n"
           s.Mcr_util.Stats.count
           (s.Mcr_util.Stats.p50_ns / 1000)
           (s.Mcr_util.Stats.p99_ns / 1000)
           (s.Mcr_util.Stats.p999_ns / 1000)
           (s.Mcr_util.Stats.max_ns / 1000)));
  Buffer.contents buf

(* FNV over the whole root-process address space: region identity plus
   every word. Identical deterministic instances hash identically — the
   byte-identical-commit witness, shared with the checkpoint-image layer.
   Seeded with the progdef's program name (not the fleet's display name)
   so the value is comparable with {!Image.fingerprint} of a saved
   image. *)
let image_fingerprint t i =
  let inst = t.instances.(i) in
  let root = List.hd (Manager.images inst.manager) in
  Image.aspace_fingerprint ~prog:root.P.i_version.P.prog
    (K.aspace (Manager.root_proc inst.manager))

(* ------------------------------------------------------------------ *)
(* Coordinator-side hooks *)

let update_instance t i which =
  let inst = t.instances.(i) in
  let pol = !(t.policy) in
  let version, update_policy =
    match which with
    | `Target ->
        let p =
          match pol.Fleet_policy.fault_seed with
          | Some s when List.mem i pol.Fleet_policy.fault_instances ->
              Policy.with_fault_seed (Some (s + i)) pol.Fleet_policy.update
          | _ -> pol.Fleet_policy.update
        in
        (t.target i, p)
    | `Revert -> (t.revert i, Policy.with_fault_seed None pol.Fleet_policy.update)
  in
  let m2, report = Manager.update inst.manager ~policy:update_policy version in
  inst.manager <- m2;
  if report.Manager.success then Metrics.incr t.fmset.fm_instance_updates
  else Metrics.incr t.fmset.fm_instance_rollbacks;
  report

let healthy t i =
  let inst = t.instances.(i) in
  t.health inst.kernel inst.manager

let refresh_serving t = Metrics.set t.fmset.fm_serving (Balancer.serving t.balancer)

let note_wave t ~outcome ~duration_ns =
  Metrics.observe t.fmset.fm_wave_h duration_ns;
  match outcome with
  | `Promoted -> Metrics.incr t.fmset.fm_wave_promotions
  | `Halted -> Metrics.incr t.fmset.fm_wave_halts
  | `Rollback -> ()

let record_rollout t (s : Fleet_flight.t) =
  t.last_summary := Some s;
  Metrics.incr t.fmset.fm_rollouts;
  if s.Fleet_flight.fs_halted then Metrics.incr t.fmset.fm_halts;
  Metrics.incr ~by:s.Fleet_flight.fs_reverted t.fmset.fm_reverted;
  Metrics.incr ~by:s.Fleet_flight.fs_requests t.fmset.fm_requests;
  Metrics.incr ~by:s.Fleet_flight.fs_client_errors t.fmset.fm_client_errors;
  refresh_serving t

(* ------------------------------------------------------------------ *)
(* Checkpoint images: save, migrate, warm standby *)

let check_instance t i =
  if i < 0 || i >= t.size then Error (Printf.sprintf "no instance %d" i) else Ok ()

let save_instance t i ~path =
  match check_instance t i with
  | Error e -> Error e
  | Ok () -> Manager.save_image t.instances.(i).manager ~path

(* A fresh kernel running exactly the image's version, settled and ready
   for install. The fleet's [relaunch] hook supplies it; the version check
   here turns a miswired hook into a named error instead of a downstream
   [Version_mismatch]. *)
let fresh_instance t i ~version_tag =
  match t.relaunch i ~version_tag with
  | Error _ as e -> e
  | Ok (kernel, m) ->
      let got = (Manager.version m).P.version_tag in
      if got <> version_tag then
        Error (Printf.sprintf "relaunch produced version %s, image holds %s" got version_tag)
      else Ok (kernel, m)

let migrate_instance t i ~path =
  match check_instance t i with
  | Error e -> Error e
  | Ok () ->
      let inst = t.instances.(i) in
      let prev_state = Balancer.state t.balancer i in
      let back_out e =
        Balancer.set_state t.balancer i prev_state;
        refresh_serving t;
        Error e
      in
      (* drain: out of rotation, in-flight work finishes in the instance's
         own virtual time *)
      Balancer.set_state t.balancer i Balancer.Draining;
      K.run_for inst.kernel !(t.policy).Fleet_policy.drain_ns;
      Balancer.set_state t.balancer i Balancer.Out;
      refresh_serving t;
      (match Manager.save_image inst.manager ~path with
      | Error e -> back_out e
      | Ok img -> (
          match fresh_instance t i ~version_tag:(Image.version_tag img) with
          | Error e -> back_out e
          | Ok (kernel, m) -> (
              (* install from the on-disk bytes — what a cross-host
                 migration actually ships (integrity checks included) *)
              let shipped =
                match Image.read ~path with Ok on_disk -> on_disk | Error _ -> img
              in
              match Manager.restore_image m shipped with
              | Error e -> back_out e
              | Ok _report ->
                  (* the drained original is abandoned: its kernel simply
                     stops being driven *)
                  t.instances.(i) <- { id = i; kernel; manager = m };
                  Metrics.incr t.fmset.fm_migrations;
                  Balancer.set_state t.balancer i Balancer.Serving;
                  refresh_serving t;
                  Ok (Image.fingerprint img))))

type standby = {
  sb_for : int;
  sb_kernel : K.t;
  sb_manager : Manager.t;
  sb_fingerprint : int;
}

let standby_fingerprint sb = sb.sb_fingerprint

let arm_standby t i =
  match check_instance t i with
  | Error e -> Error e
  | Ok () -> (
      let inst = t.instances.(i) in
      match Manager.quiesce_only inst.manager with
      | None -> Error "quiescence did not converge"
      | Some _ -> (
          (* the kernel has not been driven since the quiescent release, so
             the capture sees exactly the quiescent state — no host file
             needed for an intra-host standby *)
          let img =
            Image.capture inst.kernel
              ~members:(Manager.images inst.manager)
              ~policy_text:(Policy.to_kv (Manager.policy inst.manager))
              ()
          in
          match fresh_instance t i ~version_tag:(Image.version_tag img) with
          | Error e -> Error e
          | Ok (kernel, m) -> (
              match Manager.restore_image m img with
              | Error e -> Error e
              | Ok _ ->
                  Ok
                    {
                      sb_for = i;
                      sb_kernel = kernel;
                      sb_manager = m;
                      sb_fingerprint = Image.fingerprint img;
                    })))

let failover_instance t i sb =
  match check_instance t i with
  | Error e -> Error e
  | Ok () ->
      if sb.sb_for <> i then
        Error (Printf.sprintf "standby armed for instance %d, not %d" sb.sb_for i)
      else begin
        (* the failed primary is abandoned wholesale; the pre-restored
           standby takes its slot in rotation *)
        Balancer.set_state t.balancer i Balancer.Out;
        t.instances.(i) <- { id = i; kernel = sb.sb_kernel; manager = sb.sb_manager };
        Metrics.incr t.fmset.fm_failovers;
        Balancer.set_state t.balancer i Balancer.Serving;
        refresh_serving t;
        Ok sb.sb_fingerprint
      end

(* ------------------------------------------------------------------ *)
(* Control plane *)

let dispatch t cmd =
  let words =
    String.split_on_char ' ' (String.trim cmd) |> List.filter (fun s -> s <> "")
  in
  match words with
  | "FLEET" :: rest -> begin
      match rest with
      | [ "STATUS" ] -> Frame.ok_payload (status_text t)
      | [ "EXPLAIN" ] -> begin
          match !(t.last_summary) with
          | Some s -> Frame.ok_payload (Fleet_flight.to_json s)
          | None -> Frame.err "no rollouts"
        end
      | [ "ROLLOUT" ] ->
          (* mirror the manager's UPDATE: park until the host loop runs the
             rollout and posts the reply *)
          t.ctl_pending := true;
          ignore (K.syscall (S.Sem_wait { name = t.ctl_sem; timeout_ns = None }));
          !(t.ctl_result)
      | [ "SAVE"; is; path ] -> begin
          (* safe in-dispatch: the listener runs on the control-plane
             kernel, so the instance kernels are idle host-side state *)
          match int_of_string_opt is with
          | None -> Frame.err "usage: FLEET SAVE <i> <path>"
          | Some i -> (
              match save_instance t i ~path with
              | Ok img -> Frame.ok_inline (string_of_int (Image.fingerprint img))
              | Error e -> Frame.err e)
        end
      | [ "MIGRATE"; is; path ] -> begin
          match int_of_string_opt is with
          | None -> Frame.err "usage: FLEET MIGRATE <i> <path>"
          | Some i -> (
              match migrate_instance t i ~path with
              | Ok fp -> Frame.ok_inline (string_of_int fp)
              | Error e -> Frame.err e)
        end
      | _ -> Frame.err "usage: FLEET STATUS|ROLLOUT|EXPLAIN|SAVE <i> <path>|MIGRATE <i> <path>"
    end
  | _ -> Frame.err "unknown command"

let respond_rollout t frame =
  if !(t.ctl_pending) then begin
    t.ctl_result := frame;
    K.post_semaphore t.ctl_kernel t.ctl_sem;
    (* let the listener deliver the reply *)
    K.run_for t.ctl_kernel 5_000_000;
    t.ctl_pending := false
  end

(* ------------------------------------------------------------------ *)
(* Construction *)

let create ?(policy = Fleet_policy.default) ?relaunch ~prog ~n ~spawn ~health ~target
    ~revert () =
  if n < 1 then invalid_arg "Fleet.create: n must be >= 1";
  (* without a version-aware relaunch hook, migration falls back to the
     plain spawner — fine as long as the instance still runs the spawned
     version (install names the mismatch otherwise) *)
  let relaunch =
    match relaunch with
    | Some f -> f
    | None -> fun i ~version_tag:_ -> Ok (spawn i)
  in
  let instances =
    Array.init n (fun i ->
        let kernel, manager = spawn i in
        { id = i; kernel; manager })
  in
  let metrics = Metrics.create () in
  let fmset = make_fmset metrics in
  let ctl_kernel = K.create () in
  let ctl_proc =
    K.spawn_process ctl_kernel
      ~image:(K.Fresh_image (Aspace.create ()))
      ~name:"fleetd" ~entry:"fleetd_main"
      ~main:(fun _ ->
        (* the initial thread returning would end the process (and with it
           the listener); park it on a semaphore nobody posts *)
        ignore
          (K.syscall (S.Sem_wait { name = "mcr.fleet.park." ^ prog; timeout_ns = None })))
      ()
  in
  let t =
    {
      prog;
      size = n;
      policy = ref policy;
      instances;
      balancer = Balancer.create ~n;
      health;
      target;
      revert;
      relaunch;
      ctl_kernel;
      ctl_path = "/run/mcr/fleet." ^ prog ^ ".sock";
      ctl_pending = ref false;
      ctl_result = ref "";
      ctl_sem = Printf.sprintf "mcr.fleet.done.%d" (K.pid ctl_proc);
      last_summary = ref None;
      metrics;
      fmset;
    }
  in
  Metrics.set fmset.fm_size n;
  Metrics.set fmset.fm_serving n;
  Ctl_server.spawn ctl_kernel ctl_proc ~name:"fleet-ctl" ~path:t.ctl_path
    ~dispatch:(dispatch t)
    ();
  t

let of_testbed ?policy ?config server ~n =
  let pol = Option.value policy ~default:Fleet_policy.default in
  (* Testbed.benchmark issues (100_000 / scale) requests for the web
     servers; invert that to honour the policy's probe size. *)
  let health_scale = max 1 (100_000 / max 1 pol.Fleet_policy.health_requests) in
  let spawn _i =
    let kernel = K.create () in
    let m = Testbed.launch ?config kernel server in
    (kernel, m)
  in
  let health kernel _m =
    let r = Testbed.benchmark kernel server ~scale:health_scale () in
    r.Bench_result.errors = 0
  in
  let relaunch _i ~version_tag =
    match
      List.find_opt
        (fun (v : P.version) -> v.P.version_tag = version_tag)
        (Testbed.version_series server)
    with
    | None -> Error (Printf.sprintf "no %s version tagged %s" (Testbed.name server) version_tag)
    | Some v ->
        let kernel = K.create () in
        let m = Testbed.launch ?config ~version:v kernel server in
        Ok (kernel, m)
  in
  create ~policy:pol ~relaunch ~prog:(Testbed.name server) ~n ~spawn ~health
    ~target:(fun _ -> Testbed.final_version server)
    ~revert:(fun _ -> Testbed.base_version server)
    ()
