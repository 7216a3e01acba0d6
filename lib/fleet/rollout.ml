(* Wave planning and execution. Time here is fleet-relative virtual time:
   every instance runs in its own kernel, so the rollout clock starts at 0
   and advances by drain windows and the slowest member of each wave (the
   members update concurrently in wall-clock terms — their simulations are
   independent). Availability is sampled at every balancer transition. *)

module K = Mcr_simos.Kernel
module Manager = Mcr_core.Manager
module Ctl = Mcr_core.Ctl
module Frame = Mcr_core.Frame
module Flight = Mcr_obs.Flight
module Fleet_flight = Mcr_obs.Fleet_flight

let plan (pol : Fleet_policy.t) ~n =
  if n < 1 then invalid_arg "Rollout.plan: n must be >= 1";
  let canary = min n (min pol.Fleet_policy.canary pol.Fleet_policy.max_unavailable) in
  let canary = max 1 canary in
  let wave = max 1 (min pol.Fleet_policy.wave pol.Fleet_policy.max_unavailable) in
  let ids = List.init n Fun.id in
  let split k l =
    let rec go i acc = function
      | x :: tl when i < k -> go (i + 1) (x :: acc) tl
      | rest -> (List.rev acc, rest)
    in
    go 0 [] l
  in
  let first, rest = split canary ids in
  let rec waves = function
    | [] -> []
    | l ->
        let w, rest = split wave l in
        w :: waves rest
  in
  first :: waves rest

(* ------------------------------------------------------------------ *)

let execute fleet =
  let pol = Fleet.policy fleet in
  let n = Fleet.size fleet in
  let bal = Fleet.balancer fleet in
  let routed0 = Balancer.routed_total bal in
  let errors0 = Balancer.errors_total bal in
  let from_tag = Fleet.version_tag fleet 0 in
  let waves = plan pol ~n in
  let now = ref 0 in
  let timeline = ref [] in
  let sample () =
    Fleet.refresh_serving fleet;
    timeline :=
      { Fleet_flight.s_ns = !now; s_serving = Balancer.serving bal } :: !timeline
  in
  let tick () = ignore (Balancer.route bal ~n:pol.Fleet_policy.tick_requests) in
  let wave_index = ref 0 in
  let done_waves = ref [] in
  let halted = ref false in
  let blocking = ref None in
  sample ();
  (* One wave: drain the members, run their updates (duration = slowest
     member), rejoin the healthy ones, route a client tick on each side of
     the window. [update] returns the member's verdict. *)
  let run_wave ~kind members ~update =
    let w_start = !now in
    List.iter (fun id -> Balancer.set_state bal id Balancer.Draining) members;
    sample ();
    tick ();
    now := !now + pol.Fleet_policy.drain_ns;
    List.iter (fun id -> Balancer.set_state bal id Balancer.Out) members;
    let verdicts, duration =
      List.fold_left
        (fun (vs, dur) id ->
          let v = update id in
          (v :: vs, max dur v.Fleet_flight.v_total_ns))
        ([], 0) members
    in
    let verdicts = List.rev verdicts in
    now := !now + duration;
    (* a rolled-back instance rejoins too: its old version resumed serving
       (the atomic-rollback guarantee); only a failed health probe keeps an
       instance out of rotation *)
    List.iter
      (fun (v : Fleet_flight.verdict) ->
        Balancer.set_state bal v.Fleet_flight.v_instance
          (if v.Fleet_flight.v_healthy then Balancer.Serving else Balancer.Out))
      verdicts;
    tick ();
    sample ();
    let w =
      {
        Fleet_flight.w_index = !wave_index;
        w_kind = kind;
        w_start_ns = w_start;
        w_end_ns = !now;
        w_verdicts = verdicts;
      }
    in
    incr wave_index;
    done_waves := w :: !done_waves;
    w
  in
  let target_update id =
    let report = Fleet.update_instance fleet id `Target in
    let success = report.Manager.success in
    let slo_violated =
      match report.Manager.flight.Flight.f_slo with
      | Some s -> Flight.slo_violated s
      | None -> false
    in
    let healthy = Fleet.healthy fleet id in
    let reason =
      if not success then
        Some
          (Option.fold ~none:"rolled back" ~some:Mcr_error.to_string report.Manager.failure)
      else if slo_violated then Some "slo budget violated"
      else if not healthy then Some "health probe failed"
      else None
    in
    {
      Fleet_flight.v_instance = id;
      v_wave = !wave_index;
      v_success = success;
      v_slo_violated = slo_violated;
      v_healthy = healthy;
      v_reason = reason;
      v_downtime_ns = report.Manager.downtime_ns;
      v_total_ns = report.Manager.total_ns;
      v_flight = Some report.Manager.flight;
    }
  in
  (* Staggered waves with the canary gate: the first blocking verdict stops
     everything after its wave. *)
  (try
     List.iter
       (fun members ->
         let kind = if !wave_index = 0 then "canary" else "wave" in
         let w = run_wave ~kind members ~update:target_update in
         let duration_ns = w.Fleet_flight.w_end_ns - w.Fleet_flight.w_start_ns in
         match List.find_opt Fleet_flight.blocks w.Fleet_flight.w_verdicts with
         | Some v ->
             blocking := Some v;
             halted := true;
             Fleet.note_wave fleet ~outcome:`Halted ~duration_ns;
             raise Exit
         | None -> Fleet.note_wave fleet ~outcome:`Promoted ~duration_ns)
       waves
   with Exit -> ());
  (* Halt policy: revert whatever already reached the target version. *)
  let reverted = ref 0 in
  if !halted && pol.Fleet_policy.halt = Fleet_policy.Rollback_updated then begin
    let on_target =
      List.filter
        (fun i -> Fleet.version_tag fleet i = Fleet.target_tag fleet i)
        (List.init n Fun.id)
    in
    if on_target <> [] then begin
      let revert_update id =
        let report = Fleet.update_instance fleet id `Revert in
        if report.Manager.success then incr reverted;
        {
          Fleet_flight.v_instance = id;
          v_wave = !wave_index;
          v_success = report.Manager.success;
          v_slo_violated = false;
          v_healthy = Fleet.healthy fleet id;
          v_reason = Some "reverted by halt policy";
          v_downtime_ns = report.Manager.downtime_ns;
          v_total_ns = report.Manager.total_ns;
          v_flight = None;
        }
      in
      let w = run_wave ~kind:"rollback" on_target ~update:revert_update in
      Fleet.note_wave fleet ~outcome:`Rollback
        ~duration_ns:(w.Fleet_flight.w_end_ns - w.Fleet_flight.w_start_ns)
    end
  end;
  (* Only the blocking verdict keeps its full flight record — the rest
     would bloat the summary without adding narrative. *)
  let keep_flight (v : Fleet_flight.verdict) =
    match !blocking with
    | Some b ->
        b.Fleet_flight.v_instance = v.Fleet_flight.v_instance
        && b.Fleet_flight.v_wave = v.Fleet_flight.v_wave
    | None -> false
  in
  let strip (w : Fleet_flight.wave) =
    {
      w with
      Fleet_flight.w_verdicts =
        List.map
          (fun (v : Fleet_flight.verdict) ->
            if keep_flight v then v else { v with Fleet_flight.v_flight = None })
          w.Fleet_flight.w_verdicts;
    }
  in
  let updated =
    List.length
      (List.filter
         (fun i -> Fleet.version_tag fleet i = Fleet.target_tag fleet i)
         (List.init n Fun.id))
  in
  let timeline = List.rev !timeline in
  let min_serving =
    List.fold_left (fun acc (s : Fleet_flight.sample) -> min acc s.Fleet_flight.s_serving) n
      timeline
  in
  let summary =
    {
      Fleet_flight.fs_prog = Fleet.prog fleet;
      fs_from = from_tag;
      fs_to = Fleet.target_tag fleet 0;
      fs_size = n;
      fs_canary = pol.Fleet_policy.canary;
      fs_wave_size = pol.Fleet_policy.wave;
      fs_max_unavailable = pol.Fleet_policy.max_unavailable;
      fs_halt = Fleet_policy.halt_to_string pol.Fleet_policy.halt;
      fs_waves = List.rev_map strip !done_waves;
      fs_halted = !halted;
      fs_blocking = !blocking;
      fs_updated = updated;
      fs_reverted = !reverted;
      fs_makespan_ns = !now;
      fs_min_serving = min_serving;
      fs_requests = Balancer.routed_total bal - routed0;
      fs_client_errors = Balancer.errors_total bal - errors0;
      fs_timeline = timeline;
    }
  in
  Fleet.record_rollout fleet summary;
  summary

(* ------------------------------------------------------------------ *)
(* The operator path: FLEET ROLLOUT over the control socket. *)

let request_over_ctl fleet =
  let kernel = Fleet.ctl_kernel fleet in
  let result = ref None in
  Ctl.exec kernel ~path:(Fleet.ctl_path fleet) (Frame.Raw "FLEET ROLLOUT")
    ~on_result:(fun r -> result := Some r)
    ();
  ignore
    (K.run_until kernel
       ~max_ns:(K.clock_ns kernel + 10_000_000_000)
       (fun () -> Fleet.rollout_requested fleet));
  if not (Fleet.rollout_requested fleet) then Error "FLEET ROLLOUT request not delivered"
  else begin
    let summary = execute fleet in
    Fleet.respond_rollout fleet
      (Frame.ok_inline (if summary.Fleet_flight.fs_halted then "HALTED" else "COMPLETED"));
    ignore
      (K.run_until kernel ~max_ns:(K.clock_ns kernel + 10_000_000_000) (fun () ->
           !result <> None));
    match !result with
    | Some (Ok _) -> Ok summary
    | Some (Error e) -> Error (Format.asprintf "%a" Frame.pp_error e)
    | None -> Error "no reply from the fleet controller"
  end
