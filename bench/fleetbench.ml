(* The fleet experiment: canary-gated rolling live update across N
   instances behind the simulated balancer, swept over fleet sizes, wave
   policies, and seeded faults.

   Three scenario kinds, each with hard assertions (exit 1 on violation):

   - clean: the rollout must complete (all instances on the target
     version), route zero client-visible errors, and never drop aggregate
     availability below [n - max_unavailable] — the policy bound.
   - fault-halt: a transfer-conflict fault seeded into the canary must
     roll the canary back and halt the rollout with at least
     [n - canary - wave] instances never leaving the starting version.
   - slo-halt: an unmeetable SLO downtime budget on the canary must halt
     the rollout and, under [Rollback_updated], revert every
     already-updated instance back to the starting version.

   $MCR_FLEET_JSON: write every scenario's cell as JSON (the committed
   BENCH_fleet.json baseline is this file from a smoke run, and [family]
   lets `bench check` re-run every cell against it).

   $MCR_FLIGHT_DIR: write every rollout's fleet flight summary
   ({!Mcr_obs.Fleet_flight.to_json}) into that directory, one file per
   scenario — mcr-postmortem renders them. *)

module Policy = Mcr_core.Policy
module Testbed = Mcr_workloads.Testbed
module Fleet_policy = Mcr_fleet.Fleet_policy
module Fleet = Mcr_fleet.Fleet
module Rollout = Mcr_fleet.Rollout
module Fleet_flight = Mcr_obs.Fleet_flight
module C = Bench_cell

let fms = C.fms

type expect = Clean | Fault_halt | Slo_halt

let expect_to_string = function
  | Clean -> "clean"
  | Fault_halt -> "fault_halt"
  | Slo_halt -> "slo_halt"

let expect_of_string = function
  | "clean" -> Some Clean
  | "fault_halt" -> Some Fault_halt
  | "slo_halt" -> Some Slo_halt
  | _ -> None

type scenario = {
  server : Testbed.server;
  n : int;
  canary : int;
  wave : int;
  max_unavailable : int;
  halt : Fleet_policy.halt;
  fault_seed : int option;  (* arms [fault_instance] with of_seed (seed + i) *)
  fault_instance : int option;
  slo_downtime_ns : int option;  (* canary-halting SLO budget when set *)
  expect : expect;
}

let scenario ?fault_seed ?fault_instance ?slo_downtime_ns ~expect server ~n ~canary ~wave
    ~max_unavailable ~halt () =
  {
    server;
    n;
    canary;
    wave;
    max_unavailable;
    halt;
    fault_seed;
    fault_instance;
    slo_downtime_ns;
    expect;
  }

(* Seed 3 maps to a transfer conflict in Mcr_fault.Fault.of_seed — a fault
   the update pipeline always hits, so the canary rollback is guaranteed
   (instance 0 keeps the fleet seed unshifted). *)
let conflict_seed = 3

let smoke_scenarios =
  [
    scenario Testbed.Nginx ~n:4 ~canary:1 ~wave:2 ~max_unavailable:2
      ~halt:Fleet_policy.Halt_only ~expect:Clean ();
    scenario Testbed.Nginx ~n:8 ~canary:1 ~wave:4 ~max_unavailable:4
      ~halt:Fleet_policy.Halt_only ~expect:Clean ();
    scenario Testbed.Nginx ~n:8 ~canary:1 ~wave:2 ~max_unavailable:2
      ~halt:Fleet_policy.Halt_only ~fault_seed:conflict_seed ~fault_instance:0
      ~expect:Fault_halt ();
    scenario Testbed.Nginx ~n:8 ~canary:1 ~wave:2 ~max_unavailable:2
      ~halt:Fleet_policy.Rollback_updated ~slo_downtime_ns:1 ~expect:Slo_halt ();
  ]

let full_scenarios =
  smoke_scenarios
  @ [
      scenario Testbed.Nginx ~n:16 ~canary:2 ~wave:4 ~max_unavailable:4
        ~halt:Fleet_policy.Halt_only ~expect:Clean ();
      scenario Testbed.Nginx ~n:32 ~canary:2 ~wave:8 ~max_unavailable:8
        ~halt:Fleet_policy.Halt_only ~expect:Clean ();
      scenario Testbed.Vsftpd ~n:8 ~canary:1 ~wave:4 ~max_unavailable:4
        ~halt:Fleet_policy.Halt_only ~expect:Clean ();
      scenario Testbed.Httpd ~n:8 ~canary:1 ~wave:2 ~max_unavailable:2
        ~halt:Fleet_policy.Rollback_updated ~fault_seed:conflict_seed ~fault_instance:0
        ~expect:Fault_halt ();
    ]

let policy_of sc =
  let pol =
    Fleet_policy.default
    |> Fleet_policy.with_canary sc.canary
    |> Fleet_policy.with_wave sc.wave
    |> Fleet_policy.with_max_unavailable sc.max_unavailable
    |> Fleet_policy.with_halt sc.halt
  in
  let pol =
    match (sc.fault_seed, sc.fault_instance) with
    | Some seed, Some i -> Fleet_policy.with_fault ~seed:(Some seed) ~instances:[ i ] pol
    | _ -> pol
  in
  match sc.slo_downtime_ns with
  | Some ns ->
      Fleet_policy.with_update
        (Policy.with_slo ~downtime_ns:(Some ns) ~total_ns:None Policy.default)
        pol
  | None -> pol

let label sc =
  Printf.sprintf "%s n=%d %s" (Testbed.name sc.server) sc.n (expect_to_string sc.expect)

let measure sc =
  let fleet = Fleet.of_testbed ~policy:(policy_of sc) sc.server ~n:sc.n in
  let summary = Rollout.execute fleet in
  (fleet, summary)

let flush_summary sc (s : Fleet_flight.t) =
  Option.iter
    (fun dir ->
      Printf.printf "fleet: wrote %s\n"
        (C.write_file ~dir
           (Printf.sprintf "fleet_%s_n%d_%s.json" (Testbed.name sc.server) sc.n
              (expect_to_string sc.expect))
           (Fleet_flight.to_json s)))
    (Sys.getenv_opt "MCR_FLIGHT_DIR")

(* ------------------------------------------------------------------ *)
(* Assertions: every scenario states what its rollout must have done. *)

let base_tag sc = (Testbed.base_version sc.server).Mcr_program.Progdef.version_tag

let on_base_count fleet sc =
  let tag = base_tag sc in
  List.length
    (List.filter (fun i -> Fleet.version_tag fleet i = tag) (List.init sc.n Fun.id))

let verify fleet sc (s : Fleet_flight.t) =
  let fail fmt =
    Printf.ksprintf
      (fun msg ->
        Printf.printf "!! %s: %s\n" (label sc) msg;
        exit 1)
      fmt
  in
  match sc.expect with
  | Clean ->
      if s.Fleet_flight.fs_halted then fail "expected a clean rollout, got a halt";
      if s.Fleet_flight.fs_updated <> sc.n then
        fail "only %d/%d instances reached the target version" s.Fleet_flight.fs_updated
          sc.n;
      if s.Fleet_flight.fs_client_errors <> 0 then
        fail "%d client-visible errors during a clean rollout"
          s.Fleet_flight.fs_client_errors;
      let bound = sc.n - sc.max_unavailable in
      if s.Fleet_flight.fs_min_serving < bound then
        fail "availability dropped to %d serving, below the max-unavailable bound %d"
          s.Fleet_flight.fs_min_serving bound
  | Fault_halt ->
      if not s.Fleet_flight.fs_halted then fail "seeded canary fault did not halt";
      if s.Fleet_flight.fs_blocking = None then fail "halted without a blocking verdict";
      let untouched = on_base_count fleet sc in
      let bound = sc.n - sc.canary - sc.wave in
      if untouched < bound then
        fail "only %d instances still on %s after the halt (bound %d)" untouched
          (base_tag sc) bound
  | Slo_halt ->
      if not s.Fleet_flight.fs_halted then fail "SLO violation did not halt";
      if s.Fleet_flight.fs_blocking = None then fail "halted without a blocking verdict";
      if sc.halt = Fleet_policy.Rollback_updated then begin
        if s.Fleet_flight.fs_reverted < 1 then
          fail "halt policy rollback_updated reverted nothing";
        let untouched = on_base_count fleet sc in
        if untouched <> sc.n then
          fail "%d instances not back on %s after the rollback wave" (sc.n - untouched)
            (base_tag sc)
      end

(* ------------------------------------------------------------------ *)
(* The cell: a scenario's key fields, then what its rollout did. The gate
   fails when the outcome flips, the makespan regresses past the
   tolerance, availability sinks below the baseline floor, or client
   errors appear. *)

let scenario_of_cell cell =
  let ( let* ) = Result.bind in
  let* server = C.server_key cell in
  let* n = C.int_key "n" cell in
  let* canary = C.int_key "canary" cell in
  let* wave = C.int_key "wave" cell in
  let* max_unavailable = C.int_key "max_unavailable" cell in
  let* halt = C.enum_key "halt" Fleet_policy.halt_of_string cell in
  let* expect = C.enum_key "expect" expect_of_string cell in
  Ok
    (scenario server ~n ~canary ~wave ~max_unavailable ~halt ~expect
       ?fault_seed:(Mcr_obs.Json.int_field "fault_seed" cell)
       ?fault_instance:(Mcr_obs.Json.int_field "fault_instance" cell)
       ?slo_downtime_ns:(Mcr_obs.Json.int_field "slo_downtime_ns" cell)
       ())

let rollout =
  C.spec ~sweep:"fleet" ~key:scenario_of_cell ~label ~measure:(List.map measure)
    ~row:(fun sc (_, (s : Fleet_flight.t)) ->
      [
        C.server sc.server;
        ("n", `Int sc.n);
        ("canary", `Int sc.canary);
        ("wave", `Int sc.wave);
        ("max_unavailable", `Int sc.max_unavailable);
        ("halt", `Str (Fleet_policy.halt_to_string sc.halt));
        ("fault_seed", C.opt sc.fault_seed);
        ("fault_instance", C.opt sc.fault_instance);
        ("slo_downtime_ns", C.opt sc.slo_downtime_ns);
        ("expect", `Str (expect_to_string sc.expect));
        ("halted", `Bool s.fs_halted);
        ("updated", `Int s.fs_updated);
        ("reverted", `Int s.fs_reverted);
        ("makespan_ns", `Int s.fs_makespan_ns);
        ("min_serving", `Int s.fs_min_serving);
        ("min_availability_permille", `Int (Fleet_flight.min_availability_permille s));
        ("requests", `Int s.fs_requests);
        ("client_errors", `Int s.fs_client_errors);
      ])
    [
      C.metric ~what:"outcome" "halted" C.Same C.Flag;
      C.metric ~what:"makespan" "makespan_ns" C.Ceiling_pct C.Ms;
      C.metric ~what:"availability" "min_availability_permille" C.Floor_pct C.Permille;
      C.metric ~what:"client errors" "client_errors" C.At_most C.Count;
    ]

let family = { C.family = "fleet"; sweeps = [ C.Sweep rollout ]; finish = ignore }

let run ?(smoke = false) () =
  let scenarios = if smoke then smoke_scenarios else full_scenarios in
  Printf.printf "\n== fleet%s: canary-gated rolling update (makespan ms) ==\n"
    (if smoke then " (smoke)" else "");
  Printf.printf "%-10s %3s %-24s %-10s %9s %7s %9s %5s %6s\n" "server" "n"
    "policy" "outcome" "makespan" "updated" "min-avail" "errs" "reqs";
  let json = ref [] in
  List.iter
    (fun sc ->
      let fleet, s = measure sc in
      verify fleet sc s;
      flush_summary sc s;
      json := C.line rollout sc (fleet, s) :: !json;
      let policy_str =
        Printf.sprintf "c=%d w=%d mu=%d %s%s" sc.canary sc.wave sc.max_unavailable
          (Fleet_policy.halt_to_string sc.halt)
          (match sc.fault_seed with Some s -> Printf.sprintf " f=%d" s | None -> "")
      in
      Printf.printf "%-10s %3d %-24s %-10s %9s %3d/%-3d %6d/1000 %5d %6d\n"
        (Testbed.name sc.server) sc.n policy_str
        (if s.Fleet_flight.fs_halted then "HALTED" else "completed")
        (fms s.Fleet_flight.fs_makespan_ns)
        s.Fleet_flight.fs_updated sc.n
        (Fleet_flight.min_availability_permille s)
        s.Fleet_flight.fs_client_errors s.Fleet_flight.fs_requests)
    scenarios;
  C.write_cells ~family:"fleet" ~env:"MCR_FLEET_JSON" (List.rev !json);
  Printf.printf
    "\nfleet: %d scenario(s) ok — clean rollouts held the availability bound, seeded \
     faults halted at the canary\n"
    (List.length scenarios)
