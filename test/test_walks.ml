(* Version walks: a server launched at its first version and live-updated
   hop by hop over its own series, forward, backward or in place. After
   every hop each heap of every live process must validate, and
   [Manager.update] must have returned rather than raised.

   The named walks are the ones that once corrupted a heap: on a backward
   hop the new version's heap is built at an address an [mcr:pin] region
   held in the old version, and the transfer then copied the pinned words
   over the fresh heap's block headers while the update reported success.
   The fleet case reverts a canary by exactly such a backward update. The
   property draws random walks from a seed ([QCHECK_SEED]). *)

module K = Mcr_simos.Kernel
module P = Mcr_program.Progdef
module Heap = Mcr_alloc.Heap
module Manager = Mcr_core.Manager
module Policy = Mcr_core.Policy
module Fleet = Mcr_fleet.Fleet
module Fleet_policy = Mcr_fleet.Fleet_policy
module Rollout = Mcr_fleet.Rollout
module Fleet_flight = Mcr_obs.Fleet_flight
module Testbed = Mcr_workloads.Testbed
module Loader = Mcr_program.Loader
module Aspace = Mcr_vmem.Aspace
module Region = Mcr_vmem.Region
module Objgraph = Mcr_trace.Objgraph
module Transfer = Mcr_trace.Transfer

(* Every heap error of every live process, one line each. *)
let heap_errors m =
  List.concat_map
    (fun (im : P.image) ->
      List.filter_map
        (fun (name, h) ->
          match Heap.validate h with
          | Ok () -> None
          | Error e -> Some (Printf.sprintf "pid %d %s: %s" (K.pid im.P.i_proc) name e))
        [ ("heap", im.P.i_heap); ("libheap", im.P.i_lib_heap) ])
    (Manager.images m)

(* Walk [server] from version 0 through the series indices [hops]; the
   first hop that raises or leaves an invalid heap, described. *)
let walk server hops =
  let series = Array.of_list (Testbed.version_series server) in
  let m = Testbed.launch (K.create ()) server in
  let rec go m at = function
    | [] -> Ok ()
    | i :: rest -> (
        let hop = Printf.sprintf "%s %d -> %d" (Testbed.name server) at i in
        match Manager.update m series.(i) with
        | exception e -> Error (Printf.sprintf "%s raised %s" hop (Printexc.to_string e))
        | m', report -> (
            match heap_errors m' with
            | [] -> go m' (if report.Manager.success then i else at) rest
            | errs -> Error (String.concat "; " (hop :: errs))))
  in
  go m 0 hops

let check_walk server hops () =
  match walk server hops with Ok () -> () | Error e -> Alcotest.fail e

(* The fleet smoke's SLO halt: the canary commits, breaks a 1 ns downtime
   budget, and the rollback_updated halt reverts it by a backward update. *)
let test_fleet_rollback_updated () =
  let policy =
    Fleet_policy.default |> Fleet_policy.with_canary 1 |> Fleet_policy.with_wave 2
    |> Fleet_policy.with_max_unavailable 2
    |> Fleet_policy.with_halt Fleet_policy.Rollback_updated
    |> Fleet_policy.with_update
         (Policy.with_slo ~downtime_ns:(Some 1) ~total_ns:None Policy.default)
  in
  let n = 8 in
  let fleet = Fleet.of_testbed ~policy Testbed.Nginx ~n in
  let s = Rollout.execute fleet in
  Alcotest.(check bool) "halted" true s.Fleet_flight.fs_halted;
  Alcotest.(check int) "canary reverted" 1 s.Fleet_flight.fs_reverted;
  for i = 0 to n - 1 do
    Alcotest.(check (list string))
      (Printf.sprintf "instance %d heaps" i)
      []
      (heap_errors (Fleet.manager fleet i))
  done

(* After nginx 0 -> 1, v1 holds v0's lib objects in [mcr:pin] pages where
   v0 maps its lib heap. A v0 image launched without those pages reserved
   builds its lib heap there, and planning the transfer back names the
   overlap; launched with the old pins reserved, it plans no conflict. *)
let test_pin_overlap () =
  let kernel = K.create () in
  let series = Array.of_list (Testbed.version_series Testbed.Nginx) in
  let m1, report = Manager.update (Testbed.launch kernel Testbed.Nginx) series.(1) in
  Alcotest.(check bool) "0 -> 1 commits" true report.Manager.success;
  let old_image = Manager.root_image m1 in
  let pins =
    List.filter
      (fun (r : Region.t) -> r.Region.name = Objgraph.pin_region)
      (Aspace.regions old_image.P.i_aspace)
  in
  Alcotest.(check bool) "v1 holds pins" true (pins <> []);
  let overlaps reserved =
    let new_image = P.image_of_proc_exn (Loader.launch kernel ~reserved series.(0)) in
    let analysis = Objgraph.analyze old_image in
    List.filter_map
      (function
        | Transfer.Pin_overlap { region; source; _ } -> Some (region ^ " over " ^ source)
        | _ -> None)
      (Transfer.planned_conflicts (Transfer.plan ~old_image ~new_image ~analysis ()))
  in
  Alcotest.(check bool) "unreserved: the lib heap overlaps a pin" true
    (List.mem "libheap over mcr:pin" (overlaps []));
  Alcotest.(check (list string)) "reserved: no overlap" [] (overlaps pins)

(* A random walk: a server and six hops over its own series. *)
let gen_walk =
  QCheck.Gen.(
    let* server = oneofl Testbed.all in
    let n = List.length (Testbed.version_series server) in
    let+ hops = list_repeat 6 (int_bound (n - 1)) in
    (server, hops))

let print_walk (server, hops) =
  Printf.sprintf "%s 0 -> %s" (Testbed.name server)
    (String.concat " -> " (List.map string_of_int hops))

let prop_walks =
  QCheck.Test.make ~name:"random version walks keep every heap valid" ~count:12 ~long_factor:10
    (QCheck.make ~print:print_walk
       ~shrink:(fun (server, hops) ->
         QCheck.Iter.map (fun h -> (server, h)) (QCheck.Shrink.list hops))
       gen_walk)
    (fun (server, hops) ->
      match walk server hops with
      | Ok () -> true
      | Error e -> QCheck.Test.fail_report e)

let () =
  Alcotest.run "mcr_walks"
    [
      ( "walks",
        [
          Alcotest.test_case "nginx 0-1-0-1" `Quick (check_walk Testbed.Nginx [ 1; 0; 1 ]);
          Alcotest.test_case "sshd 0-1-0-1" `Quick (check_walk Testbed.Sshd [ 1; 0; 1 ]);
          Alcotest.test_case "sshd 0-2-0" `Quick (check_walk Testbed.Sshd [ 2; 0 ]);
          Alcotest.test_case "nginx 0-25-0-25" `Quick (check_walk Testbed.Nginx [ 25; 0; 25 ]);
          Alcotest.test_case "fleet rollback_updated halt" `Quick test_fleet_rollback_updated;
          Alcotest.test_case "pin on a live heap is a conflict" `Quick test_pin_overlap;
        ] );
      ("property", [ QCheck_alcotest.to_alcotest prop_walks ]);
    ]
