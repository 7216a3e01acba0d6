(* The transfer scenarios pinned by golden/transfer_outcomes.golden: the
   Listing 1 update in its four shapes (plain, with a transfer handler, a
   nonupdatable type change that rolls back, and with no requests so that
   every object is clean), each Testbed server under five policies, vsftpd
   with multi-page session buffers under the zero-copy remap, and two fault
   seeds that reach the transfer (an injected transfer conflict
   and a forced likely-pointer misclassification). Every scenario is
   deterministic: the same scenario renders the same text on every run. *)

module K = Mcr_simos.Kernel
module S = Mcr_simos.Sysdefs
module P = Mcr_program.Progdef
module Manager = Mcr_core.Manager
module Policy = Mcr_core.Policy
module Transfer = Mcr_trace.Transfer
module Testbed = Mcr_workloads.Testbed
module Listing1 = Mcr_servers.Listing1
module Aspace = Mcr_vmem.Aspace
module Image = Mcr_image.Image

type t = {
  name : string;
  boot : K.t -> P.version -> Manager.t;
      (** Launch a version of the scenario's program and drive it to
          quiescent startup. *)
  load : K.t -> unit;  (** What the old version serves before the update. *)
  v1 : P.version;
  v2 : P.version;
  policy : Policy.t;
}

let drive kernel pred =
  ignore (K.run_until kernel ~max_ns:(K.clock_ns kernel + 60_000_000_000) pred)

let listing1_request kernel =
  let p =
    K.spawn_process kernel ~image:(K.Fresh_image (Aspace.create ())) ~name:"c" ~entry:"main"
      ~main:(fun _ ->
        let rec connect n =
          match K.syscall (S.Connect { port = Listing1.port }) with
          | S.Ok_fd fd -> Some fd
          | S.Err S.ECONNREFUSED when n > 0 ->
              ignore (K.syscall (S.Nanosleep { ns = 1_000_000 }));
              connect (n - 1)
          | _ -> None
        in
        match connect 100 with
        | Some fd ->
            ignore (K.syscall (S.Write { fd; data = "GET /" }));
            ignore (K.syscall (S.Read { fd; max = 256; nonblock = false }))
        | None -> ())
      ()
  in
  drive kernel (fun () -> not (K.alive p))

let listing1 ?(requests = 3) ?(policy = Policy.default) name variant =
  {
    name;
    boot =
      (fun kernel version ->
        K.fs_write kernel ~path:Listing1.config_path "welcome=hi";
        let m = Manager.launch kernel version in
        assert (Manager.wait_startup m ());
        m);
    load =
      (fun kernel ->
        for _ = 1 to requests do
          listing1_request kernel
        done);
    v1 = Listing1.v1 ();
    v2 = Listing1.v2 ~variant ();
    policy;
  }

let testbed ?config server (pname, policy) =
  {
    name = Testbed.name server ^ " " ^ pname;
    boot = (fun kernel version -> Testbed.launch ?config ~version kernel server);
    load =
      (fun kernel ->
        ignore (Testbed.benchmark kernel server ~scale:2000 ());
        ignore (Testbed.open_holders kernel server ~n:2));
    v1 = Testbed.base_version server;
    v2 = Testbed.final_version server;
    policy;
  }

let policies =
  let d = Policy.default in
  [
    ("default", d);
    ("full", Policy.with_dirty_only false d);
    ("W=4", Policy.with_transfer_workers 4 d);
    ("remap", Policy.with_transfer_remap true d);
    ("precopy", Policy.with_precopy true d);
  ]

(* Fault.of_seed 3 arms Transfer_conflict; seed 2 arms
   Likely_misclassification. *)
let fault_seed seed = Policy.with_fault_seed (Some seed) Policy.default

let all () =
  [
    listing1 "listing1 normal" `Normal;
    listing1 "listing1 with-handler" `With_handler;
    listing1 "listing1 change-hidden" `Change_hidden;
    listing1 ~requests:0 "listing1 no-requests" `Normal;
  ]
  @ List.concat_map (fun s -> List.map (testbed s) policies) Testbed.all
  @ [
      (* multi-page session buffers, so the remap shares frames *)
      testbed ~config:"anonymous_enable=NO\nsession_buffer_words 4096" Testbed.Vsftpd
        ("remap 4096-word buffers", Policy.with_transfer_remap true Policy.default);
      listing1 ~policy:(fault_seed 3) "listing1 fault-seed 3 (transfer conflict)" `Normal;
      listing1 ~policy:(fault_seed 2) "listing1 fault-seed 2 (likely misclassification)"
        `Normal;
    ]

(* The old version, booted and loaded, in a kernel of its own. *)
let old_side s =
  let kernel = K.create () in
  let m = s.boot kernel s.v1 in
  s.load kernel;
  m

let ints a = String.concat "," (Array.to_list (Array.map string_of_int a))

let outcome_line key (o : Transfer.outcome) =
  Printf.sprintf
    "pair %s transferred_objects=%d transferred_words=%d skipped_clean=%d \
     skipped_clean_words=%d immutable_remapped=%d fresh_allocations=%d type_transformed=%d \
     dangling_zeroed=%d conflicts=%d cost_ns=%d live_words=%d precopied_objects=%d \
     precopied_words=%d remapped_pages=%d remapped_words=%d hashed_words=%d workers=%d \
     shard_words=[%s] shard_cost_ns=[%s] trace_shard_ns=[%s] trace_critical_ns=%d \
     sequential_cost_ns=%d"
    key o.Transfer.transferred_objects o.transferred_words o.skipped_clean
    o.skipped_clean_words o.immutable_remapped o.fresh_allocations o.type_transformed
    o.dangling_zeroed (List.length o.conflicts) o.cost_ns o.live_words o.precopied_objects
    o.precopied_words o.remapped_pages o.remapped_words o.hashed_words o.workers
    (ints o.shard_words) (ints o.shard_cost_ns) (ints o.trace_shard_ns) o.trace_critical_ns
    o.sequential_cost_ns

let conflict_lines c =
  let co = Transfer.conflict_obj c in
  [
    Format.asprintf "  conflict %a" Transfer.pp_conflict c;
    Printf.sprintf "    kind=%s addr=%#x ty=%s callstack=%d shard=%d round=%d detail=%s"
      co.Mcr_error.co_kind co.co_addr
      (Option.value co.co_ty ~default:"-")
      co.co_callstack co.co_shard co.co_round co.co_detail;
  ]

(* One scenario through Manager.update: every pair's outcome and
   conflicts, then the fingerprint of every new member on commit. *)
let render s =
  let m = old_side s in
  let m2, r = Manager.update m ~policy:s.policy s.v2 in
  let pairs =
    List.concat_map
      (fun (key, o) ->
        outcome_line (Format.asprintf "%a" Mcr_replay.Logdefs.pp_key key) o
        :: List.concat_map conflict_lines o.Transfer.conflicts)
      r.Manager.transfers
  in
  let members =
    if not r.Manager.success then []
    else
      List.map
        (fun (im : P.image) ->
          Printf.sprintf "  member pid=%d fingerprint=%#x" (K.pid im.P.i_proc)
            (Image.aspace_fingerprint ~prog:im.P.i_version.P.prog (K.aspace im.P.i_proc)))
        (Manager.images m2)
  in
  (("== " ^ s.name)
   :: Printf.sprintf "success=%b failure=%s" r.Manager.success
        (Option.fold ~none:"-" ~some:Mcr_error.to_string r.Manager.failure)
   :: pairs)
  @ members
