module K = Mcr_simos.Kernel
module S = Mcr_simos.Sysdefs
module P = Mcr_program.Progdef
module Trace = Mcr_obs.Trace
module F = Mcr_fault.Fault
open Logdefs

type conflict =
  | Arg_mismatch of { pid : int; callstack : int; recorded : S.call; observed : S.call }
  | Omitted of { pid : int; callstack : int; call : S.call }
  | Unsupported of { pid : int; callstack : int; call : S.call }
  | Injected of { pid : int; callstack : int; call : S.call }

(* What matching a process's calls against its recorded log needs; only
   {!finish_proc} reads it after the replay is over, and then drops it. *)
type matching = {
  entries : entry array;
  consumed : bool array;
  queues : (int * string, int Queue.t) Hashtbl.t; (* (callstack, kind) -> indices *)
  created : (int, unit) Hashtbl.t;
}

type pstate = {
  ps_pid : int;
  ps_key : proc_key;
  touched : (int, unit) Hashtbl.t;
      (* fds participating in replay — including those an ancestor's replay
         touched before the fork (fork semantics propagate them); a child
         forked after this replay finished still copies them *)
  mutable matching : matching option; (* [None] once the replay is over *)
  mutable out_entries : entry list; (* reconstructed startup log, reversed *)
  mutable out_seq : int;
}

type t = {
  kernel : K.t;
  mutable pstates : pstate list; (* reversed creation order *)
  pstate_by_pid : (int, pstate) Hashtbl.t;
  mutable conflicts : conflict list; (* reversed *)
  pid_map : (int, int) Hashtbl.t; (* old virtual pid -> new real pid *)
  child_ordinals : (int, int) Hashtbl.t;
  inherited : (int, unit) Hashtbl.t;
  mutable replayed : int;
  mutable live : int;
  trace : Trace.t option;
  fault : F.t option;
}

let reserved_base = 1000

let conflict_kind = function
  | Arg_mismatch _ -> "arg_mismatch"
  | Omitted _ -> "omitted"
  | Unsupported _ -> "unsupported"
  | Injected _ -> "injected"

let conflict t c =
  (match c with
  | Arg_mismatch { pid; callstack; observed; _ } ->
      Trace.instant t.trace ~pid ~cat:"replay" "replay.conflict"
        ~args:
          [ ("kind", conflict_kind c); ("call", S.call_name observed);
            ("callstack", string_of_int callstack) ]
  | Omitted { pid; callstack; call }
  | Unsupported { pid; callstack; call }
  | Injected { pid; callstack; call } ->
      Trace.instant t.trace ~pid ~cat:"replay" "replay.conflict"
        ~args:
          [ ("kind", conflict_kind c); ("call", S.call_name call);
            ("callstack", string_of_int callstack) ]);
  t.conflicts <- c :: t.conflicts

let build_pstate ?parent plog_opt pid key =
  let entries =
    match plog_opt with Some (l : plog) -> Array.of_list l.entries | None -> [||]
  in
  let queues = Hashtbl.create 32 in
  Array.iteri
    (fun idx e ->
      let key = (e.callstack, S.call_name e.call) in
      let q =
        match Hashtbl.find_opt queues key with
        | Some q -> q
        | None ->
            let q = Queue.create () in
            Hashtbl.replace queues key q;
            q
      in
      Queue.push idx q)
    entries;
  let touched =
    match parent with
    | Some (p : pstate) -> Hashtbl.copy p.touched
    | None -> Hashtbl.create 16
  in
  let matching =
    {
      entries;
      consumed = Array.make (Array.length entries) false;
      queues;
      created = Hashtbl.create 16;
    }
  in
  { ps_pid = pid; ps_key = key; touched; matching = Some matching; out_entries = []; out_seq = 0 }

(* First unconsumed entry recorded at this (call-stack ID, call kind). *)
let pop_match m ~callstack call =
  match Hashtbl.find_opt m.queues (callstack, S.call_name call) with
  | None -> None
  | Some q ->
      let rec pop () =
        if Queue.is_empty q then None
        else begin
          let idx = Queue.pop q in
          if m.consumed.(idx) then pop ()
          else begin
            m.consumed.(idx) <- true;
            Some m.entries.(idx)
          end
        end
      in
      pop ()

let touch ps fd = Hashtbl.replace ps.touched fd ()

let out ps ~callstack call result =
  ps.out_seq <- ps.out_seq + 1;
  ps.out_entries <- { seq = ps.out_seq; callstack; call; result } :: ps.out_entries

let touch_result ps = function S.Ok_fd fd -> touch ps fd | _ -> ()

(* Pid-translating live execution. *)
let live_interception t call =
  match call with
  | S.Waitpid { pid } -> begin
      match Hashtbl.find_opt t.pid_map pid with
      | Some real -> K.Rewrite (S.Waitpid { pid = real })
      | None -> K.Execute
    end
  | _ -> K.Execute

(* Executed (Post/Rewrite) replays reach the process monitor, which logs
   them into the reconstructed startup log; short-circuited replays never
   execute, so they are logged here explicitly. *)
let replay_effect t ps ~callstack ~proc call (e : entry) =
  t.replayed <- t.replayed + 1;
  Trace.instant t.trace ~pid:ps.ps_pid ~cat:"replay" "replay.replayed"
    ~args:[ ("call", S.call_name call); ("callstack", string_of_int callstack) ];
  let short_circuit () =
    out ps ~callstack call e.result;
    K.Short_circuit e.result
  in
  match e.call with
  | S.Socket | S.Unix_listen _ ->
      touch_result ps e.result;
      short_circuit ()
  | S.Open { path; create } -> begin
      (* preserve the fd number but re-open for a fresh file offset (and
         fresh content — config may legitimately change between versions) *)
      match e.result with
      | S.Ok_fd fd ->
          touch ps fd;
          (* displace the inherited descriptor occupying the number *)
          K.close_fd_external t.kernel proc fd;
          K.Post (S.Open_at { path; create; force_fd = fd }, fun _ -> e.result)
      | _ -> short_circuit ()
    end
  | S.Bind { fd; _ } | S.Listen { fd; _ } ->
      touch ps fd;
      short_circuit ()
  | S.Close { fd } ->
      (* execute for real: reserved-range numbers are allocated
         monotonically, so the number is never reused (separability) even
         after an immediate close; executing keeps forked children's fd
         tables identical to the recorded run's *)
      touch ps fd;
      K.Execute
  | S.Getpid | S.Getppid -> short_circuit ()
  | S.Shmget _ ->
      (* the id carries in-kernel state with no namespace support: neither
         inheriting nor re-creating it preserves MCR semantics *)
      conflict t (Unsupported { pid = ps.ps_pid; callstack; call = e.call });
      short_circuit ()
  | S.Fork _ ->
      (* run the real fork, remember the virtual->real mapping, and give the
         program the recorded (old) child pid; the monitor logs the mapped
         result *)
      let recorded = e.result in
      K.Post
        ( e.call,
          fun real_result ->
            (match (real_result, recorded) with
            | S.Ok_pid real, S.Ok_pid virt -> Hashtbl.replace t.pid_map virt real
            | _, _ -> ());
            recorded )
  | _ ->
      (* not reachable: replay_class filters the constructors above *)
      K.Execute

let intercept t ps th call =
  match ps.matching with
  | None -> K.Execute
  | Some m ->
      K.charge t.kernel (K.costs t.kernel).Mcr_simos.Costs.replay_match_ns;
      let callstack = K.callstack_id th in
      (match t.fault with
      | Some f when F.consume f F.Replay_conflict ->
          conflict t (Injected { pid = ps.ps_pid; callstack; call })
      | _ -> ());
      match pop_match m ~callstack call with
      | Some e when replay_class e.call ->
          if deep_equal e.call call then
            replay_effect t ps ~callstack ~proc:(K.thread_proc th) call e
          else begin
            conflict t
              (Arg_mismatch { pid = ps.ps_pid; callstack; recorded = e.call; observed = call });
            K.Short_circuit e.result
          end
      | Some _ ->
          (* live-class entry: consumed for omission accounting, executed live *)
          t.live <- t.live + 1;
          Trace.instant t.trace ~pid:ps.ps_pid ~cat:"replay" "replay.live"
            ~args:[ ("call", S.call_name call); ("callstack", string_of_int callstack) ];
          live_interception t call
      | None ->
          (* a call the old version never made: execute live *)
          t.live <- t.live + 1;
          Trace.instant t.trace ~pid:ps.ps_pid ~cat:"replay" "replay.live"
            ~args:[ ("call", S.call_name call); ("callstack", string_of_int callstack);
                    ("recorded", "no") ];
          live_interception t call

(* A process reached its first quiescent point: its replay is over. *)
let finish_proc t (image : P.image) =
  let proc = image.P.i_proc in
  match Hashtbl.find_opt t.pstate_by_pid (K.pid proc) with
  | Some ({ matching = Some m; _ } as ps) ->
      ps.matching <- None;
      (* conservative omission detection: every unreplayed replay-class entry
         is a conflict (Section 5) *)
      Array.iteri
        (fun idx e ->
          if (not m.consumed.(idx)) && replay_class e.call then
            conflict t (Omitted { pid = ps.ps_pid; callstack = e.callstack; call = e.call }))
        m.entries;
      (* garbage-collect inherited descriptors neither this process's replay
         nor any ancestor's (pre-fork) replay referenced *)
      List.iter
        (fun fd ->
          if
            fd >= reserved_base && Hashtbl.mem t.inherited fd
            && (not (Hashtbl.mem ps.touched fd))
            && not (Hashtbl.mem m.created fd)
          then K.close_fd_external t.kernel proc fd)
        (K.fds proc);
      K.set_reserved_fd_mode proc false;
      (* a finished process's calls all execute: stop intercepting them *)
      K.set_interceptor proc None;
      K.set_monitor proc None
  | Some _ | None -> ()

let pstate_of t th = Hashtbl.find_opt t.pstate_by_pid (K.pid (K.thread_proc th))

let start ?trace ?fault kernel (root : P.image) ~logs ~inherited =
  let t =
    {
      kernel;
      pstates = [];
      pstate_by_pid = Hashtbl.create 8;
      conflicts = [];
      pid_map = Hashtbl.create 16;
      child_ordinals = Hashtbl.create 8;
      inherited = Hashtbl.create 16;
      replayed = 0;
      live = 0;
      trace;
      fault;
    }
  in
  List.iter (fun fd -> Hashtbl.replace t.inherited fd ()) inherited;
  (* Each key's first log in [logs]. *)
  let by_key = Hashtbl.create (List.length logs) in
  List.iter (fun l -> if not (Hashtbl.mem by_key l.key) then Hashtbl.add by_key l.key l) logs;
  let root_log = Hashtbl.find_opt by_key Root in
  (* seed the pid map with the root pair *)
  (match root_log with
  | Some l -> Hashtbl.replace t.pid_map l.pid (K.pid root.P.i_proc)
  | None -> ());
  (* the interceptor and monitor every replaying process shares *)
  let interceptor th call =
    match pstate_of t th with Some ps -> intercept t ps th call | None -> K.Execute
  in
  let monitor th call result =
    (* live fd creations are tracked for garbage-collection accounting *)
    match pstate_of t th with
    | Some ({ matching = Some m; _ } as ps) -> (
        out ps ~callstack:(K.callstack_id th) call result;
        match result with S.Ok_fd fd -> Hashtbl.replace m.created fd () | _ -> ())
    | Some _ | None -> ()
  in
  let attach ?parent (image : P.image) plog_opt key =
    let proc = image.P.i_proc in
    let ps = build_pstate ?parent plog_opt (K.pid proc) key in
    t.pstates <- ps :: t.pstates;
    Hashtbl.replace t.pstate_by_pid ps.ps_pid ps;
    K.set_reserved_fd_mode proc true;
    K.set_interceptor proc (Some interceptor);
    K.set_monitor proc (Some monitor)
  in
  attach root root_log Root;
  P.Tree.on_fork root.P.i_tree (fun child ->
      let key = child_key t.child_ordinals child.P.i_proc in
      let parent = Hashtbl.find_opt t.pstate_by_pid (K.parent_pid child.P.i_proc) in
      attach ?parent child (Hashtbl.find_opt by_key key) key);
  P.Tree.on_first_quiesce root.P.i_tree (finish_proc t);
  t

let conflicts t = List.rev t.conflicts

let replayed_calls t = t.replayed
let live_calls t = t.live

let new_logs t =
  List.rev_map
    (fun ps ->
      {
        key = ps.ps_key;
        pid = ps.ps_pid;
        entries = List.rev ps.out_entries;
        closed = Option.is_none ps.matching;
      })
    t.pstates

let pairs t = List.rev_map (fun ps -> (ps.ps_key, ps.ps_pid)) t.pstates

let pp_conflict ppf = function
  | Arg_mismatch { pid; callstack; recorded; observed } ->
      Format.fprintf ppf "pid %d cs %d: argument mismatch: recorded %a, observed %a" pid
        callstack S.pp_call recorded S.pp_call observed
  | Omitted { pid; callstack; call } ->
      Format.fprintf ppf "pid %d cs %d: recorded call omitted by new version: %a" pid callstack
        S.pp_call call
  | Unsupported { pid; callstack; call } ->
      Format.fprintf ppf
        "pid %d cs %d: %a creates an immutable object with no namespace support" pid callstack
        S.pp_call call
  | Injected { pid; callstack; call } ->
      Format.fprintf ppf "pid %d cs %d: injected replay conflict at %a" pid callstack
        S.pp_call call

let rollback_reason t =
  match t.conflicts with [] -> None | _ :: _ -> Some Mcr_error.Reinit_conflict
