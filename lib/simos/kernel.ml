module S = Sysdefs
module Aspace = Mcr_vmem.Aspace

type payload = ..

(* ------------------------------------------------------------------ *)
(* Kernel object model *)

type endpoint = {
  inbox : string Queue.t;
  mutable peer : endpoint option;
  mutable local_closed : bool;
  mutable ep_waiters : waiter list;
}

and listener = {
  backlog_q : endpoint Queue.t;
  backlog : int;
  l_addr : addr;
  mutable l_waiters : waiter list;
  mutable l_closed : bool;
  mutable l_parked : bool;
  parked_q : endpoint Queue.t;
      (* SYN-queue analog: while parked, new connections accumulate here —
         established from the client's point of view but invisible to
         Accept/Poll — and move FIFO into [backlog_q] on unpark. *)
}

and addr = Port of int | Path of string

and tcp_role = Unbound | Bound of addr | Listening of listener | Stream of endpoint

and kobj = Tcp of { mutable role : tcp_role } | File of { f_path : string; mutable offset : int }

and desc = { mutable refs : int; obj : kobj }

and waiter = {
  w_thread : thread;
  mutable fired : bool;
  check : unit -> S.result option;
  deliver : S.result -> unit;
}

and tstate = Running | Blocked of S.call | Finished

and thread = {
  t_tid : int;
  t_name : string;
  t_proc : proc;
  mutable t_state : tstate;
  mutable t_stack : string list;
  mutable t_result_map : (S.result -> S.result) option;
  mutable t_call_report : S.call option; (* original call for monitors under Rewrite/Post *)
  mutable t_blocked_since : int;
}

and proc = {
  p_pid : int;
  p_ppid : int;
  p_name : string;
  (* [None] once the process has exited: a dead process keeps only its
     identity, its status and its initial thread. *)
  mutable p_aspace : Aspace.t option;
  (* Made at the first install, [None] again once the process has exited. *)
  mutable p_fdt : (int, desc) Hashtbl.t option;
  mutable p_reserved_mode : bool;
  mutable p_next_reserved : int;
  mutable p_alive : bool;
  mutable p_status : int option;
  mutable p_threads : thread list; (* reversed creation order *)
  mutable p_resolver : (string -> (thread -> unit) option) option;
  mutable p_interceptor : (thread -> S.call -> interception) option;
  mutable p_monitor : (thread -> S.call -> S.result -> unit) option;
  mutable p_payload : payload option;
  mutable p_exit_waiters : waiter list;
  p_creation_callstack : int;
}

and interception =
  | Execute
  | Short_circuit of S.result
  | Rewrite of S.call
  | Post of S.call * (S.result -> S.result)

(* Binary min-heap of pending timers, keyed (time, insertion seq) so equal
   deadlines fire in insertion order — exactly the order the previous
   sorted-list representation (stable merge, existing entries first)
   produced. The heap turns the O(n) insert that dominated 10k-client
   retry storms into O(log n) without changing any schedule. *)
module Theap = struct
  type entry = { at : int; seq : int; fn : unit -> unit }
  type h = { mutable arr : entry array; mutable n : int; mutable next_seq : int }

  let dummy = { at = 0; seq = 0; fn = ignore }
  let create () = { arr = Array.make 64 dummy; n = 0; next_seq = 0 }
  let is_empty h = h.n = 0
  let lt a b = a.at < b.at || (a.at = b.at && a.seq < b.seq)

  let push h ~at fn =
    if h.n = Array.length h.arr then begin
      let bigger = Array.make (2 * h.n) dummy in
      Array.blit h.arr 0 bigger 0 h.n;
      h.arr <- bigger
    end;
    let e = { at; seq = h.next_seq; fn } in
    h.next_seq <- h.next_seq + 1;
    let i = ref h.n in
    h.n <- h.n + 1;
    h.arr.(!i) <- e;
    let continue = ref true in
    while !continue && !i > 0 do
      let parent = (!i - 1) / 2 in
      if lt h.arr.(!i) h.arr.(parent) then begin
        let tmp = h.arr.(parent) in
        h.arr.(parent) <- h.arr.(!i);
        h.arr.(!i) <- tmp;
        i := parent
      end
      else continue := false
    done

  let pop h =
    if h.n = 0 then None
    else begin
      let top = h.arr.(0) in
      h.n <- h.n - 1;
      h.arr.(0) <- h.arr.(h.n);
      h.arr.(h.n) <- dummy;
      let i = ref 0 in
      let continue = ref true in
      while !continue do
        let l = (2 * !i) + 1 and r = (2 * !i) + 2 in
        let smallest = ref !i in
        if l < h.n && lt h.arr.(l) h.arr.(!smallest) then smallest := l;
        if r < h.n && lt h.arr.(r) h.arr.(!smallest) then smallest := r;
        if !smallest = !i then continue := false
        else begin
          let tmp = h.arr.(!smallest) in
          h.arr.(!smallest) <- h.arr.(!i);
          h.arr.(!i) <- tmp;
          i := !smallest
        end
      done;
      Some top
    end

  let peek_at h = if h.n = 0 then None else Some h.arr.(0).at
end

type t = {
  costs : Costs.t;
  mutable clock : int;
  mutable idle : int;
  runq : (unit -> unit) Queue.t;
  timers : Theap.h;
  mutable next_pid : int;
  mutable next_tid : int;
  mutable all_procs : proc list; (* reversed creation order *)
  by_pid : (int, proc) Hashtbl.t; (* dead ones too: [Waitpid] reads their status *)
  ports : (int, desc) Hashtbl.t;
  paths : (string, desc) Hashtbl.t;
  sems : (string, sem) Hashtbl.t;
  fs : (string, string) Hashtbl.t;
  mutable block_monitor : (thread -> S.call -> blocked_ns:int -> unit) option;
  mutable spawn_hook : (proc -> unit) option;
  mutable exit_hook : (proc -> unit) option;
  mutable fault_hook : (thread -> S.call -> S.result option) option;
  shm_ids : (int, int) Hashtbl.t; (* key -> globally-unique id; no namespaces *)
  mutable next_shm_id : int;
  (* Connection-parking conservation ledger: every parked connection is
     eventually resumed or aborted — [parked = resumed + aborted + still
     queued] at all times. *)
  mutable parked_total : int;
  mutable resumed_total : int;
  mutable aborted_total : int;
}

and sem = { mutable count : int; mutable sem_waiters : waiter list }

type image = Fresh_image of Aspace.t | Clone_image of proc

type _ Effect.t += Sys : S.call -> S.result Effect.t

(* What a completed call resumes: the fiber suspended in it, or, for a
   thread's first call made before it had a fiber, its body, which starts
   then. *)
type resume =
  | Fiber of (S.result, unit) Effect.Deep.continuation
  | Start of t * thread * (thread -> unit)

let create ?(costs = Costs.default) () =
  {
    costs;
    clock = 0;
    idle = 0;
    runq = Queue.create ();
    timers = Theap.create ();
    next_pid = 1;
    next_tid = 1;
    all_procs = [];
    by_pid = Hashtbl.create 64;
    ports = Hashtbl.create 16;
    paths = Hashtbl.create 16;
    sems = Hashtbl.create 16;
    fs = Hashtbl.create 16;
    block_monitor = None;
    spawn_hook = None;
    exit_hook = None;
    fault_hook = None;
    shm_ids = Hashtbl.create 8;
    next_shm_id = 100;
    parked_total = 0;
    resumed_total = 0;
    aborted_total = 0;
  }

let clock_ns t = t.clock
let costs t = t.costs
let idle_ns t = t.idle
let charge t ns = t.clock <- t.clock + ns

(* ------------------------------------------------------------------ *)
(* Filesystem *)

let fs_write t ~path data = Hashtbl.replace t.fs path data
let fs_read t ~path = Hashtbl.find_opt t.fs path
let fs_exists t ~path = Hashtbl.mem t.fs path

(* ------------------------------------------------------------------ *)
(* Scheduling primitives *)

let schedule t job = Queue.push job t.runq

let add_timer t ~at f = Theap.push t.timers ~at f

(* Run one scheduling step. [deadline] stops the clock from jumping past a
   horizon. Returns false when there is nothing left to do (before the
   deadline). *)
let step t ?deadline () =
  if not (Queue.is_empty t.runq) then begin
    charge t t.costs.Costs.switch_ns;
    (Queue.pop t.runq) ();
    true
  end
  else
    match Theap.peek_at t.timers with
    | None -> false
    | Some time -> begin
        match deadline with
        | Some d when time > d ->
            t.clock <- max t.clock d;
            false
        | _ ->
            if time > t.clock then t.idle <- t.idle + (time - t.clock);
            t.clock <- max t.clock time;
            (match Theap.pop t.timers with
            | Some e -> e.Theap.fn ()
            | None -> assert false);
            true
      end

let run t = while step t () do () done

let run_until t ?max_ns pred =
  let deadline = Option.map (fun ns -> ns) max_ns in
  let rec loop () =
    if pred () then true
    else
      let continue_ =
        match deadline with
        | Some d when t.clock >= d -> false
        | _ -> step t ?deadline ()
      in
      if continue_ then loop () else pred ()
  in
  loop ()

let run_for t ns =
  let deadline = t.clock + ns in
  while t.clock < deadline && step t ~deadline () do () done

(* Charge [ns] of coordinator-side work (a state-transfer copy) while the
   rest of the machine stays live: the copy occupies one core, so runnable
   threads and due timers — client processes are separate machines whose
   retry timers do not stop for a server-side copy — keep dispatching as
   the window elapses. A plain [charge] freezes them: every timer pending
   at the start of the window leapfrogs to its end, which erases exactly
   the client-side retry dynamics an update window causes. *)
let charge_concurrent t ns =
  let deadline = t.clock + ns in
  run_for t ns;
  if t.clock < deadline then t.clock <- deadline

let quiescent_system t = Queue.is_empty t.runq && Theap.is_empty t.timers

(* ------------------------------------------------------------------ *)
(* Waiters *)

let try_fire w =
  if (not w.fired) && w.w_thread.t_proc.p_alive then
    match w.check () with
    | Some r ->
        w.fired <- true;
        w.deliver r
    | None -> ()

let fire_timeout w r =
  if (not w.fired) && w.w_thread.t_proc.p_alive then begin
    w.fired <- true;
    w.deliver r
  end

let notify_waiters get set obj =
  let ws = get obj in
  set obj (List.filter (fun w -> not w.fired) ws);
  List.iter try_fire (get obj)

let notify_endpoint ep =
  notify_waiters (fun e -> e.ep_waiters) (fun e ws -> e.ep_waiters <- ws) ep

let notify_listener l =
  notify_waiters (fun l -> l.l_waiters) (fun l ws -> l.l_waiters <- ws) l

let notify_sem s =
  notify_waiters (fun s -> s.sem_waiters) (fun s ws -> s.sem_waiters <- ws) s

(* Named semaphores come into existence at their first use. *)
let sem_named t name =
  match Hashtbl.find_opt t.sems name with
  | Some s -> s
  | None ->
      let s = { count = 0; sem_waiters = [] } in
      Hashtbl.replace t.sems name s;
      s

let post_semaphore t name =
  let sem = sem_named t name in
  sem.count <- sem.count + 1;
  notify_sem sem

(* ------------------------------------------------------------------ *)
(* Processes and fds *)

let pid p = p.p_pid
let parent_pid p = p.p_ppid
let proc_name p = p.p_name
let aspace p = match p.p_aspace with Some asp -> asp | None -> Aspace.create ()
let alive p = p.p_alive
let exit_status p = p.p_status
let procs t = List.rev t.all_procs
let find_proc t pid = Hashtbl.find_opt t.by_pid pid

let register t p =
  t.all_procs <- p :: t.all_procs;
  Hashtbl.replace t.by_pid p.p_pid p

let proc_threads p = List.rev p.p_threads
let payload p = p.p_payload
let set_payload p v = p.p_payload <- Some v
let creation_callstack p = p.p_creation_callstack
let set_entry_resolver p r = p.p_resolver <- Some r
let set_interceptor p i = p.p_interceptor <- i
let set_monitor p m = p.p_monitor <- m
let set_block_monitor t m = t.block_monitor <- m
let set_reserved_fd_mode p b = p.p_reserved_mode <- b

let fold_fds p f init = match p.p_fdt with Some h -> Hashtbl.fold f h init | None -> init
let fds p = fold_fds p (fun fd _ acc -> fd :: acc) [] |> List.sort compare

(* The table an install goes into, made on the first. A descriptor
   passed to a process after its exit ({!transfer_fd}) gets a table of the
   process's own, which nothing else can reach. *)
let fdt_for_install p =
  match p.p_fdt with
  | Some h -> h
  | None ->
      let h = Hashtbl.create 16 in
      p.p_fdt <- Some h;
      h

let reserved_fd_base = 1000

let alloc_fd p desc =
  let fdt = fdt_for_install p in
  let fd =
    if p.p_reserved_mode then begin
      let fd = p.p_next_reserved in
      p.p_next_reserved <- fd + 1;
      fd
    end
    else begin
      let rec find n = if Hashtbl.mem fdt n then find (n + 1) else n in
      find 3
    end
  in
  Hashtbl.replace fdt fd desc;
  fd

let find_fd p fd = match p.p_fdt with Some h -> Hashtbl.find_opt h fd | None -> None

let install_fd_at p fd desc =
  if find_fd p fd <> None then Error S.EEXIST
  else begin
    Hashtbl.replace (fdt_for_install p) fd desc;
    if fd >= p.p_next_reserved then p.p_next_reserved <- fd + 1;
    Ok fd
  end

let close_endpoint ep =
  ep.local_closed <- true;
  match ep.peer with Some peer -> notify_endpoint peer | None -> ()

let release_desc t desc =
  desc.refs <- desc.refs - 1;
  if desc.refs = 0 then
    match desc.obj with
    | Tcp r -> begin
        match r.role with
        | Stream ep -> close_endpoint ep
        | Listening l ->
            l.l_closed <- true;
            (match l.l_addr with
            | Port port -> Hashtbl.remove t.ports port
            | Path _ ->
                (* AF_UNIX fidelity: closing the listener does not remove
                   the socket's filesystem name — a later Unix_listen on
                   the same path gets EADDRINUSE until someone unlinks it
                   (see unlink_path) *)
                ());
            Queue.iter close_endpoint l.backlog_q;
            Queue.clear l.backlog_q;
            (* Parked connections that never reached an accept queue are
               aborted, not lost silently — the conservation ledger records
               them. *)
            t.aborted_total <- t.aborted_total + Queue.length l.parked_q;
            Queue.iter close_endpoint l.parked_q;
            Queue.clear l.parked_q
        | Bound (Port port) -> Hashtbl.remove t.ports port
        | Bound (Path _) -> ()
        | Unbound -> ()
      end
    | File _ -> ()

let close_fd t p fd =
  match find_fd p fd with
  | None -> Error S.EBADF
  | Some desc ->
      Option.iter (fun h -> Hashtbl.remove h fd) p.p_fdt;
      release_desc t desc;
      Ok ()

let process_exit t p status =
  if p.p_alive then begin
    p.p_alive <- false;
    (match t.exit_hook with Some h -> h p | None -> ());
    p.p_status <- Some status;
    List.iter (fun th -> th.t_state <- Finished) p.p_threads;
    List.iter (fun fd -> ignore (close_fd t p fd)) (fds p);
    p.p_fdt <- None;
    (* drops every frame reference, shared ones included *)
    Option.iter
      (fun asp -> List.iter (fun r -> Aspace.unmap asp r.Mcr_vmem.Region.base) (Aspace.regions asp))
      p.p_aspace;
    p.p_aspace <- None;
    (* the initial thread names the process (its entry); the others go *)
    (match List.rev p.p_threads with m :: _ :: _ -> p.p_threads <- [ m ] | _ -> ());
    p.p_payload <- None;
    p.p_interceptor <- None;
    p.p_monitor <- None;
    p.p_resolver <- None;
    (* every waiter fires now, or belongs to an exited process and never will *)
    let ws = p.p_exit_waiters in
    p.p_exit_waiters <- [];
    List.iter try_fire ws
  end

let kill_process t p ~status = process_exit t p status

(* ------------------------------------------------------------------ *)
(* Connections *)

let new_listener addr ~backlog =
  {
    backlog_q = Queue.create ();
    backlog;
    l_addr = addr;
    l_waiters = [];
    l_closed = false;
    l_parked = false;
    parked_q = Queue.create ();
  }

let stream_desc ep = { refs = 1; obj = Tcp { role = Stream ep } }

(* Connect [p] to the listener behind [desc] (TCP or Unix-domain; a Unix
   listener's backlog is unbounded). The handshake completes at once: the
   server end joins the accept backlog, or, while the listener is parked,
   the SYN-queue analog — invisible to Accept and Poll until unpark. *)
let connect t p desc =
  match desc with
  | Some { obj = Tcp { role = Listening l }; _ } when not l.l_closed ->
      if (not l.l_parked) && Queue.length l.backlog_q >= l.backlog then S.Err S.ECONNREFUSED
      else begin
        let endpoint peer = { inbox = Queue.create (); peer; local_closed = false; ep_waiters = [] } in
        let client_ep = endpoint None in
        let server_ep = endpoint (Some client_ep) in
        client_ep.peer <- Some server_ep;
        if l.l_parked then begin
          Queue.push server_ep l.parked_q;
          t.parked_total <- t.parked_total + 1
        end
        else begin
          Queue.push server_ep l.backlog_q;
          notify_listener l
        end;
        S.Ok_fd (alloc_fd p (stream_desc client_ep))
      end
  | Some _ | None -> S.Err S.ECONNREFUSED

(* ------------------------------------------------------------------ *)
(* Threads *)

let tid th = th.t_tid
let thread_name th = th.t_name
let thread_proc th = th.t_proc
let thread_alive th = th.t_state <> Finished
let push_frame th name = th.t_stack <- name :: th.t_stack
let pop_frame th = match th.t_stack with [] -> () | _ :: rest -> th.t_stack <- rest
let callstack th = th.t_stack
let callstack_id th = Mcr_util.Fnv.strings (List.rev th.t_stack)

let blocked_in th = match th.t_state with Blocked c -> Some c | Running | Finished -> None

let blocked_since th =
  match th.t_state with Blocked _ -> Some th.t_blocked_since | Running | Finished -> None

let syscall call = Effect.perform (Sys call)

(* Mutual recursion: starting threads needs the syscall handler, which can
   fork, which starts threads. *)

let rec start_thread ?first_call t (th : thread) body =
  schedule t (fun () ->
      if th.t_proc.p_alive then
        let first = match first_call with Some f -> f th | None -> None in
        match first with
        | Some call -> handle_syscall t th call (Start (t, th, body))
        | None -> run_fiber t th body)

and run_fiber t th body =
  let open Effect.Deep in
  (* One handler per fiber, not a closure and an option per call: [effc]
     leaves the call in [pending], and the runtime applies the handler to
     the continuation at once, before the fiber can perform again. *)
  let pending = ref S.Getpid in
  let on_sys = Some (fun k -> handle_syscall t th !pending (Fiber k)) in
  match_with
    (fun () ->
      body th;
      th.t_state <- Finished;
      (* C semantics: the initial thread returning ends the process *)
      if th.t_tid = (match List.rev th.t_proc.p_threads with m :: _ -> m.t_tid | [] -> th.t_tid)
      then process_exit t th.t_proc 0)
    ()
    {
      retc = Fun.id;
      exnc =
        (fun e ->
          th.t_state <- Finished;
          match e with
          | S.Program_exit status -> process_exit t th.t_proc status
          | e ->
              Logs.err (fun m ->
                  m "thread %s/%d crashed: %s" th.t_name th.t_tid (Printexc.to_string e));
              process_exit t th.t_proc 139);
      effc =
        (fun (type a) (eff : a Effect.t) ->
          match eff with
          | Sys call ->
              pending := call;
              (* the Sys match refines a = S.result *)
              (on_sys : ((a, unit) continuation -> unit) option)
          | _ -> None);
    }

(* The job that resumes a thread with [r]. A fiber's job captures only its
   continuation and [r], as a job that continued it directly would. *)
and resume k r =
  match k with
  | Fiber k -> fun () -> Effect.Deep.continue k r
  | Start (t, th, body) -> fun () -> run_fiber t th body

and make_thread t p ~name =
  let th = { t_tid = t.next_tid; t_name = name; t_proc = p; t_state = Running; t_stack = []; t_result_map = None; t_call_report = None; t_blocked_since = 0 } in
  t.next_tid <- t.next_tid + 1;
  p.p_threads <- th :: p.p_threads;
  th

and spawn_thread t p ~name body =
  charge t t.costs.Costs.spawn_ns;
  let th = make_thread t p ~name in
  start_thread t th body;
  th

(* The one constructor of a process. [creation_cs] is the call-stack id of
   the thread whose [Fork] creates it; [spawn_process] passes 0. *)
and new_process t ?parent ?force_pid ?first_call ~creation_cs ~image ~name ~entry ~main () =
  charge t t.costs.Costs.spawn_ns;
  let pid =
    match force_pid with
    | Some pid ->
        if Hashtbl.mem t.by_pid pid then
          invalid_arg (Printf.sprintf "spawn_process: pid %d already in use" pid)
        else begin
          if pid >= t.next_pid then t.next_pid <- pid + 1;
          pid
        end
    | None ->
        let pid = t.next_pid in
        t.next_pid <- pid + 1;
        pid
  in
  let asp, fdt =
    match image with
    | Fresh_image asp -> (asp, None)
    | Clone_image src ->
        let fdt = Option.map Hashtbl.copy src.p_fdt in
        Option.iter (Hashtbl.iter (fun _ d -> d.refs <- d.refs + 1)) fdt;
        (Aspace.clone (aspace src), fdt)
  in
  let p =
    {
      p_pid = pid;
      p_ppid = (match parent with Some pp -> pp.p_pid | None -> 0);
      p_name = name;
      p_aspace = Some asp;
      p_fdt = fdt;
      p_reserved_mode = (match parent with Some pp -> pp.p_reserved_mode | None -> false);
      p_next_reserved = (match parent with Some pp -> pp.p_next_reserved | None -> reserved_fd_base);
      p_alive = true;
      p_status = None;
      p_threads = [];
      p_resolver = (match parent with Some pp -> pp.p_resolver | None -> None);
      p_interceptor = None;
      p_monitor = None;
      p_payload = None;
      p_exit_waiters = [];
      p_creation_callstack = creation_cs;
    }
  in
  register t p;
  (match t.spawn_hook with Some h -> h p | None -> ());
  let th = make_thread t p ~name:entry in
  start_thread ?first_call t th main;
  p

and resolve_entry p entry = match p.p_resolver with Some resolve -> resolve entry | None -> None

and fork_process t (parent_thread : thread) entry =
  let parent = parent_thread.t_proc in
  match resolve_entry parent entry with
  | None -> Error S.EINVAL
  | Some body ->
      Ok
        (new_process t ~parent ~creation_cs:(callstack_id parent_thread)
           ~image:(Clone_image parent) ~name:(parent.p_name ^ ":" ^ entry) ~entry ~main:body ())

(* ---------------------------------------------------------------- *)
(* Blocking helpers *)

and park t th call (k : resume) ~check ~registers ~timeout =
  let since = t.clock in
  th.t_state <- Blocked call;
  th.t_blocked_since <- since;
  let deliver r =
    th.t_state <- Running;
    finish ~blocked_since:since t th call k r
  in
  let w = { w_thread = th; fired = false; check; deliver } in
  List.iter (fun reg -> reg w) registers;
  (match timeout with
  | Some (ns, timeout_result) -> add_timer t ~at:(t.clock + ns) (fun () -> fire_timeout w timeout_result)
  | None -> ());
  (* the condition may already hold *)
  try_fire w

(* ---------------------------------------------------------------- *)
(* Syscall execution *)

and handle_syscall t th call (k : resume) =
  charge t t.costs.Costs.syscall_ns;
  let proc = th.t_proc in
  if not proc.p_alive then th.t_state <- Finished
  else begin
    let interception =
      match proc.p_interceptor with Some i -> i th call | None -> Execute
    in
    match interception with
    | Short_circuit r -> schedule t (resume k r)
    | Execute -> execute_faultable t th call k
    | Rewrite call' ->
        th.t_call_report <- Some call;
        execute_faultable t th call' k
    | Post (call', f) ->
        th.t_call_report <- Some call;
        th.t_result_map <- Some f;
        execute_faultable t th call' k
  end

(* Consult the kernel-wide fault hook for calls that are about to execute
   for real (short-circuited replays never reach the kernel proper, exactly
   as in the real system). A hook result is delivered like any other
   syscall completion — through the result map and the process monitor —
   so recording and replay see injected failures as ordinary outcomes.
   [Exit] is never faultable: its continuation is abandoned by design. *)
and execute_faultable t th call (k : resume) =
  match t.fault_hook with
  | Some h when (match call with S.Exit _ -> false | _ -> true) -> begin
      match h th call with
      | Some r -> finish t th call k r
      | None -> execute_call t th call k
    end
  | Some _ | None -> execute_call t th call k

(* Every completion — immediate, after a park ([blocked_since]), or
   injected — maps the result, reports the original call to the monitors
   and resumes the thread. *)
and finish ?blocked_since t th call (k : resume) r =
  let r = match th.t_result_map with Some f -> th.t_result_map <- None; f r | None -> r in
  let call =
    match th.t_call_report with
    | Some c ->
        th.t_call_report <- None;
        c
    | None -> call
  in
  (match (blocked_since, t.block_monitor) with
  | Some since, Some m -> m th call ~blocked_ns:(t.clock - since)
  | _ -> ());
  (match th.t_proc.p_monitor with Some m -> m th call r | None -> ());
  schedule t (resume k r)

and stream_of_fd p fd =
  match find_fd p fd with
  | Some { obj = Tcp { role = Stream ep }; _ } -> Some ep
  | _ -> None

and readable _t p fd =
  match find_fd p fd with
  | None -> false
  | Some { obj = File _; _ } -> true
  | Some { obj = Tcp r; _ } -> begin
      match r.role with
      | Listening l -> not (Queue.is_empty l.backlog_q)
      | Stream ep ->
          (not (Queue.is_empty ep.inbox))
          || (match ep.peer with Some peer -> peer.local_closed | None -> true)
      | Unbound | Bound _ -> false
    end
  [@warning "-27"]

and waiter_registrars p fd =
  (* the wait lists an fd's readability depends on *)
  match find_fd p fd with
  | Some { obj = Tcp r; _ } -> begin
      match r.role with
      | Listening l -> [ (fun w -> l.l_waiters <- w :: l.l_waiters) ]
      | Stream ep ->
          let own w = ep.ep_waiters <- w :: ep.ep_waiters in
          (* peer close must also wake us; peers notify our endpoint *)
          [ own ]
      | Unbound | Bound _ -> []
    end
  | _ -> []

and do_read t p fd max =
  match find_fd p fd with
  | None -> Some (S.Err S.EBADF)
  | Some { obj = File f; _ } -> begin
      match fs_read t ~path:f.f_path with
      | None -> Some (S.Err S.ENOENT)
      | Some contents ->
          let len = min max (String.length contents - f.offset) in
          let len = max_int_0 len in
          let data = String.sub contents f.offset len in
          f.offset <- f.offset + len;
          charge t (len * t.costs.Costs.byte_ns / 64);
          Some (S.Ok_data data)
    end
  | Some { obj = Tcp { role = Stream ep }; _ } ->
      if not (Queue.is_empty ep.inbox) then begin
        let chunk = Queue.pop ep.inbox in
        let data =
          if String.length chunk <= max then chunk
          else begin
            (* keep the remainder at the front of the inbox *)
            let remainder = String.sub chunk max (String.length chunk - max) in
            let rest = Queue.create () in
            Queue.transfer ep.inbox rest;
            Queue.push remainder ep.inbox;
            Queue.transfer rest ep.inbox;
            String.sub chunk 0 max
          end
        in
        charge t (String.length data * t.costs.Costs.byte_ns / 64);
        Some (S.Ok_data data)
      end
      else if (match ep.peer with Some peer -> peer.local_closed | None -> true) then
        Some (S.Ok_data "")
      else None
  | Some _ -> Some (S.Err S.EINVAL)

and max_int_0 n = if n < 0 then 0 else n

and execute_call t th call (k : resume) =
  let proc = th.t_proc in
  let ret r = finish t th call k r in
  match call with
  | S.Socket ->
      let desc = { refs = 1; obj = Tcp { role = Unbound } } in
      ret (S.Ok_fd (alloc_fd proc desc))
  | S.Bind { fd; port } -> begin
      match find_fd proc fd with
      | Some ({ obj = Tcp r; _ } as d) ->
          if Hashtbl.mem t.ports port then ret (S.Err S.EADDRINUSE)
          else begin
            match r.role with
            | Unbound ->
                r.role <- Bound (Port port);
                Hashtbl.replace t.ports port d;
                ret S.Ok_unit
            | Bound _ | Listening _ | Stream _ -> ret (S.Err S.EINVAL)
          end
      | Some _ -> ret (S.Err S.EINVAL)
      | None -> ret (S.Err S.EBADF)
    end
  | S.Listen { fd; backlog } -> begin
      match find_fd proc fd with
      | Some { obj = Tcp r; _ } -> begin
          match r.role with
          | Bound addr ->
              r.role <- Listening (new_listener addr ~backlog);
              ret S.Ok_unit
          | Unbound | Listening _ | Stream _ -> ret (S.Err S.EINVAL)
        end
      | Some _ -> ret (S.Err S.EINVAL)
      | None -> ret (S.Err S.EBADF)
    end
  | S.Accept { fd; _ } | S.Accept_timed { fd; _ } -> begin
      match find_fd proc fd with
      | Some { obj = Tcp { role = Listening l }; _ } -> begin
          let accept_one () =
            if Queue.is_empty l.backlog_q then None
            else Some (S.Ok_fd (alloc_fd proc (stream_desc (Queue.pop l.backlog_q))))
          in
          match (accept_one (), call) with
          | Some r, _ -> ret r
          | None, S.Accept { nonblock = true; _ } -> ret (S.Err S.EAGAIN)
          | None, _ ->
              let timeout =
                match call with
                | S.Accept_timed { timeout_ns; _ } -> Some (timeout_ns, S.Err S.ETIMEDOUT)
                | _ -> None
              in
              park t th call k ~check:accept_one
                ~registers:[ (fun w -> l.l_waiters <- w :: l.l_waiters) ]
                ~timeout
        end
      | Some _ -> ret (S.Err S.EINVAL)
      | None -> ret (S.Err S.EBADF)
    end
  | S.Connect { port } -> ret (connect t proc (Hashtbl.find_opt t.ports port))
  | S.Read { fd; max; nonblock } -> begin
      match do_read t proc fd max with
      | Some r -> ret r
      | None ->
          if nonblock then ret (S.Err S.EAGAIN)
          else begin
            match stream_of_fd proc fd with
            | Some ep ->
                park t th call k
                  ~check:(fun () -> do_read t proc fd max)
                  ~registers:[ (fun w -> ep.ep_waiters <- w :: ep.ep_waiters) ]
                  ~timeout:None
            | None -> ret (S.Err S.EBADF)
          end
    end
  | S.Write { fd; data } -> begin
      match find_fd proc fd with
      | None -> ret (S.Err S.EBADF)
      | Some { obj = File f; _ } ->
          let existing = Option.value (fs_read t ~path:f.f_path) ~default:"" in
          fs_write t ~path:f.f_path (existing ^ data);
          charge t (String.length data * t.costs.Costs.byte_ns / 64);
          ret (S.Ok_len (String.length data))
      | Some { obj = Tcp { role = Stream ep }; _ } -> begin
          match ep.peer with
          | Some peer when not peer.local_closed ->
              if ep.local_closed then ret (S.Err S.EPIPE)
              else begin
                Queue.push data peer.inbox;
                charge t (String.length data * t.costs.Costs.byte_ns / 64);
                notify_endpoint peer;
                ret (S.Ok_len (String.length data))
              end
          | Some _ | None -> ret (S.Err S.EPIPE)
        end
      | Some _ -> ret (S.Err S.EINVAL)
    end
  | S.Close { fd } -> begin
      match close_fd t proc fd with
      | Ok () -> ret S.Ok_unit
      | Error e -> ret (S.Err e)
    end
  | S.Open { path; create } | S.Open_at { path; create; _ } ->
      if (not (fs_exists t ~path)) && not create then ret (S.Err S.ENOENT)
      else begin
        if not (fs_exists t ~path) then fs_write t ~path "";
        let desc = { refs = 1; obj = File { f_path = path; offset = 0 } } in
        match call with
        | S.Open_at { force_fd; _ } -> (
            match install_fd_at proc force_fd desc with
            | Ok fd -> ret (S.Ok_fd fd)
            | Error e -> ret (S.Err e))
        | _ -> ret (S.Ok_fd (alloc_fd proc desc))
      end
  | S.Poll { fds; timeout_ns; nonblock } ->
      let ready () =
        let r = List.filter (readable t proc) fds in
        if r <> [] then Some (S.Ok_ready r) else None
      in
      begin
        match ready () with
        | Some r -> ret r
        | None ->
            if nonblock then ret (S.Ok_ready [])
            else begin
              let registers = List.concat_map (waiter_registrars proc) fds in
              let timeout =
                Option.map (fun ns -> (ns, S.Ok_ready [])) timeout_ns
              in
              park t th call k ~check:ready ~registers ~timeout
            end
      end
  | S.Getpid -> ret (S.Ok_pid proc.p_pid)
  | S.Getppid -> ret (S.Ok_pid proc.p_ppid)
  | S.Fork { entry } -> begin
      match fork_process t th entry with
      | Ok child -> ret (S.Ok_pid child.p_pid)
      | Error e -> ret (S.Err e)
    end
  | S.Thread_create { entry } -> begin
      match resolve_entry proc entry with
      | None -> ret (S.Err S.EINVAL)
      | Some body ->
          let th' = spawn_thread t proc ~name:entry body in
          ret (S.Ok_pid th'.t_tid)
    end
  | S.Waitpid { pid } -> begin
      match find_proc t pid with
      | None -> ret (S.Err S.ECHILD)
      | Some child ->
          let status () =
            match child.p_status with Some s -> Some (S.Ok_status s) | None -> None
          in
          begin
            match status () with
            | Some r -> ret r
            | None ->
                park t th call k ~check:status
                  ~registers:[ (fun w -> child.p_exit_waiters <- w :: child.p_exit_waiters) ]
                  ~timeout:None
          end
    end
  | S.Exit { status } ->
      process_exit t proc status;
      ignore (Sys.opaque_identity k)
  | S.Nanosleep { ns } ->
      park t th call k ~check:(fun () -> None) ~registers:[] ~timeout:(Some (ns, S.Ok_unit))
  | S.Sem_wait { name; timeout_ns } ->
      let sem = sem_named t name in
      let take () =
        if sem.count > 0 then begin
          sem.count <- sem.count - 1;
          Some S.Ok_unit
        end
        else None
      in
      begin
        match take () with
        | Some r -> ret r
        | None ->
            let timeout = Option.map (fun ns -> (ns, S.Err S.ETIMEDOUT)) timeout_ns in
            park t th call k ~check:take
              ~registers:[ (fun w -> sem.sem_waiters <- w :: sem.sem_waiters) ]
              ~timeout
      end
  | S.Unix_listen { path } ->
      if Hashtbl.mem t.paths path then ret (S.Err S.EADDRINUSE)
      else begin
        let l = new_listener (Path path) ~backlog:max_int in
        let desc = { refs = 1; obj = Tcp { role = Listening l } } in
        Hashtbl.replace t.paths path desc;
        ret (S.Ok_fd (alloc_fd proc desc))
      end
  | S.Unix_connect { path } -> ret (connect t proc (Hashtbl.find_opt t.paths path))
  | S.Shmget { key } -> begin
      match Hashtbl.find_opt t.shm_ids key with
      | Some id -> ret (S.Ok_len id)
      | None ->
          let id = t.next_shm_id in
          t.next_shm_id <- id + 1;
          Hashtbl.replace t.shm_ids key id;
          ret (S.Ok_len id)
    end

let spawn_process t ?parent ?force_pid ?first_call ~image ~name ~entry ~main () =
  new_process t ?parent ?force_pid ?first_call ~creation_cs:0 ~image ~name ~entry ~main ()

let set_spawn_hook t h = t.spawn_hook <- h
let set_exit_hook t h = t.exit_hook <- h
let set_fault_hook t h = t.fault_hook <- h

let unlink_path t ~path = Hashtbl.remove t.paths path

let path_active t ~path =
  match Hashtbl.find_opt t.paths path with
  | Some { obj = Tcp { role = Listening l }; _ } -> not l.l_closed
  | Some _ | None -> false

let transfer_fd t ~src ~fd ~dst ~at =
  match find_fd src fd with
  | None -> Error S.EBADF
  | Some desc ->
      if find_fd dst at <> None then Error S.EEXIST
      else begin
        desc.refs <- desc.refs + 1;
        ignore (install_fd_at dst at desc);
        ignore t;
        Ok at
      end

let close_fd_external t p fd = ignore (close_fd t p fd)

(* ------------------------------------------------------------------ *)
(* Connection parking (controller-side) *)

let proc_listeners p =
  fold_fds p
    (fun _ desc acc ->
      match desc.obj with
      | Tcp { role = Listening l } when not l.l_closed ->
          if List.memq l acc then acc else l :: acc
      | _ -> acc)
    []

let park_listeners _t p =
  List.fold_left
    (fun n l ->
      if l.l_parked then n
      else begin
        l.l_parked <- true;
        n + 1
      end)
    0 (proc_listeners p)

let unpark_listeners t p =
  List.fold_left
    (fun n l ->
      if not l.l_parked then n
      else begin
        l.l_parked <- false;
        let moved = ref 0 in
        (* FIFO drain: arrival order is preserved across the parked window.
           The backlog bound applies to new connections only — the kernel
           owes every parked connection an accept slot. *)
        while not (Queue.is_empty l.parked_q) do
          Queue.push (Queue.pop l.parked_q) l.backlog_q;
          incr moved
        done;
        t.resumed_total <- t.resumed_total + !moved;
        if !moved > 0 then notify_listener l;
        n + !moved
      end)
    0 (proc_listeners p)

type parking_stats = { parked : int; resumed : int; aborted : int }

let parking_stats t =
  { parked = t.parked_total; resumed = t.resumed_total; aborted = t.aborted_total }
