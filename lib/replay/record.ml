module K = Mcr_simos.Kernel
module S = Mcr_simos.Sysdefs
module P = Mcr_program.Progdef
open Logdefs

type t = {
  kernel : K.t;
  mutable plogs : plog list; (* reversed creation order *)
  by_pid : (int, plog) Hashtbl.t; (* the logs still open *)
  child_ordinals : (int, int) Hashtbl.t; (* creation callstack -> count *)
  mutable seq : int;
}

let next_seq t =
  t.seq <- t.seq + 1;
  t.seq

(* The one monitor of every recording process: append to its log. *)
let record t th call result =
  match Hashtbl.find_opt t.by_pid (K.pid (K.thread_proc th)) with
  | Some plog when not plog.closed ->
      K.charge t.kernel (K.costs t.kernel).Mcr_simos.Costs.record_ns;
      plog.entries <-
        { seq = next_seq t; callstack = K.callstack_id th; call; result } :: plog.entries
  | Some _ | None -> ()

(* A process reached its first quiescent point: its log is complete, and
   only [plogs] keeps it. *)
let close t (image : P.image) =
  let proc = image.P.i_proc in
  match Hashtbl.find_opt t.by_pid (K.pid proc) with
  | Some plog ->
      plog.closed <- true;
      Hashtbl.remove t.by_pid plog.pid;
      K.set_reserved_fd_mode proc false;
      K.set_monitor proc None
  | None -> ()

let start kernel (root : P.image) =
  let t =
    { kernel; plogs = []; by_pid = Hashtbl.create 8; child_ordinals = Hashtbl.create 8; seq = 0 }
  in
  let monitor = record t in
  let attach (image : P.image) key =
    let proc = image.P.i_proc in
    let plog = { key; pid = K.pid proc; entries = []; closed = false } in
    t.plogs <- plog :: t.plogs;
    Hashtbl.replace t.by_pid plog.pid plog;
    (* global separability: startup-time fds live in the reserved range *)
    K.set_reserved_fd_mode proc true;
    K.set_monitor proc (Some monitor)
  in
  attach root Root;
  P.Tree.on_fork root.P.i_tree (fun child ->
      attach child (child_key t.child_ordinals child.P.i_proc));
  P.Tree.on_first_quiesce root.P.i_tree (close t);
  t

let logs t =
  List.rev_map
    (fun plog -> { plog with entries = List.rev plog.entries })
    t.plogs

let entry_count t = List.fold_left (fun acc l -> acc + List.length l.entries) 0 t.plogs
