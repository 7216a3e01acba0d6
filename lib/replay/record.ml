module K = Mcr_simos.Kernel
module S = Mcr_simos.Sysdefs
module P = Mcr_program.Progdef
open Logdefs

type t = {
  kernel : K.t;
  mutable plogs : plog list; (* reversed creation order *)
  child_ordinals : (int, int) Hashtbl.t; (* creation callstack -> count *)
  mutable seq : int;
}

let next_seq t =
  t.seq <- t.seq + 1;
  t.seq

let attach_proc t (image : P.image) key =
  let proc = image.P.i_proc in
  let plog = { key; pid = K.pid proc; entries = []; closed = false } in
  t.plogs <- plog :: t.plogs;
  (* global separability: startup-time fds live in the reserved range *)
  K.set_reserved_fd_mode proc true;
  K.set_monitor proc
    (Some
       (fun th call result ->
         if not plog.closed then begin
           K.charge t.kernel (K.costs t.kernel).Mcr_simos.Costs.record_ns;
           plog.entries <-
             { seq = next_seq t; callstack = K.callstack_id th; call; result }
             :: plog.entries
         end));
  image.P.i_first_quiesce_hooks <-
    (fun (img : P.image) ->
      if K.pid img.P.i_proc = K.pid proc then begin
        plog.closed <- true;
        K.set_reserved_fd_mode proc false;
        K.set_monitor proc None
      end)
    :: image.P.i_first_quiesce_hooks

let start kernel (root : P.image) =
  let t = { kernel; plogs = []; child_ordinals = Hashtbl.create 8; seq = 0 } in
  attach_proc t root Root;
  root.P.i_child_hooks <-
    (fun (child : P.image) ->
      let cs = K.creation_callstack child.P.i_proc in
      let ordinal =
        let n = Option.value (Hashtbl.find_opt t.child_ordinals cs) ~default:0 + 1 in
        Hashtbl.replace t.child_ordinals cs n;
        n
      in
      attach_proc t child (Child { creation_callstack = cs; ordinal }))
    :: root.P.i_child_hooks;
  t

let logs t =
  List.rev_map
    (fun plog -> { plog with entries = List.rev plog.entries })
    t.plogs

let recording t = List.length (List.filter (fun l -> not l.closed) t.plogs)

let entry_count t = List.fold_left (fun acc l -> acc + List.length l.entries) 0 t.plogs
