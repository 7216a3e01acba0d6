(* Startup-log data shared by the recorder and the replayer. *)

module S = Mcr_simos.Sysdefs

type entry = {
  seq : int;
  callstack : int;  (** Call-stack ID of the issuing thread (Section 5). *)
  call : S.call;
  result : S.result;
}

(* How a process is identified across versions: the root by being the root,
   forked children by the call-stack ID of the fork that created them plus
   an ordinal among same-site siblings (Section 6: "identified by the same
   creation-time call stack ID"). *)
type proc_key = Root | Child of { creation_callstack : int; ordinal : int }

type plog = {
  key : proc_key;
  pid : int;  (** Pid in the recorded (old) version — a virtual pid for replay. *)
  mutable entries : entry list;  (** Reversed while recording. *)
  mutable closed : bool;  (** Startup finished; no more recording. *)
}

(* A forked child's key; [ordinals] counts the children seen per
   creation call stack, in creation order. *)
let child_key ordinals proc =
  let cs = Mcr_simos.Kernel.creation_callstack proc in
  let ordinal = Option.value (Hashtbl.find_opt ordinals cs) ~default:0 + 1 in
  Hashtbl.replace ordinals cs ordinal;
  Child { creation_callstack = cs; ordinal }

let pp_key ppf = function
  | Root -> Format.pp_print_string ppf "root"
  | Child { creation_callstack; ordinal } ->
      Format.fprintf ppf "child(cs=%d#%d)" creation_callstack ordinal

(* Calls that operate on immutable state objects and are therefore replayed
   rather than re-executed (Section 5): descriptor-creating and
   descriptor-state calls, pid queries, forks. Everything else runs live. *)
let replay_class (call : S.call) =
  match call with
  | S.Socket | S.Bind _ | S.Listen _ | S.Unix_listen _ | S.Open _ | S.Close _
  | S.Getpid | S.Getppid | S.Fork _ | S.Shmget _ ->
      true
  | S.Open_at _ (* replay-internal; never recorded *)
  | S.Accept _ | S.Accept_timed _ | S.Connect _ | S.Read _ | S.Write _ | S.Poll _ | S.Thread_create _
  | S.Waitpid _ | S.Exit _ | S.Nanosleep _ | S.Sem_wait _
  | S.Unix_connect _ ->
      false

(* Same call constructor (used for consuming live-class entries without
   insisting on argument equality, which may legitimately change between
   versions). *)
let same_kind (a : S.call) (b : S.call) = S.call_name a = S.call_name b

(* The deep argument comparison for replay-class matches: structural
   equality of the call payloads (all arguments are immediate values or
   strings, the "follow pointers" analog). *)
let deep_equal (a : S.call) (b : S.call) = a = b
