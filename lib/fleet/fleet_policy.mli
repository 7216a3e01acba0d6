(** Consolidated fleet rollout policy.

    Mirrors {!Mcr_core.Policy}: one immutable record with builder
    functions, shared by reference across a {!Fleet.t} so the coordinator
    a rollout leaves behind keeps honouring runtime adjustments. The
    per-instance update policy rides along in {!t.update} — the fleet
    layer never invents its own single-update knobs. *)

type halt =
  | Halt_only
      (** A blocking verdict stops later waves; instances already on the
          target version stay there. *)
  | Rollback_updated
      (** ...and additionally reverts every already-updated instance back
          to the starting version in a final rollback wave. *)

type t = {
  canary : int;
      (** Instances updated in the first (gating) wave (default 1). *)
  wave : int;  (** Instances per subsequent wave (default 4). *)
  max_unavailable : int;
      (** Upper bound on instances simultaneously out of the balancer
          rotation; {!Rollout.plan} clamps canary and wave sizes to it
          (default 4). *)
  halt : halt;  (** What a blocking verdict does (default {!Halt_only}). *)
  fault_seed : int option;
      (** Seed for per-instance fault plans (default none). Instance [i]
          in {!t.fault_instances} is armed with
          [Mcr_fault.Fault.of_seed (seed + i)] on its target update. *)
  fault_instances : int list;
      (** Which instances the seed arms (default none). *)
  update : Mcr_core.Policy.t;
      (** The single-instance update policy every wave member runs under
          (default {!Mcr_core.Policy.default}). *)
}

val default : t

val with_canary : int -> t -> t
(** @raise Invalid_argument if the count is below 1. *)

val with_wave : int -> t -> t
(** @raise Invalid_argument if the count is below 1. *)

val with_max_unavailable : int -> t -> t
(** @raise Invalid_argument if the count is below 1. *)

val with_halt : halt -> t -> t

val with_fault : seed:int option -> instances:int list -> t -> t
(** @raise Invalid_argument if an instance id is negative. *)

val with_update : Mcr_core.Policy.t -> t -> t

val halt_to_string : halt -> string
(** ["halt_only" | "rollback_updated"] — the frozen form fleet summaries
    and the ctl surface use. *)

val halt_of_string : string -> halt option
