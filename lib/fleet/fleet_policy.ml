(* The fleet rollout policy record, following Policy's builder idiom:
   validation lives in the builders, the record itself is plain data. *)

type halt = Halt_only | Rollback_updated

type t = {
  canary : int;
  wave : int;
  max_unavailable : int;
  halt : halt;
  fault_seed : int option;
  fault_instances : int list;
  update : Mcr_core.Policy.t;
}

let default =
  {
    canary = 1;
    wave = 4;
    max_unavailable = 4;
    halt = Halt_only;
    fault_seed = None;
    fault_instances = [];
    update = Mcr_core.Policy.default;
  }

let with_canary n t =
  if n < 1 then invalid_arg "Fleet_policy.with_canary: count must be >= 1";
  { t with canary = n }

let with_wave n t =
  if n < 1 then invalid_arg "Fleet_policy.with_wave: count must be >= 1";
  { t with wave = n }

let with_max_unavailable n t =
  if n < 1 then invalid_arg "Fleet_policy.with_max_unavailable: count must be >= 1";
  { t with max_unavailable = n }

let with_halt h t = { t with halt = h }

let with_fault ~seed ~instances t =
  if List.exists (fun i -> i < 0) instances then
    invalid_arg "Fleet_policy.with_fault: instance ids must be >= 0";
  { t with fault_seed = seed; fault_instances = List.sort_uniq compare instances }

let with_update p t = { t with update = p }

let halt_to_string = function
  | Halt_only -> "halt_only"
  | Rollback_updated -> "rollback_updated"

let halt_of_string = function
  | "halt_only" -> Some Halt_only
  | "rollback_updated" -> Some Rollback_updated
  | _ -> None
