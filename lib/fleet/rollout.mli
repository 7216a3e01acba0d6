(** The wave planner and executor: canary-gated rolling update.

    {!plan} turns a {!Fleet_policy.t} into staggered waves (canary first,
    then fixed-size waves, every wave clamped to [max_unavailable]);
    {!execute} runs them on a fleet-relative virtual clock — drain, update
    every wave member on its own kernel (wave duration is the slowest
    member, the waves being independent simulations), health-probe,
    rejoin — and gates each wave on its verdicts: an update that rolled
    back, violated its SLO budget, or failed its health probe halts the
    rollout (and, under {!Fleet_policy.Rollback_updated}, reverts every
    already-updated instance in a final rollback wave). The whole run is
    summarised as a {!Mcr_obs.Fleet_flight.t}. *)

val plan : Fleet_policy.t -> n:int -> int list list
(** Wave membership over instance ids [0..n-1], execution order. The first
    wave is the canary ([min canary max_unavailable] instances, at most
    [n]); later waves take [min wave max_unavailable] each. Every id
    appears exactly once. *)

val execute : Fleet.t -> Mcr_obs.Fleet_flight.t
(** Run the rollout under the fleet's current policy. Returns the summary
    (also stored on the fleet for [FLEET EXPLAIN]) — inspect
    [fs_halted]/[fs_blocking] for the outcome. Instance managers are
    swapped in place as updates commit or revert. *)

val request_over_ctl : Fleet.t -> (Mcr_obs.Fleet_flight.t, string) result
(** Drive a rollout through the control plane the way an operator would:
    send [FLEET ROLLOUT] over the fleet socket (v1 frames), wait for the
    listener to park on its reply, {!execute} (whose
    {!Fleet.record_rollout} answers it), and surface the client's typed
    outcome. *)
