(** Mutable tracing, part 2: state transfer into the new version.

    Pairs every reachable old-version object with a destination in the new
    version — the matching rules of Section 6: static objects by symbol
    name, dynamic objects already reallocated by startup by allocation-site
    identity, other dynamic objects by fresh reallocation, stack variables
    by their stable keys, immutable objects pinned in place at their old
    addresses (pages mapped into the new address space on demand).

    Content then flows old-to-new with on-the-fly type transformation
    ({!Mcr_types.Typlan}), user transfer handlers for semantic changes, and
    a final fixup pass that rewrites every precise pointer slot through the
    relocation map (function pointers by symbol, string-literal pointers by
    interning). Likely pointers are deliberately not rewritten — their
    targets are pinned, which is exactly why conservative targets are
    immutable.

    Soft-dirty filtering implements the paper's incremental behaviour:
    clean objects whose startup-time counterpart was re-created by mutable
    reinitialization are skipped (the new version's own initialization
    stands). *)

type provenance = {
  shard : int;  (** Transfer shard the object belongs to under the plan. *)
  round : int;
      (** Pre-copy round that last staged the object (0 = never staged). *)
  callstack : int;  (** Allocation call-stack ID. *)
}
(** Where the conflicting object sat in the pipeline when the conflict was
    detected — captured eagerly because rollback destroys the state it is
    derived from. *)

type conflict =
  | Nonupdatable_changed of {
      addr : Mcr_vmem.Addr.t;
      ty_name : string;
      detail : string;
      prov : provenance;
    }  (** A conservatively-traced object's type was changed by the update. *)
  | No_plan of {
      addr : Mcr_vmem.Addr.t;
      ty_name : string;
      detail : string;
      prov : provenance;
    }  (** No automatic transformation exists and no handler was supplied. *)
  | Missing_type of { addr : Mcr_vmem.Addr.t; ty_name : string; prov : provenance }
      (** A dirty object's type no longer exists in the new version. *)
  | Pin_overlap of {
      page : Mcr_vmem.Addr.t;
      region : string;
      source : string;
      prov : provenance;
    }
      (** An in-place object's [page] is already mapped in the new version
          by [region], which is neither a pin nor the object's own
          [source] region rebuilt under the same name: pinning the old
          words there would overwrite the new version's live memory. *)
  | Injected of { detail : string }
      (** A synthetic conflict from the fault harness
          ({!Mcr_fault.Fault.Transfer_conflict}). *)

type outcome = {
  transferred_objects : int;
  transferred_words : int;
  skipped_clean : int;  (** Objects left to the new version's own init. *)
  skipped_clean_words : int;  (** Words of those clean objects, never copied. *)
  immutable_remapped : int;  (** Objects pinned at their old addresses. *)
  fresh_allocations : int;
  type_transformed : int;  (** Objects whose transformation was not an identity copy. *)
  dangling_zeroed : int;  (** Pointers to dropped objects, nulled. *)
  conflicts : conflict list;
  cost_ns : int;
      (** Virtual time of this process pair's transfer. With one worker this
          is the sequential sum of per-object copy charges; with [W >= 2] it
          is the critical path — [max] of [shard_cost_ns] — plus
          [W * (worker_spawn_ns + worker_join_ns)] pool overhead. *)
  live_words : int;  (** Total reachable words (for dirty-reduction ratios). *)
  precopied_objects : int;  (** Copies whose in-window charge was prepaid. *)
  precopied_words : int;
  remapped_pages : int;
      (** Destination pages backed by a shared source frame instead of a
          private copy (zero-copy remap; 0 unless [run ~remap:true]). *)
  remapped_words : int;
      (** Words whose per-word copy charge was retracted in favour of a
          per-page {!Mcr_simos.Costs.t.remap_page_ns}. Counted inside
          [transferred_words]: the copy happened (byte identity is checked
          on its result), only the charge moved. *)
  hashed_words : int;
      (** Words re-hashed in-window to validate pre-copy prepayment. With
          dirty-driven staging this scales with the copy set, not the
          reachable graph. *)
  workers : int;  (** Effective worker count ({!Objgraph.shard_plan}). *)
  shard_words : int array;  (** Words copied per shard. *)
  shard_cost_ns : int array;  (** Copy charge per shard (prepaid waived). *)
  trace_shard_ns : int array;  (** Tracing charge per shard, from the plan. *)
  trace_critical_ns : int;
      (** [max] of [trace_shard_ns] — the tracing critical path; equals
          [analysis.cost_ns] when [workers = 1]. *)
  sequential_cost_ns : int;
      (** The worker-independent sequential copy sum — what [cost_ns] would
          be with one worker. [cost_ns <= sequential_cost_ns] net of pool
          overhead. *)
}

(** {1 Pre-copy staging}

    A pre-copy session stages content hashes of the old version's reachable
    objects while it keeps serving; the final in-window {!run} waives the
    transfer charge for every object whose staged hash still matches
    ("prepaid"). The session never touches the new address space — the
    in-window copy is performed identically with or without it, so the
    committed new version is byte-for-byte the single-shot result and
    aborting mid-pre-copy requires no undo. *)

type precopy

type round_stats = {
  round_objects : int;  (** Objects (re-)staged this round. *)
  round_words : int;  (** Words (re-)staged this round — the delta size. *)
  round_invalidated : int;  (** Staged entries dropped (object freed/moved/resized). *)
  staged_objects : int;  (** Live staged entries after the round. *)
  round_cost_ns : int;  (** Virtual time the round's speculative copy costs. *)
  round_trace_ns : int;
      (** The analysis' tracing cost on the round's critical path: the
          heaviest shard's [sp_trace_ns] in the round's {!Objgraph.shard}
          plan ([cost_ns] when [workers = 1]). *)
}

val precopy_create : unit -> precopy

val precopy_round :
  precopy ->
  old_image:Mcr_program.Progdef.image ->
  analysis:Objgraph.t ->
  ?since:int ->
  ?dirty_only:bool ->
  ?workers:int ->
  unit ->
  round_stats
(** Stage one round. With [since] (an {!Mcr_vmem.Aspace.write_seq} mark from
    the previous round), only new objects and objects on pages written after
    the mark are re-staged — the delta. Without it, every object the final
    window will copy is staged (the first, full round). [dirty_only]
    (default true) must mirror the final {!run}'s flag: staging consults the
    analysis' soft-dirty classification and skips objects the dirty-only
    window will leave to the new version's own startup — so round cost
    scales with the dirty set, not the reachable graph. The caller charges
    [round_cost_ns] to the clock while the old version keeps running. With
    [workers > 1] the round's delta is charged per-shard over the same
    {!Objgraph.shard} plan as the final window and [round_cost_ns] is the
    critical path plus pool overhead. *)

val precopy_rounds : precopy -> int
(** Rounds staged into this session so far. *)

(** {1 Transfer}

    A transfer is a {!plan} and then one {!apply}. The plan reads the old
    image and makes every decision before anything is stored; the apply is
    the only code that stores a transferred word. {!run} is [apply (plan
    ...)]. *)

type plan
(** Every decision of one pair's transfer: each reachable object's
    destination, whether a clean referrer of pinned memory is forced to
    copy, each copy's move (verbatim words, user handler or {!Typlan}
    reshape) and whether pre-copy prepaid it, the pages to pin, and the
    whole conflict list. *)

val plan :
  old_image:Mcr_program.Progdef.image ->
  new_image:Mcr_program.Progdef.image ->
  analysis:Objgraph.t ->
  ?dirty_only:bool ->
  ?remap:bool ->
  ?precopy:precopy ->
  ?workers:int ->
  ?fault:Mcr_fault.Fault.t ->
  unit ->
  plan
(** Decide the transfer ({!run} documents the arguments). Its only effects
    on the new image are those that produce addresses: fresh destinations
    are allocated ({!Mcr_alloc.Heap.malloc}, with their type and site
    registrations), and the transfer's dirty epoch is opened first so that
    their header stores keep those pages out of the remap. It consumes an
    armed {!Mcr_fault.Fault.Transfer_conflict}. Conflicts come in this
    order: injected, then nonupdatable and missing-type in address order,
    then no-plan in address order. *)

val apply : plan -> outcome
(** Perform the plan: map the pin pages the new image lacks, store every
    move, rewrite precise pointers through the destinations, and with
    [remap] share the pages left byte-identical to their source. A
    conflicting plan is applied and charged too; the caller rolls back.
    Every outcome counter is derived from the plan, except
    [dangling_zeroed] and the remap's retraction, which only the stores
    can tell. *)

val destinations : plan -> (Mcr_vmem.Addr.t * int) list
(** The ranges (address, words) {!apply} may store into, in the old
    objects' address order: each copied or fixed-up destination at its
    extent in the new version, and each pinned object at its old address. *)

val planned_conflicts : plan -> conflict list
(** The plan's conflicts; [(apply p).conflicts] is the same list. *)

val run :
  old_image:Mcr_program.Progdef.image ->
  new_image:Mcr_program.Progdef.image ->
  analysis:Objgraph.t ->
  ?dirty_only:bool ->
  ?remap:bool ->
  ?precopy:precopy ->
  ?workers:int ->
  ?trace:Mcr_obs.Trace.t ->
  ?fault:Mcr_fault.Fault.t ->
  unit ->
  outcome
(** Transfer one process pair. [dirty_only] (default true) enables
    soft-dirty filtering; passing false transfers everything (the ablation
    baseline). The cost is charged to the kernel's virtual clock by the
    caller, not here — parallel multiprocess transfer takes the maximum
    across pairs, not the sum.

    [remap] (default false) enables the zero-copy page remap: after copy
    and fixup, destination pages that are byte-identical to a page-aligned
    congruent source page drop their private frame and share the source's
    ({!Mcr_vmem.Aspace.share_page}, copy-on-write afterwards); their
    per-word charge is retracted and one
    {!Mcr_simos.Costs.t.remap_page_ns} charged instead. Because
    eligibility is decided on the post-copy bytes, the committed image is
    byte-identical with and without [remap] for every [workers] value.
    No shared frame outlives the update: the manager kills the dying side
    when the window closes (rollback: new members; commit: old images),
    and exit unmaps its address space.

    All stores into the new image (copy, transformation, handler output and
    fixup) are untracked — they must not pollute any consumer's dirty
    epoch — and taint their pages as {!Mcr_vmem.Aspace.mark_inherited}, which
    is what keeps transferred state classified dirty in later updates.

    [workers] (default 1) sets the simulated transfer worker pool. The
    partition into shards is pure cost accounting: the copy itself runs in
    canonical address order for every worker count, so the committed image,
    the conflict list and the rollback behaviour are identical for all
    values of [workers]; only [cost_ns] changes (critical path + spawn/join
    overhead instead of the sequential sum). With [?precopy], objects whose content was
    staged and is unchanged contribute nothing to [cost_ns] (they are
    counted in [precopied_objects]/[precopied_words]); the writes performed
    are identical either way. With [?trace], the outcome is emitted as a
    [transfer.outcome] instant event (category ["transfer"], under the new
    process's pid). With [?fault], an armed
    {!Mcr_fault.Fault.Transfer_conflict} yields an [Injected] conflict
    before any state moves; an [analysis] carrying an
    {!Objgraph.t.injected_pin} yields a [Nonupdatable_changed] conflict on
    the pinned object. *)

val rollback_reason : conflict list -> Mcr_error.rollback_reason option
(** [Some (Tracing_conflict objs)] when any conflict is present — the
    shared rollback vocabulary for transfer failures, carrying one
    {!Mcr_error.conflict_obj} per conflict (via {!conflict_obj}) so
    explanations survive the rollback that destroys the live state. *)

val conflict_obj : conflict -> Mcr_error.conflict_obj
(** The wire/report form of one conflict: kind tag, address, type tag,
    call-stack ID, shard and pre-copy round. [Injected] conflicts have no
    object — address 0, no type, shard -1. *)

val pp_conflict : Format.formatter -> conflict -> unit
