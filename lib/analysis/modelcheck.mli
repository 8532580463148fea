(** Bounded exhaustive model checking of the SM API (DESIGN.md §10).

    The monitor's public API is treated as a labeled transition
    system: a state is one freshly booted small-geometry machine plus
    every mutation a sequence of API calls has made to it; an action
    is one API call drawn from a small closed parameter domain (≤2
    enclaves, ≤2 threads, ≤2 memory-unit groups, 1–2 cores). From the
    initial state — boot, plus the bring-up scenario unless the
    configuration asks for a cold start — {!explore} enumerates every
    action at every state up
    to a depth bound, deduplicating states by a canonical hash that
    quotients out enclave/thread naming (symmetry reduction) and
    omitting read-only probes from the alphabet (the trivial
    partial-order reduction: probes commute with everything, so they
    run as checks at every state instead of branching it).

    At every deduplicated state the full analysis catalog runs —
    {!Checker.snapshot} on the monitor and the trace passes over the
    path's telemetry — and, with [diff] on, the same action sequence
    runs on the other platform backend in lockstep, demanding
    verdict-identical behavior: Sanctum and Keystone may differ in
    cost, never in accept/reject semantics. Any violation, verdict
    divergence, or failed-call state mutation (the monitor's
    transaction guarantee) becomes a {!finding}, is greedily
    delta-debugged to a minimal action sequence, and can be replayed
    with [sanctorum_demo modelcheck --replay].

    States are rebuilt by replay: every API call is deterministic, the
    boot identity is cached, and the geometry is small, so replaying a
    ≤k-action prefix is cheaper than deep-copying a [Sm.t]. *)

type backend = Sanctum | Keystone

val backend_name : backend -> string
val other_backend : backend -> backend

(** A seeded fault, mirroring the [Testbed.corrupt_*] injectors. When
    armed via {!config}[.inject] it joins the action alphabet as an
    [Inject] action, so the explorer must both reach it and minimize
    through it. *)
type fault =
  | Corrupt_owner_map of int
      (** rewrite a unit group's hardware owner to a foreign domain
          behind the resource map's back ([own.exclusive]) *)
  | Corrupt_lifecycle of int  (** flip enclave [i]'s lifecycle state *)
  | Corrupt_thread of int * int
      (** mark thread [i] running on a core without entering *)
  | Corrupt_meta  (** claim a metadata slot outside the window *)

(** One abstract API action. Indices are small ordinals into the fixed
    parameter domain, not raw eids/tids/rids: the concrete metadata
    addresses and backend-specific resource ids are derived per
    machine, which is what lets one action sequence replay on both
    backends. *)
type action =
  | Create of int
  | Alloc_pt of int * int  (** enclave, level (2 = root) *)
  | Load_page of int * int  (** enclave, page index inside evrange *)
  | Map_shared of int
  | Load_thread of int * int  (** enclave, thread *)
  | Init of int
  | Delete of int
  | Block_mem of int  (** unit group *)
  | Clean_mem of int
  | Grant_mem of int * int  (** unit group, enclave *)
  | Grant_mem_os of int
  | Accept_mem of int * int  (** enclave, unit group *)
  | Assign of int * int  (** thread, enclave *)
  | Accept_thread of int * int  (** enclave, thread *)
  | Release_thread of int * int
  | Unassign of int
  | Delete_thread of int
  | Enter of int * int * int  (** enclave, thread, core *)
  | Exit_enclave of int * int  (** enclave, core *)
  | Aex of int  (** core: deliver an interrupt to a running enclave *)
  | Read_aex of int * int  (** enclave, thread *)
  | Accept_mail of int * sender  (** recipient enclave, sender *)
  | Send_mail of sender * int  (** sender, recipient enclave *)
  | Get_mail of int * sender
  | Inject of fault

and sender = S_os | S_enclave of int

val fault_to_string : fault -> string
(** [owner-map:U], [lifecycle:E], [thread:T:C], [meta] — the
    [--inject] flag syntax. *)

val fault_of_string : string -> (fault, string) result
val action_to_string : action -> string
val action_of_string : string -> (action, string) result

val path_to_string : action list -> string
(** Comma-separated {!action_to_string} tokens. *)

val path_of_string : string -> (action list, string) result

type config = {
  backend : backend;
  depth : int;
  cores : int;  (** 1–2 *)
  units : int;  (** grantable unit groups exposed to actions, 1–4 *)
  diff : bool;  (** run the other backend in lockstep *)
  warm : bool;
      (** start from boot + the bring-up scenario instead of raw boot.
          Bring-up: enclave 0 provisioned (memory group 0), fully
          page-tabled, one data page, thread 0 loaded, initialized;
          enclave 1 created and still loading; memory group 1 cleaned
          to [Available]. Every bring-up action must be accepted —
          {!explore} and {!replay} raise [Invalid_argument] if the
          monitor rejects one (that would silently skew every path).
          From raw boot every interesting state sits behind the same
          block/clean/grant/map ceremony, so a small depth bound only
          ever re-explores bring-up; the warm start spends the depth
          budget on the dense region instead. [--cold] for the
          ceremony itself. *)
  inject : fault option;
  max_states : int;  (** exploration safety valve *)
  sink : Sanctorum_telemetry.Sink.t;
      (** receives [modelcheck.states], [modelcheck.dedup_hits] and
          [modelcheck.findings] counters *)
}

val default_config : config
(** Sanctum, depth 4, 1 core, 2 unit groups, no diff, warm, no fault,
    [max_states] 200_000, null sink. *)

type finding_kind =
  | K_catalog of string * backend
      (** an analysis-catalog violation id observed on [backend] *)
  | K_divergence  (** the final action's verdicts differ across backends *)
  | K_transactional of backend
      (** a failed call mutated observable state on [backend] *)

type finding = {
  f_kind : finding_kind;
  f_detail : string;
  f_action : action;  (** the action that exposed it *)
  f_prefix : action list;  (** path to the pre-state, as discovered *)
  f_min : action list;  (** delta-debugged prefix (= [f_prefix] if not run) *)
}

val finding_id : finding -> string
(** The catalog id, ["diff.verdict"], or ["api.transactional"]. *)

val finding_path : finding -> action list
(** [f_min @ [f_action]] — the minimized replayable sequence. *)

type summary = {
  s_backend : backend;
  s_depth : int;
  s_states : int;  (** deduplicated states reached (including boot) *)
  s_edges : int;  (** action applications tried *)
  s_dedup_hits : int;  (** successor states already visited *)
  s_truncated : bool;  (** hit [max_states] before exhausting depth *)
  s_state_digest : string;
      (** hex digest folded over every state hash in discovery order;
          equal digests mean equal explorations *)
  s_findings : finding list;  (** minimized, capped at {!max_findings} *)
  s_findings_total : int;  (** occurrences before the cap *)
}

val max_findings : int

val explore : config -> summary
(** Breadth-first bounded exploration. Deterministic in [config]:
    same parameters, same summary. Raises [Invalid_argument] on an
    out-of-range geometry (depth 0–12, cores 1–2, units 1–4). *)

type replay_step = {
  r_action : action;
  r_verdict : string;  (** rendered verdict on [config.backend] *)
  r_verdict_other : string option;  (** other backend when [diff] *)
}

val replay :
  config -> action list -> replay_step list * Report.violation list
(** Execute one action sequence from the configuration's initial state
    (the bring-up prefix is applied first when [warm], and is not
    part of the reported steps) and return per-step verdicts plus the
    full catalog report on the final state (primary backend). *)

val replay_command : config -> action list -> string
(** The [sanctorum_demo modelcheck --replay ...] command line that
    reproduces this sequence under this configuration. *)
