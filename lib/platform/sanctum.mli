(** The MIT Sanctum processor backend (§VII-A): physical memory is split
    into fixed-size isolated DRAM regions, the shared LLC is partitioned
    by page coloring so distinct regions map to disjoint cache sets, and
    a private page-walk invariant confines PTE fetches to memory owned
    by the walking domain. *)

val default_region_count : int
(** 64, as in the paper (§VII-A). *)

val create :
  ?region_count:int -> Sanctorum_hw.Machine.t -> Platform.t
(** Installs the isolation hooks on the machine and reserves the bottom
    {!Platform.sm_memory_bytes} of memory for the monitor. Raises
    [Invalid_argument] if memory size is not divisible into
    [region_count] page-aligned regions. *)
