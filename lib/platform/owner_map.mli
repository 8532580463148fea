(** Page-granular bookkeeping of which protection domain owns each
    physical page. Both platform backends keep this map as the ground
    truth that their hardware primitive (DRAM regions / PMP) enforces. *)

type t

val create : Sanctorum_hw.Phys_mem.t -> initial_owner:Sanctorum_hw.Trap.domain -> t

val owner_at : t -> paddr:int -> Sanctorum_hw.Trap.domain
(** Raises [Invalid_argument] for an out-of-range address. *)

val set_range : t -> lo:int -> hi:int -> Sanctorum_hw.Trap.domain -> unit
(** [lo, hi) must be page-aligned and inside physical memory; an empty
    range ([lo = hi]) is a no-op. Costs O(pages in the range + runs). *)

val range_owned_by :
  t -> lo:int -> hi:int -> Sanctorum_hw.Trap.domain -> bool
(** Every page of [lo, hi) belongs to the given domain. *)

val pages : t -> int

val domain_ranges : t -> Sanctorum_hw.Trap.domain -> (int * int) list
(** Maximal contiguous [lo, hi) byte ranges owned by a domain, in
    ascending order. O(runs). *)

val iter_ranges :
  t -> (lo:int -> hi:int -> domain:Sanctorum_hw.Trap.domain -> unit) -> unit
(** [f] is called once per maximal same-owner [lo, hi) byte range, in
    ascending address order; together the ranges cover all of memory.
    The map keeps these runs as a list that {!set_range} splices each
    new range into, merging equal neighbours, so a pass costs O(runs) —
    a grant adds at most two — however large memory is and however many
    enclaves have come and gone. *)
