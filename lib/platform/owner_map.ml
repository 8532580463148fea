module Hw = Sanctorum_hw

(* Two views of the same map, kept in step by [set_range]: the per-page
   array answers [owner_at] in O(1), and [runs] — the maximal same-owner
   byte ranges, ascending, covering [0, mem) with no two equal
   neighbours — answers the range queries in O(runs), never O(pages). *)
type t = { owners : int array; mutable runs : (int * int * int) list }

let page = Hw.Phys_mem.page_size

(* [owner_at] sits on the per-fetch isolation check: a logical shift
   instead of a division (whose divisor the compiler cannot see across
   the module boundary) keeps it off the profile. *)
let page_shift = 12
let () = assert (page = 1 lsl page_shift)

let create mem ~initial_owner =
  let size = Hw.Phys_mem.size mem in
  {
    owners = Array.make (size / page) initial_owner;
    runs = [ (0, size, initial_owner) ];
  }

let owner_at t ~paddr =
  (* negative [paddr] shifts to a huge positive int, caught by the
     length check *)
  let p = paddr lsr page_shift in
  if p >= Array.length t.owners then
    invalid_arg "Owner_map.owner_at: address out of range";
  t.owners.(p)

let check_aligned lo hi =
  if lo mod page <> 0 || hi mod page <> 0 || lo > hi then
    invalid_arg "Owner_map: range must be page-aligned"

(* Replace [lo, hi) in the run list by one run of [domain]: keep the
   runs below [lo] (clipping the one that straddles it), drop the runs
   inside, clip the one that straddles [hi], then merge the new run with
   an equal-owner neighbour on either side. *)
let splice runs ~lo ~hi domain =
  let rec below acc = function
    | ((_, rhi, _) as r) :: rest when rhi <= lo -> below (r :: acc) rest
    | (rlo, rhi, d) :: rest when rlo < lo ->
        above ((rlo, lo, d) :: acc) ((lo, rhi, d) :: rest)
    | rest -> above acc rest
  and above acc = function
    | (_, rhi, _) :: rest when rhi <= hi -> above acc rest
    | (rlo, rhi, d) :: rest when rlo < hi -> join acc ((hi, rhi, d) :: rest)
    | rest -> join acc rest
  and join acc rest =
    let lo, acc =
      match acc with
      | (blo, _, d) :: acc when d = domain -> (blo, acc)
      | _ -> (lo, acc)
    in
    let hi, rest =
      match rest with
      | (_, ahi, d) :: rest when d = domain -> (ahi, rest)
      | _ -> (hi, rest)
    in
    List.rev_append acc ((lo, hi, domain) :: rest)
  in
  below [] runs

let set_range t ~lo ~hi domain =
  check_aligned lo hi;
  if lo < 0 || hi / page > Array.length t.owners then
    invalid_arg "Owner_map.set_range: range beyond physical memory";
  if lo < hi then begin
    for p = lo / page to (hi / page) - 1 do
      t.owners.(p) <- domain
    done;
    t.runs <- splice t.runs ~lo ~hi domain
  end

let range_owned_by t ~lo ~hi domain =
  check_aligned lo hi;
  let ok = ref (lo < hi) in
  for p = lo / page to (hi / page) - 1 do
    if t.owners.(p) <> domain then ok := false
  done;
  !ok

let pages t = Array.length t.owners

let iter_ranges t f =
  List.iter (fun (lo, hi, domain) -> f ~lo ~hi ~domain) t.runs

let domain_ranges t domain =
  List.filter_map
    (fun (lo, hi, d) -> if d = domain then Some (lo, hi) else None)
    t.runs
