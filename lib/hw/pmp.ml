type privilege = U | S | M

type entry = {
  mutable active : bool;
  mutable lo : int;
  mutable hi : int;
  mutable r : bool;
  mutable w : bool;
  mutable x : bool;
  mutable locked : bool;
}

type t = entry array

let entry_count = 16

let create ?(entries = entry_count) () =
  if entries < 1 then invalid_arg "Pmp.create: entries must be >= 1";
  Array.init entries (fun _ ->
      {
        active = false;
        lo = 0;
        hi = 0;
        r = false;
        w = false;
        x = false;
        locked = false;
      })

let count t = Array.length t

let set_entry t ~index ~lo ~hi ~r ~w ~x ~locked =
  if index < 0 || index >= Array.length t then
    invalid_arg "Pmp.set_entry: index out of range";
  if lo < 0 || hi < lo then invalid_arg "Pmp.set_entry: bad range";
  let e = t.(index) in
  if e.locked then invalid_arg "Pmp.set_entry: entry is locked";
  e.active <- true;
  e.lo <- lo;
  e.hi <- hi;
  e.r <- r;
  e.w <- w;
  e.x <- x;
  e.locked <- locked

let clear_entry t ~index =
  if index < 0 || index >= Array.length t then
    invalid_arg "Pmp.clear_entry: index out of range";
  if t.(index).locked then invalid_arg "Pmp.clear_entry: entry is locked";
  t.(index).active <- false

let entry t ~index =
  if index < 0 || index >= Array.length t then
    invalid_arg "Pmp.entry: index out of range";
  t.(index)

let permits e access =
  match (access : Trap.access) with
  | Trap.Read -> e.r
  | Trap.Write -> e.w
  | Trap.Execute -> e.x

let check t ~privilege ~access ~paddr =
  let n = Array.length t in
  let rec go i =
    if i >= n then privilege = M
    else begin
      let e = t.(i) in
      if e.active && paddr >= e.lo && paddr < e.hi then
        if privilege = M && not e.locked then true else permits e access
      else go (i + 1)
    end
  in
  go 0

let check_range t ~privilege ~access ~lo ~hi =
  (* Split the range at entry boundaries; each fragment is decided by
     its first matching entry, so checking one representative address
     per fragment is exact. *)
  let cuts = ref [ lo; hi ] in
  Array.iter
    (fun e ->
      if e.active then begin
        if e.lo > lo && e.lo < hi then cuts := e.lo :: !cuts;
        if e.hi > lo && e.hi < hi then cuts := e.hi :: !cuts
      end)
    t;
  let points = List.sort_uniq Stdlib.compare !cuts in
  let rec fragments = function
    | a :: (b :: _ as rest) ->
        check t ~privilege ~access ~paddr:a && a < b && fragments rest
    | [ _ ] | [] -> true
  in
  lo < hi && fragments points

let pp ppf t =
  Array.iteri
    (fun i e ->
      if e.active then
        Format.fprintf ppf "pmp%d: [0x%x,0x%x) %s%s%s%s@." i e.lo e.hi
          (if e.r then "r" else "-")
          (if e.w then "w" else "-")
          (if e.x then "x" else "-")
          (if e.locked then "L" else ""))
    t
