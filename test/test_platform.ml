(* Platform backends (paper §VII): Sanctum DRAM regions + LLC coloring,
   Keystone PMP. Experiment P1's correctness half. *)
module Hw = Sanctorum_hw
module Pf = Sanctorum_platform
open Sanctorum_os

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let test_sanctum_granularity () =
  let tb = Testbed.create ~backend:Testbed.Sanctum_backend () in
  let pf = tb.Testbed.platform in
  check_int "region size" (16 * 1024 * 1024 / 64) pf.Pf.Platform.alloc_unit;
  check_bool "llc partitioned" true pf.Pf.Platform.llc_partitioned;
  (* grants must be region-aligned *)
  (match pf.Pf.Platform.assign_range ~lo:4096 ~hi:8192 5 with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "sub-region grant accepted");
  match
    pf.Pf.Platform.assign_range ~lo:pf.Pf.Platform.alloc_unit
      ~hi:(2 * pf.Pf.Platform.alloc_unit)
      5
  with
  | Ok () ->
      check_int "owner updated" 5
        (pf.Pf.Platform.owner_at ~paddr:(pf.Pf.Platform.alloc_unit + 100))
  | Error m -> Alcotest.fail m

let test_keystone_granularity () =
  let tb = Testbed.create ~backend:Testbed.Keystone_backend () in
  let pf = tb.Testbed.platform in
  check_int "page granularity" 4096 pf.Pf.Platform.alloc_unit;
  check_bool "llc shared" false pf.Pf.Platform.llc_partitioned;
  match pf.Pf.Platform.assign_range ~lo:(1024 * 1024) ~hi:(1024 * 1024 + 4096) 5 with
  | Ok () ->
      check_int "owner updated" 5 (pf.Pf.Platform.owner_at ~paddr:(1024 * 1024))
  | Error m -> Alcotest.fail m

let test_sm_memory_reserved () =
  List.iter
    (fun backend ->
      let tb = Testbed.create ~backend () in
      let pf = tb.Testbed.platform in
      check_int
        (Testbed.backend_name backend ^ " sm owns bottom")
        Hw.Trap.domain_sm
        (pf.Pf.Platform.owner_at ~paddr:0))
    [ Testbed.Sanctum_backend; Testbed.Keystone_backend ]

let test_sanctum_llc_coloring_disjoint () =
  let tb = Testbed.create ~backend:Testbed.Sanctum_backend () in
  let l2 = Hw.Machine.l2 tb.Testbed.machine in
  let region_bytes = tb.Testbed.platform.Pf.Platform.alloc_unit in
  (* Any two addresses in different regions map to different sets. *)
  let ok = ref true in
  for r1 = 0 to 7 do
    for r2 = 0 to 7 do
      if r1 <> r2 then
        for off = 0 to 3 do
          let a1 = (r1 * region_bytes) + (off * 64) in
          let a2 = (r2 * region_bytes) + (off * 64) in
          if Hw.Cache.set_of_paddr l2 a1 = Hw.Cache.set_of_paddr l2 a2 then
            ok := false
        done
    done
  done;
  check_bool "distinct regions, disjoint sets" true !ok

let test_keystone_llc_shared () =
  let tb = Testbed.create ~backend:Testbed.Keystone_backend () in
  let l2 = Hw.Machine.l2 tb.Testbed.machine in
  (* Two addresses 64 KiB apart (same index bits) share a set. *)
  let sets = (Hw.Cache.config l2).Hw.Cache.sets in
  let a1 = 1024 * 1024 in
  let a2 = a1 + (sets * 64) in
  check_int "same set across owners" (Hw.Cache.set_of_paddr l2 a1)
    (Hw.Cache.set_of_paddr l2 a2)

let test_enter_domain_flushes () =
  List.iter
    (fun backend ->
      let tb = Testbed.create ~backend () in
      let pf = tb.Testbed.platform in
      let c = Hw.Machine.core tb.Testbed.machine 0 in
      ignore (Hw.Cache.access c.Hw.Machine.l1 ~paddr:0x200000);
      Hw.Tlb.insert c.Hw.Machine.tlb ~vpn:5 ~ppn:9
        ~perms:{ Hw.Tlb.r = true; w = false; x = false; u = true };
      pf.Pf.Platform.enter_domain ~core:c 7;
      check_bool "l1 flushed" false
        (Hw.Cache.probe c.Hw.Machine.l1 ~paddr:0x200000);
      check_int "tlb flushed" 0 (Hw.Tlb.entry_count c.Hw.Machine.tlb);
      check_int "domain set" 7 c.Hw.Machine.domain;
      pf.Pf.Platform.enter_domain ~core:c Hw.Trap.domain_untrusted)
    [ Testbed.Sanctum_backend; Testbed.Keystone_backend ]

let test_clean_range_zeroes () =
  let tb = Testbed.create () in
  let pf = tb.Testbed.platform in
  let mem = Hw.Machine.mem tb.Testbed.machine in
  let unit = pf.Pf.Platform.alloc_unit in
  Hw.Phys_mem.write_string mem ~pos:(4 * unit) "secret-residue";
  pf.Pf.Platform.clean_range ~lo:(4 * unit) ~hi:(5 * unit);
  Alcotest.(check string)
    "zeroed"
    (String.make 14 '\000')
    (Hw.Phys_mem.read_string mem ~pos:(4 * unit) ~len:14)

let test_keystone_pmp_programming () =
  (* After entering an enclave domain on a core, that core's PMP permits
     the enclave range and still denies the monitor's memory. *)
  let tb = Testbed.create ~backend:Testbed.Keystone_backend () in
  let pf = tb.Testbed.platform in
  let base = 2 * 1024 * 1024 in
  (match pf.Pf.Platform.assign_range ~lo:base ~hi:(base + 8192) 9 with
  | Ok () -> ()
  | Error m -> Alcotest.fail m);
  let c = Hw.Machine.core tb.Testbed.machine 0 in
  pf.Pf.Platform.enter_domain ~core:c 9;
  check_bool "own range allowed" true
    (Hw.Pmp.check c.Hw.Machine.pmp ~privilege:Hw.Pmp.U ~access:Hw.Trap.Read
       ~paddr:base);
  check_bool "sm memory denied" false
    (Hw.Pmp.check c.Hw.Machine.pmp ~privilege:Hw.Pmp.U ~access:Hw.Trap.Read
       ~paddr:0x100);
  check_bool "os memory reachable" true
    (Hw.Pmp.check c.Hw.Machine.pmp ~privilege:Hw.Pmp.U ~access:Hw.Trap.Read
       ~paddr:(1024 * 1024));
  (* a second enclave's range is denied on this core *)
  let base2 = 4 * 1024 * 1024 in
  (match pf.Pf.Platform.assign_range ~lo:base2 ~hi:(base2 + 4096) 10 with
  | Ok () -> ()
  | Error m -> Alcotest.fail m);
  check_bool "foreign enclave denied" false
    (Hw.Pmp.check c.Hw.Machine.pmp ~privilege:Hw.Pmp.U ~access:Hw.Trap.Read
       ~paddr:base2);
  (* back to the OS: both enclave ranges now denied *)
  pf.Pf.Platform.enter_domain ~core:c Hw.Trap.domain_untrusted;
  check_bool "enclave denied to OS" false
    (Hw.Pmp.check c.Hw.Machine.pmp ~privilege:Hw.Pmp.U ~access:Hw.Trap.Read
       ~paddr:base)

let test_dma_checks_both () =
  List.iter
    (fun backend ->
      let tb = Testbed.create ~backend () in
      let m = tb.Testbed.machine in
      (* DMA into OS memory is fine; into monitor memory is not. *)
      (match Hw.Machine.dma_write m ~paddr:(1024 * 1024) "x" with
      | Ok () -> ()
      | Error _ -> Alcotest.fail "dma to OS memory denied");
      match Hw.Machine.dma_write m ~paddr:0x100 "x" with
      | Error _ -> ()
      | Ok () -> Alcotest.fail "dma to monitor memory allowed")
    [ Testbed.Sanctum_backend; Testbed.Keystone_backend ]

(* ------------------------------------------------------------------ *)
(* The owner map's run list against the page walk it replaced.
   [Page_walk] is that walk, kept whole as the oracle: a flat per-page
   owner array scanned end to end on every query. *)
module Page_walk = struct
  let page = Hw.Phys_mem.page_size

  type t = { owners : int array }

  let of_owner_at ~pages owner_at =
    { owners = Array.init pages (fun p -> owner_at ~paddr:(p * page)) }

  let set_range t ~lo ~hi domain =
    for p = lo / page to (hi / page) - 1 do
      t.owners.(p) <- domain
    done

  let iter_ranges t f =
    let n = Array.length t.owners in
    let lo = ref 0 in
    for p = 1 to n do
      if p = n || t.owners.(p) <> t.owners.(!lo) then begin
        f ~lo:(!lo * page) ~hi:(p * page) ~domain:t.owners.(!lo);
        lo := p
      end
    done

  let domain_ranges t domain =
    let n = Array.length t.owners in
    let rec scan p acc current =
      if p = n then begin
        match current with
        | Some lo -> List.rev ((lo, n * page) :: acc)
        | None -> List.rev acc
      end
      else if t.owners.(p) = domain then
        scan (p + 1) acc (match current with Some _ -> current | None -> Some (p * page))
      else begin
        match current with
        | Some lo -> scan (p + 1) ((lo, p * page) :: acc) None
        | None -> scan (p + 1) acc None
      end
    in
    scan 0 [] None
end

let collect_runs iter t =
  let runs = ref [] in
  iter t (fun ~lo ~hi ~domain -> runs := (lo, hi, domain) :: !runs);
  List.rev !runs

(* Page-aligned grants in the shapes the splice has to get right: empty
   ranges, back-to-back ranges, re-grants to the same domain, and ranges
   ending at the top of memory or covering all of it. *)
type map_op =
  | Range of int * int * int  (** pages [min a b, max a b), domain *)
  | Whole of int  (** all of memory *)
  | To_end of int * int  (** [lo, mem_bytes) *)
  | Next of int * int
      (** [len] pages right after the previous grant, stopping at the
          top of memory *)
  | Again of int * int  (** pages [a, b) again, to the previous domain *)

let show_map_op = function
  | Range (a, b, d) -> Printf.sprintf "Range(%d,%d,%d)" a b d
  | Whole d -> Printf.sprintf "Whole %d" d
  | To_end (lo, d) -> Printf.sprintf "To_end(%d,%d)" lo d
  | Next (len, d) -> Printf.sprintf "Next(%d,%d)" len d
  | Again (a, b) -> Printf.sprintf "Again(%d,%d)" a b

let map_pages = 64

let map_op_gen =
  let open QCheck2.Gen in
  let pg = int_bound map_pages and dom = int_bound 4 in
  frequency
    [
      (6, map3 (fun a b d -> Range (a, b, d)) pg pg dom);
      (1, map2 (fun a d -> Range (a, a, d)) pg dom);
      (1, map (fun d -> Whole d) dom);
      (2, map2 (fun lo d -> To_end (lo, d)) pg dom);
      (3, map2 (fun len d -> Next (len, d)) (int_bound 6) dom);
      (2, map2 (fun a b -> Again (a, b)) pg pg);
    ]

let prop_owner_map_runs =
  QCheck2.Test.make
    ~name:
      "owner map: run list and domain_ranges equal the page walk after \
       every set_range"
    ~count:(Test_fastpath.qcount 300)
    ~print:(fun ops -> String.concat "; " (List.map show_map_op ops))
    QCheck2.Gen.(list_size (int_range 1 40) map_op_gen)
    (fun ops ->
      let page = Hw.Phys_mem.page_size in
      let mem = Hw.Phys_mem.create ~size:(map_pages * page) in
      let t = Pf.Owner_map.create mem ~initial_owner:Hw.Trap.domain_untrusted in
      let oracle =
        Page_walk.of_owner_at ~pages:map_pages (fun ~paddr:_ ->
            Hw.Trap.domain_untrusted)
      in
      let prev_hi = ref 0 and prev_d = ref Hw.Trap.domain_untrusted in
      List.iteri
        (fun step op ->
          let lo, hi, d =
            match op with
            | Range (a, b, d) -> (min a b, max a b, d)
            | Whole d -> (0, map_pages, d)
            | To_end (lo, d) -> (lo, map_pages, d)
            | Next (len, d) -> (!prev_hi, min map_pages (!prev_hi + len), d)
            | Again (a, b) -> (min a b, max a b, !prev_d)
          in
          Pf.Owner_map.set_range t ~lo:(lo * page) ~hi:(hi * page) d;
          Page_walk.set_range oracle ~lo:(lo * page) ~hi:(hi * page) d;
          prev_hi := hi;
          prev_d := d;
          let fail what =
            QCheck2.Test.fail_reportf "%s diverges after step %d (%s)" what
              step (show_map_op op)
          in
          if
            collect_runs Pf.Owner_map.iter_ranges t
            <> collect_runs Page_walk.iter_ranges oracle
          then fail "iter_ranges";
          for d = 0 to 4 do
            if
              Pf.Owner_map.domain_ranges t d
              <> Page_walk.domain_ranges oracle d
            then fail (Printf.sprintf "domain_ranges %d" d)
          done;
          Array.iteri
            (fun p o ->
              if Pf.Owner_map.owner_at t ~paddr:(p * page) <> o then
                fail (Printf.sprintf "owner_at page %d" p))
            oracle.Page_walk.owners)
        ops;
      true)

(* ------------------------------------------------------------------ *)
(* Keystone's PMP programming against a reference programmer: the
   pre-run-list algorithm (one page walk collecting denies and allows,
   then each list in order), fed by the oracle and applied to shadow
   PMPs that receive exactly the programming calls the real cores do. *)

let reference_program pmp oracle ~mem_bytes domain =
  for i = 1 to Hw.Pmp.count pmp - 1 do
    Hw.Pmp.clear_entry pmp ~index:i
  done;
  let next = ref 1 in
  let overflow = ref false in
  let add ~lo ~hi ~allow =
    if !next < Hw.Pmp.count pmp - 1 then begin
      Hw.Pmp.set_entry pmp ~index:!next ~lo ~hi ~r:allow ~w:allow ~x:allow
        ~locked:false;
      incr next
    end
    else overflow := true
  in
  let denies = ref [] and allows = ref [] in
  Page_walk.iter_ranges oracle (fun ~lo ~hi ~domain:d ->
      if d <> Hw.Trap.domain_sm && d <> Hw.Trap.domain_untrusted then
        if d = domain then allows := (lo, hi) :: !allows
        else denies := (lo, hi) :: !denies);
  List.iter (fun (lo, hi) -> add ~lo ~hi ~allow:false) (List.rev !denies);
  List.iter (fun (lo, hi) -> add ~lo ~hi ~allow:true) (List.rev !allows);
  if !overflow then Hw.Pmp.clear_entry pmp ~index:(Hw.Pmp.count pmp - 1)
  else
    Hw.Pmp.set_entry pmp
      ~index:(Hw.Pmp.count pmp - 1)
      ~lo:0 ~hi:mem_bytes ~r:true ~w:true ~x:true ~locked:false

let entry_fields pmp i =
  let e = Hw.Pmp.entry pmp ~index:i in
  Hw.Pmp.(e.active, e.lo, e.hi, e.r, e.w, e.x, e.locked)

(* A fresh PMP whose every entry — inactive ones' stale fields too —
   equals [pmp]'s. *)
let copy_pmp pmp =
  let n = Hw.Pmp.count pmp in
  let copy = Hw.Pmp.create ~entries:n () in
  for i = 0 to n - 1 do
    let active, lo, hi, r, w, x, locked = entry_fields pmp i in
    Hw.Pmp.set_entry copy ~index:i ~lo ~hi ~r ~w ~x ~locked;
    if not active then Hw.Pmp.clear_entry copy ~index:i
  done;
  copy

type pmp_op =
  | Assign of int * int * int  (** first page, page count, domain *)
  | Assign_to_end of int * int  (** first page, domain *)
  | Enter of int * int  (** core, domain *)

let show_pmp_op = function
  | Assign (p, n, d) -> Printf.sprintf "Assign(%d,%d,%d)" p n d
  | Assign_to_end (p, d) -> Printf.sprintf "Assign_to_end(%d,%d)" p d
  | Enter (c, d) -> Printf.sprintf "Enter(%d,%d)" c d

(* Grants land in a 48-page window above 1 MiB (or run to the top of
   memory), so ranges overlap, abut and merge; five enclave domains
   make denies outnumber the small PMP sizes. *)
let pmp_window = 256

let pmp_case_gen =
  let open QCheck2.Gen in
  let dom = oneofl [ Hw.Trap.domain_untrusted; 2; 3; 4; 5; 6 ]
  and first = map (fun p -> pmp_window + p) (int_bound 47) in
  let op =
    frequency
      [
        (5, map3 (fun p n d -> Assign (p, n, d)) first (int_range 1 8) dom);
        (1, map2 (fun p d -> Assign_to_end (p, d)) first dom);
        (4, map2 (fun c d -> Enter (c, d)) (int_bound 3) dom);
      ]
  in
  pair (oneofl [ 4; 6; 16 ]) (list_size (int_range 1 40) op)

let prop_keystone_pmp_differential =
  QCheck2.Test.make
    ~name:
      "differential: keystone PMP vs page walk — every core's entries after \
       every grant and switch"
    ~count:(Test_fastpath.qcount 60)
    ~print:(fun (entries, ops) ->
      Printf.sprintf "pmp_entries=%d: %s" entries
        (String.concat "; " (List.map show_pmp_op ops)))
    pmp_case_gen
    (fun (pmp_entries, ops) ->
      let tb =
        Testbed.create ~backend:Testbed.Keystone_backend ~cores:4 ~pmp_entries
          ()
      in
      let pf = tb.Testbed.platform in
      let cores = Hw.Machine.cores tb.Testbed.machine in
      let page = Hw.Phys_mem.page_size in
      let mem_bytes = Hw.Phys_mem.size (Hw.Machine.mem tb.Testbed.machine) in
      let oracle =
        Page_walk.of_owner_at ~pages:(mem_bytes / page) pf.Pf.Platform.owner_at
      in
      let shadows = Array.map (fun c -> copy_pmp c.Hw.Machine.pmp) cores in
      let grant op ~lo ~hi d =
        match pf.Pf.Platform.assign_range ~lo ~hi d with
        | Error m ->
            QCheck2.Test.fail_reportf "%s refused: %s" (show_pmp_op op) m
        | Ok () ->
            Page_walk.set_range oracle ~lo ~hi d;
            Array.iteri
              (fun i (c : Hw.Machine.core) ->
                reference_program shadows.(i) oracle ~mem_bytes
                  c.Hw.Machine.domain)
              cores
      in
      List.iteri
        (fun step op ->
          (match op with
          | Assign (p, n, d) -> grant op ~lo:(p * page) ~hi:((p + n) * page) d
          | Assign_to_end (p, d) -> grant op ~lo:(p * page) ~hi:mem_bytes d
          | Enter (i, d) ->
              pf.Pf.Platform.enter_domain ~core:cores.(i) d;
              reference_program shadows.(i) oracle ~mem_bytes d);
          Array.iteri
            (fun i (c : Hw.Machine.core) ->
              for j = 0 to Hw.Pmp.count c.Hw.Machine.pmp - 1 do
                if entry_fields c.Hw.Machine.pmp j <> entry_fields shadows.(i) j
                then
                  QCheck2.Test.fail_reportf
                    "core %d pmp%d diverges after step %d (%s)@.keystone:@.%a@.\
                     reference:@.%a"
                    i j step (show_pmp_op op) Hw.Pmp.pp c.Hw.Machine.pmp
                    Hw.Pmp.pp shadows.(i)
              done)
            cores)
        ops;
      true)

(* The overflow path: with fewer PMP entries than deny ranges the core
   must fail closed. [pmp] has just been programmed for some domain
   while [foreign] (the other enclaves' ranges, ascending) was live and
   [denies] ranges needed a deny entry. *)
let check_fail_closed ~label pmp ~foreign ~denies =
  let n = Hw.Pmp.count pmp in
  let u access paddr =
    Hw.Pmp.check pmp ~privilege:Hw.Pmp.U ~access ~paddr
  in
  check_bool (label ^ ": top entry cleared") false
    (Hw.Pmp.entry pmp ~index:(n - 1)).Hw.Pmp.active;
  check_bool (label ^ ": OS memory unreachable from U-mode") false
    (u Hw.Trap.Read (1024 * 1024));
  let programmed =
    List.filter_map
      (fun i ->
        let e = Hw.Pmp.entry pmp ~index:i in
        if e.Hw.Pmp.active then Some e else None)
      (List.init (n - 2) succ)
  in
  List.iter
    (fun (lo, hi) ->
      List.iter
        (fun (e : Hw.Pmp.entry) ->
          if e.Hw.Pmp.lo < hi && lo < e.Hw.Pmp.hi then begin
            check_bool (label ^ ": foreign entry is exact") true
              (e.Hw.Pmp.lo = lo && e.Hw.Pmp.hi = hi);
            check_bool (label ^ ": foreign entry denies") false
              (e.Hw.Pmp.r || e.Hw.Pmp.w || e.Hw.Pmp.x)
          end)
        programmed;
      List.iter
        (fun access ->
          check_bool (label ^ ": foreign range unreachable") false
            (u access lo || u access (hi - 1)))
        Hw.Trap.[ Read; Write; Execute ])
    foreign;
  let is_deny (e : Hw.Pmp.entry) = not e.Hw.Pmp.r in
  let rec denies_first = function
    | a :: (b :: _ as rest) ->
        (is_deny a || not (is_deny b)) && denies_first rest
    | [ _ ] | [] -> true
  in
  check_bool (label ^ ": no allow before a deny") true
    (denies_first programmed);
  check_int (label ^ ": denies that fitted") (min (n - 2) denies)
    (List.length (List.filter is_deny programmed))

let test_keystone_pmp_overflow () =
  let mib = 1024 * 1024 and page = Hw.Phys_mem.page_size in
  let grant pf (lo, hi) d =
    match pf.Pf.Platform.assign_range ~lo ~hi d with
    | Ok () -> ()
    | Error m -> Alcotest.fail m
  in
  (* Four entries: the monitor's, the OS background, and two slots for
     five enclave ranges (no two adjacent, so none merge). *)
  let tb = Testbed.create ~backend:Testbed.Keystone_backend ~pmp_entries:4 () in
  let pf = tb.Testbed.platform in
  let foreign =
    List.init 4 (fun i -> ((2 + i) * mib, ((2 + i) * mib) + (2 * page)))
  in
  List.iteri (fun i r -> grant pf r (10 + i)) foreign;
  grant pf (8 * mib, (8 * mib) + page) 20;
  let c = Hw.Machine.core tb.Testbed.machine 0 in
  pf.Pf.Platform.enter_domain ~core:c 20;
  check_fail_closed ~label:"enclave" c.Hw.Machine.pmp ~foreign ~denies:4;
  pf.Pf.Platform.enter_domain ~core:c Hw.Trap.domain_untrusted;
  check_fail_closed ~label:"os" c.Hw.Machine.pmp
    ~foreign:(foreign @ [ (8 * mib, (8 * mib) + page) ])
    ~denies:5;
  (* Five entries: both denies fit, the incoming enclave's second
     range does not — still fail closed, allows strictly after denies. *)
  let tb = Testbed.create ~backend:Testbed.Keystone_backend ~pmp_entries:5 () in
  let pf = tb.Testbed.platform in
  let foreign = [ (2 * mib, (2 * mib) + page); (3 * mib, (3 * mib) + page) ] in
  List.iteri (fun i r -> grant pf r (10 + i)) foreign;
  grant pf (4 * mib, (4 * mib) + page) 20;
  grant pf (5 * mib, (5 * mib) + page) 20;
  let c = Hw.Machine.core tb.Testbed.machine 1 in
  pf.Pf.Platform.enter_domain ~core:c 20;
  check_fail_closed ~label:"allow overflow" c.Hw.Machine.pmp ~foreign ~denies:2;
  check_bool "first own range allowed" true
    (Hw.Pmp.check c.Hw.Machine.pmp ~privilege:Hw.Pmp.U ~access:Hw.Trap.Read
       ~paddr:(4 * mib));
  check_bool "dropped own range faults, never leaks" false
    (Hw.Pmp.check c.Hw.Machine.pmp ~privilege:Hw.Pmp.U ~access:Hw.Trap.Read
       ~paddr:(5 * mib))

let suite =
  ( "platform",
    [
      Alcotest.test_case "sanctum granularity" `Quick test_sanctum_granularity;
      Alcotest.test_case "keystone granularity" `Quick test_keystone_granularity;
      Alcotest.test_case "monitor memory reserved" `Quick test_sm_memory_reserved;
      Alcotest.test_case "sanctum LLC coloring disjoint" `Quick
        test_sanctum_llc_coloring_disjoint;
      Alcotest.test_case "keystone LLC shared" `Quick test_keystone_llc_shared;
      Alcotest.test_case "enter_domain flushes core state" `Quick
        test_enter_domain_flushes;
      Alcotest.test_case "clean_range zeroes memory" `Quick
        test_clean_range_zeroes;
      Alcotest.test_case "keystone PMP programming" `Quick
        test_keystone_pmp_programming;
      Alcotest.test_case "dma checks" `Quick test_dma_checks_both;
      Alcotest.test_case "keystone PMP overflow fails closed" `Quick
        test_keystone_pmp_overflow;
      QCheck_alcotest.to_alcotest prop_owner_map_runs;
      QCheck_alcotest.to_alcotest prop_keystone_pmp_differential;
    ] )
