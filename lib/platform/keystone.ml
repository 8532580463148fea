module Hw = Sanctorum_hw
module Tel = Sanctorum_telemetry

let create machine =
  let mem = Hw.Machine.mem machine in
  let mem_bytes = Hw.Phys_mem.size mem in
  let owners = Owner_map.create mem ~initial_owner:Hw.Trap.domain_untrusted in
  Owner_map.set_range owners ~lo:0 ~hi:Platform.sm_memory_bytes
    Hw.Trap.domain_sm;
  (* Entry 0 on every core: the monitor's memory, locked, no access for
     any mode. The monitor model performs its own memory operations
     natively, standing in for M-mode execution. *)
  Array.iter
    (fun (c : Hw.Machine.core) ->
      Hw.Pmp.set_entry c.Hw.Machine.pmp ~index:0 ~lo:0
        ~hi:Platform.sm_memory_bytes ~r:false ~w:false ~x:false ~locked:true)
    (Hw.Machine.cores machine);
  let program_pmp (core : Hw.Machine.core) domain =
    let pmp = core.Hw.Machine.pmp in
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
    let enclave d = d <> Hw.Trap.domain_sm && d <> Hw.Trap.domain_untrusted in
    (* Two passes over the owner map's runs: O(live ranges) each,
       however large memory is and however many enclaves have come and
       gone (a cumulative per-domain list here once made long churn runs
       quadratic). Security-critical entries first: every other
       enclave's ranges are denied, in ascending order. If the entry
       budget overflows, dropped entries must be denies of the
       lowest-priority kind, never silent allows. *)
    Owner_map.iter_ranges owners (fun ~lo ~hi ~domain:d ->
        if enclave d && d <> domain then add ~lo ~hi ~allow:false);
    (* Then the incoming domain's own ranges. *)
    Owner_map.iter_ranges owners (fun ~lo ~hi ~domain:d ->
        if enclave d && d = domain then add ~lo ~hi ~allow:true);
    (* Lowest priority: OS-shared memory stays reachable — but only
       when every deny fitted. On overflow the core fails closed: with
       no background entry, unmatched U/S accesses are denied, so
       running out of PMP entries can cause spurious faults but never
       an isolation violation. *)
    if !overflow then Hw.Pmp.clear_entry pmp ~index:(Hw.Pmp.count pmp - 1)
    else
      Hw.Pmp.set_entry pmp
        ~index:(Hw.Pmp.count pmp - 1)
        ~lo:0 ~hi:mem_bytes ~r:true ~w:true ~x:true ~locked:false
  in
  let phys_check ~(core : Hw.Machine.core) ~access ~paddr =
    Hw.Pmp.check core.Hw.Machine.pmp ~privilege:Hw.Pmp.U ~access ~paddr
  in
  let pte_fetch_check ~(core : Hw.Machine.core) ~paddr =
    Hw.Pmp.check core.Hw.Machine.pmp ~privilege:Hw.Pmp.U ~access:Hw.Trap.Read
      ~paddr
  in
  let dma_check ~paddr ~len =
    len >= 0
    && paddr >= 0
    && paddr + len <= mem_bytes
    && begin
         let lo = Sanctorum_util.Bits.align_down paddr Hw.Phys_mem.page_size in
         let hi =
           Sanctorum_util.Bits.align_up (paddr + max len 1) Hw.Phys_mem.page_size
         in
         Owner_map.range_owned_by owners ~lo ~hi Hw.Trap.domain_untrusted
       end
  in
  Hw.Machine.set_phys_check machine phys_check;
  Hw.Machine.set_pte_fetch_check machine pte_fetch_check;
  Hw.Machine.set_dma_check machine dma_check;
  let page = Hw.Phys_mem.page_size in
  let assign_range ~lo ~hi domain =
    if lo mod page <> 0 || hi mod page <> 0 || lo >= hi then
      Error "keystone: grants are page-aligned ranges"
    else if hi > mem_bytes then Error "keystone: range beyond physical memory"
    else begin
      Owner_map.set_range owners ~lo ~hi domain;
      (* Cores currently inside a domain see the new white-list at
         once, as a real monitor would re-program PMP under a lock. *)
      Array.iter
        (fun (c : Hw.Machine.core) -> program_pmp c c.Hw.Machine.domain)
        (Hw.Machine.cores machine);
      Hw.Machine.note_protection_change machine;
      Ok ()
    end
  in
  let l2 = Hw.Machine.l2 machine in
  let clean_range ~lo ~hi =
    Hw.Phys_mem.zero_range mem ~pos:lo ~len:(hi - lo);
    let line = (Hw.Cache.config l2).Hw.Cache.line_bytes in
    let rec go addr =
      if addr < hi then begin
        Hw.Cache.flush_set l2 (Hw.Cache.set_of_paddr l2 addr);
        go (addr + line)
      end
    in
    go lo;
    Hw.Machine.tlb_shootdown machine ~reason:"region-clean-shootdown"
  in
  let enter_domain ~(core : Hw.Machine.core) domain =
    Hw.Cache.flush_all core.Hw.Machine.l1;
    Hw.Tlb.flush core.Hw.Machine.tlb;
    program_pmp core domain;
    core.Hw.Machine.domain <- domain;
    Hw.Machine.note_protection_change machine;
    let sink = Hw.Machine.sink machine in
    if Tel.Sink.enabled sink then begin
      let id = core.Hw.Machine.id and cycles = core.Hw.Machine.cycles in
      Tel.Sink.emit sink ~core:id ~cycles
        (Tel.Event.Tlb_flush { reason = "domain-switch" });
      Tel.Sink.emit sink ~core:id ~cycles (Tel.Event.Domain_switch { domain })
    end
  in
  {
    Platform.name = "keystone";
    machine;
    alloc_unit = page;
    llc_partitioned = false;
    assign_range;
    owner_at = (fun ~paddr -> Owner_map.owner_at owners ~paddr);
    clean_range;
    enter_domain;
    ranges_of_domain = (fun d -> Owner_map.domain_ranges owners d);
  }
