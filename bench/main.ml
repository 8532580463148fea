(* The benchmark harness: one group per paper artifact (see DESIGN.md
   experiment index). Figures F1–F7 are timed with bechamel over the
   live monitor; P1/S1 print deterministic simulated-cycle tables; T1
   is regenerated by bin/loc_report.exe.

   Usage: main.exe [fig1|fig2|fig3|fig4|fig5|fig6|fig7|crypto|platforms|
                    sidechannel|ablation|telemetry|analysis|faults|sim|
                    workload|attest|fleet|modelcheck|all]
   (default: all)

   The sim, workload, attest, fleet and modelcheck groups each write
   one record, bench-out/<group>.json, and exit 1 exactly when one of
   its gates fails. Their scale comes from twelve environment knobs:
   SANCTORUM_SIM_QUOTA; SANCTORUM_WORKLOAD_{CORES,ENCLAVES,ROUNDS}
   (workload, and attest's churn run); SANCTORUM_ATTEST_{CLIENTS,BATCH,
   MIN_S}; SANCTORUM_FLEET_{JOBS,TARGET};
   SANCTORUM_MODELCHECK_{DEPTH,DIFF_DEPTH}; and SANCTORUM_BENCH_BACKEND
   (sanctum or keystone, default keystone) for attest and fleet. *)

module Hw = Sanctorum_hw
module Tel = Sanctorum_telemetry
module J = Tel.Json
module C = Sanctorum_crypto
module S = Sanctorum.Sm
module Img = Sanctorum.Image
module Atk = Sanctorum_attack
module W = Sanctorum_workload.Workload
open Sanctorum_os

(* ------------------------------------------------------------------ *)
(* Knobs *)

let env parse name default =
  Option.value (Option.bind (Sys.getenv_opt name) parse) ~default

let env_int = env int_of_string_opt

let bench_backend () =
  env
    (function
      | "sanctum" -> Some Testbed.Sanctum_backend
      | "keystone" -> Some Testbed.Keystone_backend
      | _ -> None)
    "SANCTORUM_BENCH_BACKEND" Testbed.Keystone_backend

(* ------------------------------------------------------------------ *)
(* The bench record. One schema for every group: what ran (bench,
   provenance, params), what it measured (rows, one object each), and
   what it checked (gates). Provenance names the backend, seed, git
   revision and compiler, so a number quoted in the README can be traced
   to the exact tree that measured it. Records go to bench-out/, never
   over the committed BENCH_PR*.json history. *)

(* The git revision comes from [.git/HEAD] directly (following one level
   of ref indirection); no subprocess, no dependency. *)
let git_rev () =
  let read_line path =
    try
      let ic = open_in path in
      Fun.protect
        ~finally:(fun () -> close_in ic)
        (fun () -> String.trim (input_line ic))
    with _ -> ""
  in
  let rec find_git dir depth =
    if depth > 8 then None
    else if Sys.file_exists (Filename.concat dir ".git") then
      Some (Filename.concat dir ".git")
    else
      let parent = Filename.dirname dir in
      if parent = dir then None else find_git parent (depth + 1)
  in
  match find_git (Sys.getcwd ()) 0 with
  | None -> "unknown"
  | Some git -> (
      match read_line (Filename.concat git "HEAD") with
      | "" -> "unknown"
      | head when String.length head > 5 && String.sub head 0 5 = "ref: " -> (
          let target =
            String.sub head 5 (String.length head - 5)
            |> String.split_on_char '/' |> List.fold_left Filename.concat git
          in
          match read_line target with "" -> "unknown" | rev -> rev)
      | rev -> rev)

(* A gate holds when [value >= floor]; a NaN value fails it. *)
type gate = { name : string; value : float; floor : float }

let passes g = g.value >= g.floor

(* Every one of [oks] must hold: value = how many do, floor = all. *)
let all_of name oks =
  {
    name;
    value = float (List.length (List.filter Fun.id oks));
    floor = float (List.length oks);
  }

let emit ~bench ~backend ~seed ~params ~rows ~gates =
  let clean = List.for_all passes gates in
  let record =
    J.Obj
      [
        ("bench", J.String bench);
        ( "provenance",
          J.Obj
            [
              ("backend", J.String backend);
              ("seed", J.String seed);
              ("git_rev", J.String (git_rev ()));
              ("ocaml_version", J.String Sys.ocaml_version);
            ] );
        ("params", J.Obj params);
        ("rows", J.List rows);
        ( "gates",
          J.List
            (List.map
               (fun g ->
                 J.Obj
                   [
                     ("name", J.String g.name);
                     ("value", J.Float g.value);
                     ("floor", J.Float g.floor);
                     ("ok", J.Bool (passes g));
                   ])
               gates) );
        ("clean", J.Bool clean);
      ]
  in
  (try Sys.mkdir "bench-out" 0o755 with Sys_error _ -> ());
  let path = Filename.concat "bench-out" (bench ^ ".json") in
  Out_channel.with_open_text path (fun oc ->
      Out_channel.output_string oc (J.to_string record ^ "\n"));
  List.iter
    (fun g ->
      Printf.printf "  gate %-36s %9.2f >= %-6g %s\n" g.name g.value g.floor
        (if passes g then "ok" else "FAILED"))
    gates;
  Printf.printf "  wrote %s\n" path;
  if not clean then begin
    Printf.eprintf "%s bench: a gate failed\n" bench;
    exit 1
  end

(* ------------------------------------------------------------------ *)
(* Bechamel plumbing *)

let run_group ~name tests =
  let open Bechamel in
  let open Toolkit in
  let instances = Instance.[ monotonic_clock ] in
  let cfg =
    Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.5) ~kde:(Some 1000) ()
  in
  let grouped = Test.make_grouped ~name ~fmt:"%s %s" tests in
  let raw = Benchmark.all cfg instances grouped in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |]
  in
  let results = Analyze.all ols Instance.monotonic_clock raw in
  Printf.printf "\n== %s ==\n" name;
  let rows = Hashtbl.fold (fun k v acc -> (k, v) :: acc) results [] in
  let strip label =
    let prefix = name ^ " " in
    if
      String.length label > String.length prefix
      && String.sub label 0 (String.length prefix) = prefix
    then
      String.sub label (String.length prefix)
        (String.length label - String.length prefix)
    else label
  in
  List.iter
    (fun (label, ols_result) ->
      match Analyze.OLS.estimates ols_result with
      | Some [ ns ] -> Printf.printf "  %-48s %12.0f ns/op\n" (strip label) ns
      | Some _ | None -> Printf.printf "  %-48s (no estimate)\n" (strip label))
    (List.sort compare rows)

let test ~name f = Bechamel.Test.make ~name (Bechamel.Staged.stage f)

let exit_prog = Hw.Isa.[ Op_imm (Add, a7, zero, S.Ecall.exit_enclave); Ecall ]

let must_v = function
  | Ok v -> v
  | Error e -> failwith (Sanctorum.Api_error.to_string e)

let must r = ignore (must_v r)
let install tb image = must_v (Os.install_enclave tb.Testbed.os image)

(* ------------------------------------------------------------------ *)
(* F1 — Fig. 1: the trap funnel / API dispatch *)

let bench_fig1 () =
  let tb = Testbed.create () in
  (* 16 no-op monitor calls, then exit: measures the ecall dispatch
     path (authenticate, decode, respond). *)
  let calls =
    List.concat
      (List.init 16 (fun _ ->
           Hw.Isa.[ Op_imm (Add, a7, zero, 999); Ecall ]))
  in
  let i_ecall = install tb (Img.of_program ~evbase:0x10000 (calls @ exit_prog)) in
  let i_spin = install tb (Img.of_program ~evbase:0x20000 [ Hw.Isa.j 0 ]) in
  let i_fault =
    install tb
      (Img.of_program ~evbase:0x30000
         Hw.Isa.(li t0 0x38000 @ [ Load (Ld, a0, t0, 0) ]))
  in
  let os = tb.Testbed.os in
  run_group ~name:"F1: SM API dispatch via system exceptions"
    [
      test ~name:"enter + 16 ecall dispatches + exit" (fun () ->
          must
            (Os.run_enclave os ~eid:i_ecall.Os.eid
               ~tid:(List.hd i_ecall.Os.tids) ~core:0 ~fuel:500 ()));
      test ~name:"OS interrupt: AEX + delegate" (fun () ->
          must
            (Os.run_enclave os ~eid:i_spin.Os.eid ~tid:(List.hd i_spin.Os.tids)
               ~core:1 ~fuel:100000 ~quantum:100 ()));
      test ~name:"enclave fault: AEX + delegate" (fun () ->
          must
            (Os.run_enclave os ~eid:i_fault.Os.eid
               ~tid:(List.hd i_fault.Os.tids) ~core:2 ~fuel:500 ()));
    ]

(* ------------------------------------------------------------------ *)
(* F2 — Fig. 2: resource transitions *)

let bench_fig2 () =
  let tb = Testbed.create () in
  let os = tb.Testbed.os in
  let sm = tb.Testbed.sm in
  let rid = List.hd (Os.alloc_units os ~count:1) in
  let kind = Sanctorum.Resource.Memory_resource in
  let i = install tb (Img.of_program ~evbase:0x10000 exit_prog) in
  let eid = i.Os.eid in
  (* bring the unit to Available once *)
  must (S.block_resource sm ~caller:S.Os kind ~rid);
  must (S.clean_resource sm ~caller:S.Os kind ~rid);
  must (S.grant_resource sm ~caller:S.Os kind ~rid ~to_:S.To_os);
  run_group ~name:"F2: generic resource state transitions"
    [
      test ~name:"block+clean+grant cycle (OS memory unit)" (fun () ->
          must (S.block_resource sm ~caller:S.Os kind ~rid);
          must (S.clean_resource sm ~caller:S.Os kind ~rid);
          must (S.grant_resource sm ~caller:S.Os kind ~rid ~to_:S.To_os));
      test ~name:"grant+accept+block+clean (enclave unit)" (fun () ->
          must (S.block_resource sm ~caller:S.Os kind ~rid);
          must (S.clean_resource sm ~caller:S.Os kind ~rid);
          must (S.grant_resource sm ~caller:S.Os kind ~rid ~to_:(S.To_enclave eid));
          must (S.accept_resource sm ~caller:(S.Enclave_caller eid) kind ~rid);
          must
            (S.block_resource sm ~caller:(S.Enclave_caller eid) kind ~rid);
          must (S.clean_resource sm ~caller:S.Os kind ~rid);
          must (S.grant_resource sm ~caller:S.Os kind ~rid ~to_:S.To_os));
    ]

(* ------------------------------------------------------------------ *)
(* F3 — Fig. 3: enclave lifecycle *)

let bench_fig3 () =
  let tb = Testbed.create () in
  let os = tb.Testbed.os in
  let lifecycle data_pages () =
    let image = Img.of_program ~evbase:0x10000 ~data_pages exit_prog in
    let i = must_v (Os.install_enclave os image) in
    must (Os.reclaim_enclave os ~eid:i.Os.eid)
  in
  run_group ~name:"F3: enclave lifecycle (create -> load k pages -> init -> delete)"
    [
      test ~name:"k = 4 pages" (lifecycle 3);
      test ~name:"k = 16 pages" (lifecycle 15);
      test ~name:"k = 64 pages" (lifecycle 63);
    ]

(* ------------------------------------------------------------------ *)
(* F4 — Fig. 4: thread lifecycle *)

let bench_fig4 () =
  let tb = Testbed.create () in
  let os = tb.Testbed.os in
  let sm = tb.Testbed.sm in
  let i_exit = install tb (Img.of_program ~evbase:0x10000 exit_prog) in
  let i_spin = install tb (Img.of_program ~evbase:0x20000 [ Hw.Isa.j 0 ]) in
  let eid = i_exit.Os.eid and tid = List.hd i_exit.Os.tids in
  run_group ~name:"F4: thread scheduling"
    [
      test ~name:"enter_enclave + exit_enclave roundtrip" (fun () ->
          must (Os.run_enclave os ~eid ~tid ~core:0 ~fuel:100 ()));
      test ~name:"enter + AEX (preemption) roundtrip" (fun () ->
          must
            (Os.run_enclave os ~eid:i_spin.Os.eid ~tid:(List.hd i_spin.Os.tids)
               ~core:1 ~fuel:100000 ~quantum:200 ()));
      test ~name:"release + assign + accept recycle" (fun () ->
          must (S.release_thread sm ~caller:(S.Enclave_caller eid) ~tid);
          must (S.assign_thread sm ~caller:S.Os ~eid ~tid);
          must
            (S.accept_thread sm ~caller:(S.Enclave_caller eid) ~tid
               ~entry_pc:0x10000L ~entry_sp:0x11ff0L ()));
    ]

(* ------------------------------------------------------------------ *)
(* F5 — Fig. 5: mailboxes *)

let bench_fig5 () =
  let tb = Testbed.create () in
  let sm = tb.Testbed.sm in
  let i1 = install tb (Img.of_program ~evbase:0x10000 exit_prog) in
  let i2 = install tb (Img.of_program ~evbase:0x20000 exit_prog) in
  let e1 = i1.Os.eid and e2 = i2.Os.eid in
  let msg = String.make Sanctorum.Mailbox.message_size 'm' in
  run_group ~name:"F5: mailbox message passing"
    [
      test ~name:"accept + send + get (256-byte message)" (fun () ->
          must
            (S.accept_mail sm ~caller:(S.Enclave_caller e2)
               ~sender:(Sanctorum.Mailbox.From_enclave e1));
          must (S.send_mail sm ~caller:(S.Enclave_caller e1) ~recipient:e2 ~msg);
          ignore
            (must
               (S.get_mail sm ~caller:(S.Enclave_caller e2)
                  ~sender:(Sanctorum.Mailbox.From_enclave e1))));
      test ~name:"OS -> enclave mail" (fun () ->
          must
            (S.accept_mail sm ~caller:(S.Enclave_caller e2)
               ~sender:Sanctorum.Mailbox.From_os);
          must (S.send_mail sm ~caller:S.Os ~recipient:e2 ~msg);
          ignore
            (must
               (S.get_mail sm ~caller:(S.Enclave_caller e2)
                  ~sender:Sanctorum.Mailbox.From_os)));
    ]

(* ------------------------------------------------------------------ *)
(* F6 — Fig. 6: local attestation *)

let bench_fig6 () =
  let tb = Testbed.create () in
  let sm = tb.Testbed.sm in
  let i1 = install tb (Img.of_program ~evbase:0x10000 exit_prog) in
  let i2 = install tb (Img.of_program ~evbase:0x20000 exit_prog) in
  let expected = must_v (S.enclave_measurement sm ~eid:i1.Os.eid) in
  run_group ~name:"F6: local attestation (E2 attests E1)"
    [
      test ~name:"four-step protocol, end to end" (fun () ->
          match
            Sanctorum.Attestation.local_attest sm ~verifier:i2.Os.eid
              ~prover:i1.Os.eid ~expected
          with
          | Ok true -> ()
          | Ok false -> failwith "attestation mismatch"
          | Error e -> failwith (Sanctorum.Api_error.to_string e));
    ]

(* ------------------------------------------------------------------ *)
(* F7 — Fig. 7: remote attestation *)

let bench_fig7 () =
  let tb = Testbed.create () in
  let es = must_v (Testbed.install_signing_enclave tb) in
  let target = Img.of_program ~evbase:0x30000 exit_prog in
  let t1 = install tb target in
  let expected = Img.measurement target in
  run_group ~name:"F7: remote attestation (10-step protocol)"
    [
      test ~name:"key agreement + sign + verify, end to end" (fun () ->
          let s =
            Sanctorum.Attestation.run_remote_attestation tb.Testbed.sm
              ~rng:tb.Testbed.rng ~eid:t1.Os.eid ~es_eid:es.Os.eid
              ~expected_measurement:expected
          in
          match s.Sanctorum.Attestation.verdict with
          | Ok () -> ()
          | Error m -> failwith m);
    ]

(* ------------------------------------------------------------------ *)
(* Crypto substrate microbenchmarks (the costs behind F6/F7 and §VI-A) *)

let bench_crypto () =
  let page = String.make 4096 'p' in
  let sk = C.Schnorr.secret_key_of_seed "bench" in
  let pk = C.Schnorr.public_key sk in
  let signature = C.Schnorr.sign sk "msg" in
  let rng = C.Drbg.create ~seed:"bench" in
  let s1, _p1 = C.Dh.generate rng in
  let _s2, p2 = C.Dh.generate rng in
  run_group ~name:"crypto substrate"
    [
      test ~name:"sha3-256 of one 4 KiB page (measurement)" (fun () ->
          ignore (C.Sha3.sha3_256 page));
      test ~name:"schnorr sign" (fun () -> ignore (C.Schnorr.sign sk "msg"));
      test ~name:"schnorr verify" (fun () ->
          ignore (C.Schnorr.verify pk ~msg:"msg" ~signature));
      test ~name:"dh shared key" (fun () -> ignore (C.Dh.shared_key s1 p2));
      test ~name:"drbg 32 bytes" (fun () -> ignore (C.Drbg.random_bytes rng 32));
    ]

(* ------------------------------------------------------------------ *)
(* P1 — §VII: Sanctum vs Keystone, simulated-cycle comparison *)

let simulated_cycles backend =
  let tb = Testbed.create ~backend () in
  let os = tb.Testbed.os in
  let compute =
    (* ~1000 retired instructions: a counted loop *)
    Hw.Isa.(
      li t0 330
      @ [
          Op_imm (Add, t1, zero, 0);
          Op_imm (Add, t1, t1, 1);
          Branch (Bne, t1, t0, -4);
        ]
      @ exit_prog)
  in
  let i = install tb (Img.of_program ~evbase:0x10000 compute) in
  let eid = i.Os.eid and tid = List.hd i.Os.tids in
  let core = Hw.Machine.core tb.Testbed.machine 0 in
  (* cold roundtrip *)
  let c0 = core.Hw.Machine.cycles in
  must (Os.run_enclave os ~eid ~tid ~core:0 ~fuel:100000 ());
  let cold = core.Hw.Machine.cycles - c0 in
  (* warm roundtrip (caches survive only within one entry: the domain
     switch flushes L1/TLB, so "warm" is still a fresh enclave view) *)
  let c1 = core.Hw.Machine.cycles in
  must (Os.run_enclave os ~eid ~tid ~core:0 ~fuel:100000 ());
  let warm = core.Hw.Machine.cycles - c1 in
  (* untrusted baseline: the same loop as an ordinary process *)
  let c2 = core.Hw.Machine.cycles in
  let _ =
    Os.run_untrusted_program os
      ~code:
        Hw.Isa.(
          li t0 330
          @ [
              Op_imm (Add, t1, zero, 0);
              Op_imm (Add, t1, t1, 1);
              Branch (Bne, t1, t0, -4);
            ]
          @ [ Ecall ])
      ~core:0 ~fuel:100000 ()
  in
  let baseline = core.Hw.Machine.cycles - c2 in
  (cold, warm, baseline)

let report_platforms () =
  Printf.printf "\n== P1: platform backends (simulated cycles, ~1000-instr workload) ==\n";
  Printf.printf "  %-10s %14s %14s %18s %10s\n" "backend" "enclave (cold)"
    "enclave (warm)" "untrusted baseline" "overhead";
  List.iter
    (fun backend ->
      let cold, warm, base = simulated_cycles backend in
      Printf.printf "  %-10s %14d %14d %18d %9.2fx\n"
        (Testbed.backend_name backend)
        cold warm base
        (float_of_int warm /. float_of_int base))
    [ Testbed.Sanctum_backend; Testbed.Keystone_backend ];
  Printf.printf
    "  (enclave runs pay page walks through private tables and flushed\n\
    \   L1/TLB on each protection-domain switch; the shape, not the\n\
    \   absolute numbers, is the result)\n"

(* ------------------------------------------------------------------ *)
(* S1 — side channels on both backends *)

let report_sidechannel () =
  Printf.printf "\n== S1: cache side channel (prime+probe, 8 candidate secrets) ==\n";
  Printf.printf "  %-10s %8s %8s %8s %8s   %s\n" "backend" "secret" "guess"
    "spread" "leaked" "probe timings (cycles)";
  List.iter
    (fun backend ->
      List.iter
        (fun secret ->
          let tb =
            Testbed.create ~backend ~l2:Atk.Cache_probe.recommended_l2 ()
          in
          match Atk.Cache_probe.run tb ~secret () with
          | Error m -> Printf.printf "  %s: error %s\n" (Testbed.backend_name backend) m
          | Ok o ->
              Printf.printf "  %-10s %8d %8d %8d %8b   [%s]\n"
                (Testbed.backend_name backend)
                o.Atk.Cache_probe.secret o.Atk.Cache_probe.guess
                o.Atk.Cache_probe.spread o.Atk.Cache_probe.leaked
                (String.concat " "
                   (Array.to_list
                      (Array.map string_of_int o.Atk.Cache_probe.timings))))
        [ 2; 5 ])
    [ Testbed.Keystone_backend; Testbed.Sanctum_backend ];
  Printf.printf "\n== S1: controlled channel (page-fault sequence) ==\n";
  let secret = [ 3; 1; 4; 1; 5 ] in
  let tb = Testbed.create () in
  let b = Atk.Controlled_channel.baseline tb ~secret ~core:0 in
  Printf.printf "  baseline process : OS observed [%s]  recovered=%b\n"
    (String.concat ";" (List.map string_of_int b.Atk.Controlled_channel.observed_pages))
    b.Atk.Controlled_channel.recovered;
  List.iter
    (fun backend ->
      let tb = Testbed.create ~backend () in
      match Atk.Controlled_channel.enclave tb ~secret ~core:0 with
      | Error m -> Printf.printf "  enclave (%s): error %s\n" (Testbed.backend_name backend) m
      | Ok o ->
          Printf.printf "  enclave (%-8s): OS observed [%s]  recovered=%b\n"
            (Testbed.backend_name backend)
            (String.concat ";"
               (List.map string_of_int o.Atk.Controlled_channel.observed_pages))
            o.Atk.Controlled_channel.recovered)
    [ Testbed.Sanctum_backend; Testbed.Keystone_backend ]

(* ------------------------------------------------------------------ *)
(* Ablation: the cost of the paper's "flush on every protection-domain
   switch" rule, as a function of the OS scheduling quantum. Work is a
   memory-persistent counter (progress survives AEX), so the total
   simulated cycles to finish fixed work isolates the switch + refill
   overhead. *)

let report_ablation () =
  Printf.printf
    "\n== ablation: domain-switch flushing cost vs scheduling quantum ==\n";
  Printf.printf "  %-16s %12s %12s %14s\n" "quantum (cyc)" "entries"
    "total cyc" "cyc/iteration";
  let target = 3000 in
  List.iter
    (fun quantum ->
      let tb = Testbed.create () in
      let os = tb.Testbed.os in
      let evbase = 0x10000 in
      let counter = evbase + 4096 in
      let body =
        Hw.Isa.(
          li t0 counter
          @ [ Load (Ld, t1, t0, 0) ]
          @ li t2 target
          @ [
              Branch (Bge, t1, t2, 16);
              Op_imm (Add, t1, t1, 1);
              Store (Sd, t1, t0, 0);
              Jal (zero, -12);
            ]
          @ exit_prog)
      in
      let i = install tb (Img.of_program ~evbase body) in
      let eid = i.Os.eid and tid = List.hd i.Os.tids in
      let core = Hw.Machine.core tb.Testbed.machine 0 in
      let start = core.Hw.Machine.cycles in
      let entries = ref 0 in
      let finished = ref false in
      while (not !finished) && !entries < 10000 do
        incr entries;
        match Os.run_enclave os ~eid ~tid ~core:0 ~fuel:1000000 ~quantum () with
        | Ok Os.Exited -> finished := true
        | Ok Os.Preempted -> ()
        | Ok _ | Error _ -> finished := true
      done;
      let total = core.Hw.Machine.cycles - start in
      Printf.printf "  %-16d %12d %12d %14.1f\n" quantum !entries total
        (float_of_int total /. float_of_int target))
    [ 500; 1000; 2000; 5000; 20000; 1000000 ];
  Printf.printf
    "  (small quanta amplify the mandatory L1/TLB flush + refill per\n\
    \   re-entry - the price of time-multiplexed cores, SIV-B2)\n"

(* ------------------------------------------------------------------ *)
(* The telemetry, analysis and faults groups all time one op: enter,
   16 no-op ecall dispatches, exit, on core 0. *)

let ecall_op tb =
  let calls =
    List.concat
      (List.init 16 (fun _ -> Hw.Isa.[ Op_imm (Add, a7, zero, 999); Ecall ]))
  in
  let i = install tb (Img.of_program ~evbase:0x10000 (calls @ exit_prog)) in
  let os = tb.Testbed.os in
  let eid = i.Os.eid and tid = List.hd i.Os.tids in
  fun () -> must (Os.run_enclave os ~eid ~tid ~core:0 ~fuel:500 ())

(* host ns per call of [f], averaged over [iters] calls *)
let time_per_op ~iters f =
  let t0 = Sys.time () in
  for _ = 1 to iters do
    f ()
  done;
  (Sys.time () -. t0) /. float_of_int iters *. 1e9

(* ------------------------------------------------------------------ *)
(* Telemetry-backed counters: simulated events per operation alongside
   wall-clock, and the wall-clock overhead of leaving tracing on. *)

let report_telemetry () =
  let iters = 2000 in
  let time = time_per_op ~iters in
  (* Traced run: per-op counter deltas from the metrics registry. *)
  let metrics = Tel.Metrics.create () in
  let sink = Tel.Sink.create ~capacity:4096 ~metrics () in
  let traced_op = ecall_op (Testbed.create ~sink ()) in
  traced_op ();
  (* warm-up done; measure from a clean registry *)
  Tel.Metrics.reset metrics;
  Tel.Sink.clear sink;
  let traced_ns = time traced_op in
  let value name =
    match Tel.Metrics.find metrics name with
    | Some (Tel.Metrics.Counter c) -> Tel.Metrics.value c
    | Some (Tel.Metrics.Histogram _) | None -> 0
  in
  let prefixed prefix =
    List.fold_left
      (fun acc (name, item) ->
        match item with
        | Tel.Metrics.Counter c
          when String.length name >= String.length prefix
               && String.sub name 0 (String.length prefix) = prefix ->
            acc + Tel.Metrics.value c
        | Tel.Metrics.Counter _ | Tel.Metrics.Histogram _ -> acc)
      0 (Tel.Metrics.to_list metrics)
  in
  let per n = float_of_int n /. float_of_int iters in
  Printf.printf
    "\n== telemetry: counter deltas per op (enter + 16 ecalls + exit) ==\n";
  Printf.printf "  %-34s %12.1f\n" "instructions retired/op" (per (value "hw.instret"));
  Printf.printf "  %-34s %12.2f\n" "L1 misses/op" (per (value "hw.cache.l1.misses"));
  Printf.printf "  %-34s %12.2f\n" "L2 misses/op" (per (value "hw.cache.l2.misses"));
  Printf.printf "  %-34s %12.2f\n" "TLB misses/op" (per (value "hw.tlb.misses"));
  Printf.printf "  %-34s %12.2f\n" "page-walk steps/op" (per (value "hw.ptw.steps"));
  Printf.printf "  %-34s %12.2f\n" "traps/op" (per (prefixed "hw.traps."));
  Printf.printf "  %-34s %12.2f\n" "SM API calls/op" (per (prefixed "sm.api.calls."));
  Printf.printf "  %-34s %12.2f\n" "events/op"
    (per (Tel.Sink.event_count sink));
  Printf.printf "  %-34s %12.0f\n" "wall-clock ns/op (traced)" traced_ns;
  (* Untraced baseline on a fresh, identical stack. *)
  let plain_op = ecall_op (Testbed.create ()) in
  plain_op ();
  let plain_ns = time plain_op in
  Printf.printf "  %-34s %12.0f\n" "wall-clock ns/op (tracing off)" plain_ns;
  Printf.printf "  %-34s %11.1f%%\n" "tracing overhead"
    (if plain_ns = 0. then 0. else (traced_ns -. plain_ns) /. plain_ns *. 100.)

(* ------------------------------------------------------------------ *)
(* The analysis layer: what one whole-state snapshot pass costs, and
   what arming it after every API call does to a real workload. *)

let report_analysis () =
  let module An = Sanctorum_analysis in
  let time ?(iters = 500) f = time_per_op ~iters f in
  Printf.printf "\n== analysis: invariant-checker cost ==\n";
  (* One snapshot pass over a populated monitor (every pass walks all
     units, page tables, TLBs and caches). *)
  let tb = Testbed.create () in
  let op = ecall_op tb in
  op ();
  let snapshot_ns = time (fun () -> ignore (An.Checker.snapshot tb.Testbed.sm)) in
  Printf.printf "  %-34s %12.0f\n" "snapshot pass ns" snapshot_ns;
  (* Trace passes over a recorded run. *)
  let sink = Tel.Sink.create ~capacity:(1 lsl 16) () in
  let tb_traced = Testbed.create ~sink () in
  let traced_op = ecall_op tb_traced in
  traced_op ();
  let events = Tel.Sink.events sink in
  Printf.printf "  %-34s %12d\n" "trace length (events)" (List.length events);
  let trace_ns = time (fun () -> ignore (An.Checker.trace events)) in
  Printf.printf "  %-34s %12.0f\n" "lock+order trace pass ns" trace_ns;
  (* Workload overhead of --check-invariants. *)
  let plain_op = ecall_op (Testbed.create ()) in
  plain_op ();
  let plain_ns = time plain_op in
  let tb_hooked = Testbed.create () in
  let hooked_op = ecall_op tb_hooked in
  S.set_post_api_hook tb_hooked.Testbed.sm
    (Some
       (fun ~api:_ ->
         match An.Checker.snapshot tb_hooked.Testbed.sm with
         | [] -> ()
         | _ :: _ -> failwith "invariant violation during benchmark"));
  hooked_op ();
  let hooked_ns = time ~iters:100 hooked_op in
  Printf.printf "  %-34s %12.0f\n" "workload ns/op (checker off)" plain_ns;
  Printf.printf "  %-34s %12.0f\n" "workload ns/op (snapshot per call)" hooked_ns;
  Printf.printf "  %-34s %11.1fx\n" "per-API-call checking factor"
    (if plain_ns = 0. then 0. else hooked_ns /. plain_ns)

(* ------------------------------------------------------------------ *)
(* The fault-injection engine: what the hooks cost when no fault
   campaign is running. Three machine states — no hooks installed,
   hooks armed with an empty schedule, hooks armed with a schedule
   entirely in the future — should all be within noise of each other:
   the disabled path is one option match per step plus one integer
   compare per memory access. *)

let report_faults () =
  let module F = Sanctorum_faults in
  let time = time_per_op ~iters:2000 in
  Printf.printf "\n== faults: fault-hook overhead (hooks idle) ==\n";
  let plain_op = ecall_op (Testbed.create ()) in
  plain_op ();
  let plain_ns = time plain_op in
  let tb_idle = Testbed.create () in
  let idle =
    F.Injector.create ~machine:tb_idle.Testbed.machine ~seed:7L ~spec:[] ()
  in
  F.Injector.arm idle;
  let idle_op = ecall_op tb_idle in
  idle_op ();
  let idle_ns = time idle_op in
  let tb_armed = Testbed.create () in
  let armed =
    (* a real schedule, parked beyond any cycle this workload reaches *)
    F.Injector.create ~horizon:max_int ~machine:tb_armed.Testbed.machine
      ~seed:7L
      ~spec:(List.map (fun cls -> { F.Spec.cls; count = 4 }) F.Spec.all_classes)
      ()
  in
  F.Injector.arm armed;
  let armed_op = ecall_op tb_armed in
  armed_op ();
  let armed_ns = time armed_op in
  let pct x =
    if plain_ns = 0. then 0. else (x -. plain_ns) /. plain_ns *. 100.
  in
  Printf.printf "  %-34s %12.0f\n" "workload ns/op (no hooks)" plain_ns;
  Printf.printf "  %-34s %12.0f\n" "workload ns/op (empty schedule)" idle_ns;
  Printf.printf "  %-34s %12.0f\n" "workload ns/op (future schedule)" armed_ns;
  Printf.printf "  %-34s %11.1f%%\n" "empty-schedule overhead" (pct idle_ns);
  Printf.printf "  %-34s %11.1f%%\n" "future-schedule overhead" (pct armed_ns)

(* ------------------------------------------------------------------ *)
(* Raw simulator throughput: two enclave loops, timed wall-clock under
   both execution tiers — stepped (fast path off, the seed pipeline)
   and superblock (the default). The fig. 2 loop is [add]/[bne] only;
   the memory loop is the compute mix's worker itself
   ([Programs.compute_program]: [ld] the checkpoint, then
   [bge]/[addi]/[sd]/[jal] storing it back every iteration), the one
   that times the superblock tier's memory-op guards. The architectural
   work (instret) is identical in both tiers — the differential suite
   proves that — so each MIPS ratio is a pure host-speed ratio, and the
   gates sit on the ratios: superblock >= 7x stepped on the fig. 2 loop,
   >= 4x on the memory loop, each below that loop's own measured ratio.

   SANCTORUM_SIM_QUOTA caps the instruction budget per loop (CI smoke
   runs use a small quota). *)

let report_sim () =
  let quota = env_int "SANCTORUM_SIM_QUOTA" 4_000_000 in
  let loops =
    Hw.Isa.
      [
        ( "fig2_loop",
          "fig2 add/bne loop",
          7.,
          let iters = max 1_000 (quota / 2) in
          ( li t0 iters
            @ [
                Op_imm (Add, t1, zero, 0);
                Op_imm (Add, t1, t1, 1);
                Branch (Bne, t1, t0, -4);
              ]
            @ exit_prog,
            iters * 2 ) );
        ( "memory_loop",
          "compute-mix worker loop",
          4.,
          let iters = max 1_000 (quota / 4) in
          (Sanctorum_workload.Programs.compute_program ~iters, iters * 4) );
      ]
  in
  let measure_once program tier =
    let tb = Testbed.create ~seed:"bench-sim" () in
    if tier = `Slow then Hw.Machine.set_fast_path tb.Testbed.machine false;
    let i = install tb (Img.of_program ~evbase:0x10000 program) in
    let os = tb.Testbed.os in
    let eid = i.Os.eid and tid = List.hd i.Os.tids in
    let core = Hw.Machine.core tb.Testbed.machine 0 in
    let i0 = core.Hw.Machine.instret in
    (* gettimeofday, not Sys.time: the latter ticks at clock granularity
       (10ms on Linux), which swamps sub-100ms reps under small quotas *)
    let t0 = Unix.gettimeofday () in
    must (Os.run_enclave os ~eid ~tid ~core:0 ~fuel:((quota * 2) + 10_000) ());
    let seconds = Unix.gettimeofday () -. t0 in
    (core.Hw.Machine.instret - i0, seconds)
  in
  (* best of 5 fresh stacks per tier, the tiers alternating so both see
     the same stretch of host speed: the simulated work is identical
     every repetition, so the minimum wall time is the least-noisy
     sample *)
  let measure program =
    let best reps =
      List.fold_left
        (fun (n, s) (n', s') ->
          if n <> n' then failwith "sim bench: instret varied across repetitions";
          (n, Float.min s s'))
        (List.hd reps) (List.tl reps)
    in
    let reps =
      List.init 5 (fun _ ->
          let sup = measure_once program `Super in
          (sup, measure_once program `Slow))
    in
    (best (List.map fst reps), best (List.map snd reps))
  in
  let mips n s = if s <= 0. then 0. else float_of_int n /. s /. 1e6 in
  let ratio a b = if b = 0. then 0. else a /. b in
  Printf.printf "\n== sim: simulator throughput (superblock vs stepped) ==\n";
  let results =
    List.map
      (fun (key, label, floor, (program, expect)) ->
        let (n_super, s_super), (n_slow, s_slow) = measure program in
        if n_super <> n_slow then
          failwith
            (Printf.sprintf
               "sim bench: %s instret diverged (superblock %d vs stepped %d)"
               key n_super n_slow);
        if n_super < expect then
          failwith
            (Printf.sprintf "sim bench: %s retired %d < %d instructions" key
               n_super expect);
        let m_super = mips n_super s_super and m_slow = mips n_slow s_slow in
        let speedup = ratio m_super m_slow in
        Printf.printf "  %s (%d instrs)\n" label n_super;
        Printf.printf "    %-32s %9.3f s %9.2f MIPS\n" "superblock tier" s_super
          m_super;
        Printf.printf "    %-32s %9.3f s %9.2f MIPS\n" "stepped (fast path off)"
          s_slow m_slow;
        Printf.printf "    %-32s %9.2fx\n" "superblock / stepped" speedup;
        ( J.Obj
            [
              ("row", J.String key);
              ("instructions", J.Int n_super);
              ("superblock_s", J.Float s_super);
              ("superblock_mips", J.Float m_super);
              ("stepped_s", J.Float s_slow);
              ("stepped_mips", J.Float m_slow);
              ("speedup_superblock_over_stepped", J.Float speedup);
            ],
          { name = key ^ " superblock/stepped"; value = speedup; floor } ))
      loops
  in
  emit ~bench:"sim"
    ~backend:(Testbed.backend_name Testbed.Sanctum_backend)
    ~seed:"bench-sim"
    ~params:[ ("quota", J.Int quota) ]
    ~rows:(List.map fst results) ~gates:(List.map snd results)

(* ------------------------------------------------------------------ *)
(* The multicore enclave workload engine: all four mixes through the
   closed loop, with throughput (MIPS, enclave ops/sec) and per-quantum
   latency percentiles. SANCTORUM_WORKLOAD_{CORES,ENCLAVES,ROUNDS}
   scale every engine run the bench makes (CI smoke uses a small
   matrix). Gate: every mix ends without analysis findings, drained and
   fully reclaimed. *)

let engine_config mix =
  {
    W.default with
    W.cores = env_int "SANCTORUM_WORKLOAD_CORES" W.default.W.cores;
    enclaves = env_int "SANCTORUM_WORKLOAD_ENCLAVES" W.default.W.enclaves;
    rounds = env_int "SANCTORUM_WORKLOAD_ROUNDS" W.default.W.rounds;
    mix;
  }

let engine_params (cfg : W.config) =
  [
    ("cores", J.Int cfg.W.cores);
    ("enclaves", J.Int cfg.W.enclaves);
    ("rounds", J.Int cfg.W.rounds);
  ]

let engine_clean (r : W.report) =
  r.W.rp_findings = [] && r.W.rp_drained && r.W.rp_reclaimed

let engine_row (r : W.report) =
  J.Obj
    [
      ("row", J.String (W.mix_name r.W.rp_mix));
      ("installs", J.Int r.W.rp_installs);
      ("reclaims", J.Int r.W.rp_reclaims);
      ("exits", J.Int r.W.rp_exits);
      ("preempts", J.Int r.W.rp_preempts);
      ("quanta", J.Int r.W.rp_quanta);
      ("instret", J.Int r.W.rp_instret);
      ("sim_cycles", J.Int r.W.rp_sim_cycles);
      ("msgs_sent", J.Int r.W.rp_msgs_sent);
      ("msgs_received", J.Int r.W.rp_msgs_received);
      ("wall_s", J.Float r.W.rp_wall_s);
      ("mips", J.Float r.W.rp_mips);
      ("enclave_ops_per_sec", J.Float r.W.rp_ops_per_sec);
      ("quantum_cycles_p50", J.Int r.W.rp_quantum_p50);
      ("quantum_cycles_p90", J.Int r.W.rp_quantum_p90);
      ("quantum_cycles_p99", J.Int r.W.rp_quantum_p99);
      ("meas_cache_hits", J.Int r.W.rp_meas_cache_hits);
      ("meas_cache_misses", J.Int r.W.rp_meas_cache_misses);
      ("findings", J.Int (List.length r.W.rp_findings));
      ("drained", J.Bool r.W.rp_drained);
      ("reclaimed", J.Bool r.W.rp_reclaimed);
    ]

let report_workload () =
  let cfg = engine_config W.default.W.mix in
  Printf.printf
    "\n== workload: multicore enclave engine (%d cores, %d enclaves, %d \
     rounds) ==\n"
    cfg.W.cores cfg.W.enclaves cfg.W.rounds;
  Printf.printf "  %-8s %9s %9s %9s %7s %7s %10s %8s %6s %6s %6s\n" "mix"
    "instret" "quanta" "exits" "inst/rc" "msgs" "mips" "ops/s" "p50" "p90"
    "p99";
  let reports =
    List.map
      (fun mix ->
        let r = W.run { cfg with W.mix } in
        Printf.printf
          "  %-8s %9d %9d %9d %3d/%-3d %7d %10.2f %8.1f %6d %6d %6d\n"
          (W.mix_name mix) r.W.rp_instret r.W.rp_quanta r.W.rp_exits
          r.W.rp_installs r.W.rp_reclaims r.W.rp_msgs_received r.W.rp_mips
          r.W.rp_ops_per_sec r.W.rp_quantum_p50 r.W.rp_quantum_p90
          r.W.rp_quantum_p99;
        r)
      W.all_mixes
  in
  emit ~bench:"workload"
    ~backend:(Testbed.backend_name cfg.W.backend)
    ~seed:cfg.W.seed ~params:(engine_params cfg)
    ~rows:(List.map engine_row reports)
    ~gates:[ all_of "clean mixes" (List.map engine_clean reports) ]

(* ------------------------------------------------------------------ *)
(* The attestation fast path: the throughput-grade crypto tier against
   its retained reference implementations, the measurement cache hot vs
   cold, the batch attestation service, and the churn mix, printed as
   its live ops/s and measurement-cache hits at this run's shape.

   SANCTORUM_ATTEST_{CLIENTS,BATCH} size the service scenario;
   SANCTORUM_ATTEST_MIN_S sets the per-micro-op time quota (each
   micro-op also runs at least 20 times, however small the quota); the
   churn run takes the workload knobs; SANCTORUM_BENCH_BACKEND picks the
   platform. Gates: verify >= 10x the reference, the measurement cache
   hits (micro-op and churn), and every scenario clean (no findings,
   full reclamation, every verdict in place). *)

let report_attest () =
  let module Asv = Sanctorum_workload.Attest_service in
  let module M = Sanctorum.Measurement in
  let clients = env_int "SANCTORUM_ATTEST_CLIENTS" 96 in
  let batch = env_int "SANCTORUM_ATTEST_BATCH" 16 in
  let min_s = env float_of_string_opt "SANCTORUM_ATTEST_MIN_S" 0.3 in
  let backend = bench_backend () in
  (* -- crypto micro-ops, wall-clock against the retained references -- *)
  let time_ns f =
    (* warm: caches, and the window table a key builds on its second
       verification — left to the timed loop, that one-off build is
       spread over however many calls fit in [min_s] *)
    ignore (f ());
    ignore (f ());
    let t0 = Unix.gettimeofday () in
    let n = ref 0 in
    (* At least 20 calls: at a small quota the ~9 ms reference verify
       would otherwise be averaged over a handful of calls, and the
       10x gate over their noise. *)
    while !n < 20 || Unix.gettimeofday () -. t0 < min_s do
      ignore (f ());
      incr n
    done;
    (Unix.gettimeofday () -. t0) /. float_of_int !n *. 1e9
  in
  let sk = C.Schnorr.secret_key_of_seed "bench-attest" in
  let pk = C.Schnorr.public_key sk in
  let signature = C.Schnorr.sign sk "msg" in
  let keygen_ns = time_ns (fun () -> C.Schnorr.secret_key_of_seed "fresh") in
  let sign_ns = time_ns (fun () -> C.Schnorr.sign sk "msg") in
  let verify_ns =
    time_ns (fun () -> C.Schnorr.verify pk ~msg:"msg" ~signature)
  in
  let verify_ref_ns =
    time_ns (fun () -> C.Schnorr.verify_reference pk ~msg:"msg" ~signature)
  in
  let batch_n = 64 in
  let items =
    List.init batch_n (fun i ->
        let msg = Printf.sprintf "batch item %d" i in
        (pk, msg, C.Schnorr.sign sk msg))
  in
  let batch_item_ns =
    time_ns (fun () -> C.Schnorr.verify_batch items) /. float_of_int batch_n
  in
  Printf.printf "\n== attest: crypto fast path vs reference ==\n";
  Printf.printf "  %-36s %12.0f ns/op\n" "schnorr keygen" keygen_ns;
  Printf.printf "  %-36s %12.0f ns/op\n" "schnorr sign" sign_ns;
  Printf.printf "  %-36s %12.0f ns/op\n" "schnorr verify (tables)" verify_ns;
  Printf.printf "  %-36s %12.0f ns/op\n" "schnorr verify (reference)"
    verify_ref_ns;
  Printf.printf "  %-36s %12.2fx\n" "verify speedup" (verify_ref_ns /. verify_ns);
  Printf.printf "  %-36s %12.0f ns/item (n=%d)\n" "batch verify" batch_item_ns
    batch_n;
  Printf.printf "  %-36s %12.2fx vs single verify\n" "batch speedup"
    (verify_ns /. batch_item_ns);
  (* -- the measurement cache, cold vs hot on a 4-page transcript -- *)
  let measure cache =
    let t = M.start () in
    M.extend_create t ~evbase:0x10000 ~evsize:0x8000 ~mailbox_count:4;
    for p = 0 to 3 do
      M.extend_page_table t ~vaddr:(0x10000 + (p * 0x1000)) ~level:0;
      M.extend_page t
        ~vaddr:(0x10000 + (p * 0x1000))
        ~r:true ~w:false ~x:true
        ~contents:(String.make 4096 (Char.chr p))
    done;
    M.extend_thread t ~entry_pc:0x10000L ~entry_sp:0x17ff0L;
    M.finalize ?cache t
  in
  let cold_ns = time_ns (fun () -> measure None) in
  let cache = M.Cache.create () in
  ignore (measure (Some cache));
  let hot_ns = time_ns (fun () -> measure (Some cache)) in
  Printf.printf "  %-36s %12.0f ns/op\n" "measurement (4 pages, cold)" cold_ns;
  Printf.printf "  %-36s %12.0f ns/op\n" "measurement (4 pages, cached)" hot_ns;
  (* -- the attestation service at scale, honest and tampered -- *)
  Printf.printf "\n== attest: batch attestation service ==\n";
  Printf.printf "  %-10s %8s %9s %9s %8s %8s %11s %6s\n" "scenario" "clients"
    "verified" "rejected" "batches" "signs" "clients/s" "clean";
  let service label tamper_every =
    let r =
      Asv.run { Asv.default with Asv.clients; batch; tamper_every; backend }
    in
    Printf.printf "  %-10s %8d %9d %9d %8d %8d %11.1f %6b\n" label
      r.Asv.ar_clients r.Asv.ar_verified r.Asv.ar_rejected r.Asv.ar_batches
      r.Asv.ar_signs r.Asv.ar_clients_per_sec r.Asv.ar_clean;
    ( r.Asv.ar_clean,
      J.Obj
        [
          ("row", J.String label);
          ("clients", J.Int r.Asv.ar_clients);
          ("tamper_every", J.Int tamper_every);
          ("verified", J.Int r.Asv.ar_verified);
          ("rejected", J.Int r.Asv.ar_rejected);
          ("tampered", J.Int r.Asv.ar_tampered);
          ("batches", J.Int r.Asv.ar_batches);
          ("signs", J.Int r.Asv.ar_signs);
          ("batch_verifies", J.Int r.Asv.ar_batch_verifies);
          ("cache_hits", J.Int r.Asv.ar_cache_hits);
          ("wall_s", J.Float r.Asv.ar_wall_s);
          ("clients_per_sec", J.Float r.Asv.ar_clients_per_sec);
          ("findings", J.Int r.Asv.ar_findings);
          ("clean", J.Bool r.Asv.ar_clean);
        ] )
  in
  let honest_clean, honest = service "honest" 0 in
  let tampered_clean, tampered = service "tampered" 8 in
  (* -- the churn mix: enclave create/measure/delete through the cache -- *)
  let churn_cfg = { (engine_config W.Churn) with W.backend } in
  Printf.printf "\n== attest: churn mix ==\n";
  let churn = W.run churn_cfg in
  Printf.printf "  %-36s %12.2f ops/s\n" "churn" churn.W.rp_ops_per_sec;
  Printf.printf "  %-36s %9d hits %9d misses\n" "measurement cache"
    churn.W.rp_meas_cache_hits churn.W.rp_meas_cache_misses;
  emit ~bench:"attest"
    ~backend:(Testbed.backend_name backend)
    ~seed:churn_cfg.W.seed
    ~params:
      ([
         ("clients", J.Int clients);
         ("batch", J.Int batch);
         ("min_s", J.Float min_s);
         ("batch_n", J.Int batch_n);
       ]
      @ engine_params churn_cfg)
    ~rows:
      [
        J.Obj
          [
            ("row", J.String "micro_ns");
            ("keygen", J.Float keygen_ns);
            ("sign", J.Float sign_ns);
            ("verify", J.Float verify_ns);
            ("verify_reference", J.Float verify_ref_ns);
            ("batch_item", J.Float batch_item_ns);
            ("measurement_cold", J.Float cold_ns);
            ("measurement_hot", J.Float hot_ns);
          ];
        honest;
        tampered;
        engine_row churn;
      ]
    ~gates:
      [
        {
          name = "verify speedup vs reference";
          value = verify_ref_ns /. verify_ns;
          floor = 10.;
        };
        {
          name = "measurement cache hits";
          value = float (M.Cache.hits cache);
          floor = 1.;
        };
        {
          name = "churn measurement cache hits";
          value = float churn.W.rp_meas_cache_hits;
          floor = 1.;
        };
        all_of "clean scenarios"
          [ honest_clean; tampered_clean; engine_clean churn ];
      ]

(* ------------------------------------------------------------------ *)
(* The fleet layer: the same total work — compute mix, a fixed job
   count, a fixed fleet-wide enclave population — pushed through 1, 2
   and 4 shards, each shard one OCaml domain with its own machine, then
   the 4-shard run again over a lossy and a fully hostile link.
   Scaling comes from two directions at once: the domains run in
   parallel, and each shard simulates a machine with 1/N of the
   enclave state (fewer PMP entries to walk per switch, smaller
   tables), so the curve is meaningful even on a single host core. The
   chaos cost is chaos-4 wall over quiet-4 wall from the same run.

   SANCTORUM_FLEET_{JOBS,TARGET} scale the run; SANCTORUM_BENCH_BACKEND
   picks the platform. Gate: every row clean (no findings, every job
   accounted). *)

let report_fleet () =
  let module Fl = Sanctorum_fleet.Cluster in
  let module Nf = Sanctorum_fleet.Netfault in
  let jobs = env_int "SANCTORUM_FLEET_JOBS" 64 in
  let target = env_int "SANCTORUM_FLEET_TARGET" 40 in
  let backend = bench_backend () in
  let cores = 4 in
  (* high enough that every row finishes in one generation: nothing is
     migrated, so each row executes the identical set of (jid, seed,
     target) jobs to completion — same total work by construction *)
  let batch_rounds = 40_000 in
  let rows =
    [
      ("quiet-1", 1, "none");
      ("quiet-2", 2, "none");
      ("quiet-4", 4, "none");
      ("loss-4", 4, "drop:3,dup:2,reorder:1");
      ("chaos-4", 4, "all");
    ]
  in
  Printf.printf
    "\n== fleet: domain-parallel shards (%s, %d jobs, target %d, %d \
     cores/shard) ==\n"
    (Testbed.backend_name backend)
    jobs target cores;
  Printf.printf "  %-8s %6s %9s %5s %7s %8s %8s %5s %5s %5s %5s %7s %6s\n"
    "row" "shards" "instret" "gens" "wall-s" "mips" "ops/s" "p50" "p90" "p99"
    "retx" "rejects" "clean";
  let outcomes =
    List.map
      (fun (label, shards, spec) ->
        let enclaves = max 2 (jobs / shards) in
        let o =
          Fl.run
            {
              Fl.default with
              Fl.seed = "bench-fleet";
              backend;
              shards;
              cores;
              enclaves;
              jobs;
              target;
              mix = Sanctorum_workload.Programs.Compute;
              batch_rounds;
              net = Result.get_ok (Nf.parse spec);
            }
        in
        let c n = Option.value (List.assoc_opt n o.Fl.r_counters) ~default:0 in
        Printf.printf
          "  %-8s %6d %9d %5d %7.3f %8.2f %8.1f %5d %5d %5d %5d %7d %6b\n" label
          shards o.Fl.r_instret o.Fl.r_generations o.Fl.r_wall_s o.Fl.r_mips
          o.Fl.r_ops_per_sec o.Fl.r_p50 o.Fl.r_p90 o.Fl.r_p99
          (c "net.retransmits")
          (c "net.hmac_rejects" + c "net.stale_rejected"
          + c "fleet.attest.rejected")
          o.Fl.r_clean;
        ( label,
          o,
          J.Obj
            [
              ("row", J.String label);
              ("shards", J.Int shards);
              ("net_faults", J.String spec);
              ("enclaves_per_shard", J.Int enclaves);
              ("jobs_completed", J.Int (List.length o.Fl.r_completed));
              ("jobs_failed_closed", J.Int (List.length o.Fl.r_failed_closed));
              ("generations", J.Int o.Fl.r_generations);
              ("instret", J.Int o.Fl.r_instret);
              ("wall_s", J.Float o.Fl.r_wall_s);
              ("mips", J.Float o.Fl.r_mips);
              ("enclave_ops_per_sec", J.Float o.Fl.r_ops_per_sec);
              ("quantum_cycles_p50", J.Int o.Fl.r_p50);
              ("quantum_cycles_p90", J.Int o.Fl.r_p90);
              ("quantum_cycles_p99", J.Int o.Fl.r_p99);
              ("retransmits", J.Int (c "net.retransmits"));
              ("dups_dropped", J.Int (c "net.dups_dropped"));
              ("hmac_rejects", J.Int (c "net.hmac_rejects"));
              ("link_dropped", J.Int (c "net.link.dropped"));
              ("link_corrupted", J.Int (c "net.link.corrupted"));
              ("link_reordered", J.Int (c "net.link.reordered"));
              ("findings", J.Int o.Fl.r_findings);
              ("accounted", J.Bool o.Fl.r_accounted);
              ("clean", J.Bool o.Fl.r_clean);
            ] ))
      rows
  in
  let ratio f a b =
    let find l =
      let _, o, _ = List.find (fun (l', _, _) -> l' = l) outcomes in
      f o
    in
    if find a > 0. then find b /. find a else 0.
  in
  Printf.printf "  %-34s %9.2fx mips %9.2fx ops/s\n" "4-shard scaling"
    (ratio (fun o -> o.Fl.r_mips) "quiet-1" "quiet-4")
    (ratio (fun o -> o.Fl.r_ops_per_sec) "quiet-1" "quiet-4");
  Printf.printf "  %-34s %9.2fx wall vs quiet-4\n" "full chaos cost"
    (ratio (fun o -> o.Fl.r_wall_s) "quiet-4" "chaos-4");
  emit ~bench:"fleet"
    ~backend:(Testbed.backend_name backend)
    ~seed:"bench-fleet"
    ~params:
      [
        ("jobs", J.Int jobs);
        ("target", J.Int target);
        ("cores_per_shard", J.Int cores);
        ("batch_rounds", J.Int batch_rounds);
        ("mix", J.String "compute");
      ]
    ~rows:(List.map (fun (_, _, row) -> row) outcomes)
    ~gates:
      [
        all_of "clean rows"
          (List.map (fun (_, o, _) -> o.Fl.r_clean) outcomes);
      ]

(* ------------------------------------------------------------------ *)
(* The bounded model checker: exploration throughput (states/sec) and
   dedup hit-rate on both backends, plus one cross-backend differential
   run. The state count and digest are deterministic in the geometry,
   so the record doubles as a regression anchor: a digest change means
   the explored space changed.

   SANCTORUM_MODELCHECK_DEPTH / _DIFF_DEPTH scale the run (CI smoke
   uses small depths). Gate: no finding in any run — the explored
   region must be catalog-silent and verdict-identical across
   backends. *)

let report_modelcheck () =
  let module M = Sanctorum_analysis.Modelcheck in
  let depth = env_int "SANCTORUM_MODELCHECK_DEPTH" 4 in
  let diff_depth = env_int "SANCTORUM_MODELCHECK_DIFF_DEPTH" 3 in
  Printf.printf
    "\n== modelcheck: bounded SM API exploration (depth %d, diff depth %d) ==\n"
    depth diff_depth;
  Printf.printf "  %-22s %8s %9s %7s %9s %8s %9s\n" "run" "states" "edges"
    "dedup" "hit-rate" "wall-s" "states/s";
  let run label cfg =
    let t0 = Unix.gettimeofday () in
    let s = M.explore cfg in
    let wall = Unix.gettimeofday () -. t0 in
    let ok_edges = s.M.s_states - 1 + s.M.s_dedup_hits in
    let hit_rate =
      if ok_edges = 0 then 0. else float s.M.s_dedup_hits /. float ok_edges
    in
    let states_per_sec = if wall <= 0. then 0. else float s.M.s_states /. wall in
    Printf.printf "  %-22s %8d %9d %7d %8.1f%% %8.2f %9.0f\n" label
      s.M.s_states s.M.s_edges s.M.s_dedup_hits (100. *. hit_rate) wall
      states_per_sec;
    ( s.M.s_findings_total = 0,
      J.Obj
        [
          ("row", J.String label);
          ("backend", J.String (M.backend_name cfg.M.backend));
          ("diff", J.Bool cfg.M.diff);
          ("depth", J.Int cfg.M.depth);
          ("states", J.Int s.M.s_states);
          ("edges", J.Int s.M.s_edges);
          ("dedup_hits", J.Int s.M.s_dedup_hits);
          ("dedup_hit_rate", J.Float hit_rate);
          ("truncated", J.Bool s.M.s_truncated);
          ("findings", J.Int s.M.s_findings_total);
          ("state_digest", J.String s.M.s_state_digest);
          ("wall_s", J.Float wall);
          ("states_per_sec", J.Float states_per_sec);
        ] )
  in
  let runs =
    List.map
      (fun (label, cfg) -> run label cfg)
      [
        ("sanctum", { M.default_config with depth });
        ("keystone", { M.default_config with depth; backend = M.Keystone });
        ( "sanctum-vs-keystone",
          { M.default_config with depth = diff_depth; diff = true } );
      ]
  in
  emit ~bench:"modelcheck" ~backend:"sanctum+keystone" ~seed:"modelcheck"
    ~params:
      [
        ("depth", J.Int depth);
        ("diff_depth", J.Int diff_depth);
        ("cores", J.Int M.default_config.M.cores);
        ("units", J.Int M.default_config.M.units);
      ]
    ~rows:(List.map snd runs)
    ~gates:[ all_of "finding-free runs" (List.map fst runs) ]

(* ------------------------------------------------------------------ *)

let groups =
  [
    ("fig1", bench_fig1);
    ("fig2", bench_fig2);
    ("fig3", bench_fig3);
    ("fig4", bench_fig4);
    ("fig5", bench_fig5);
    ("fig6", bench_fig6);
    ("fig7", bench_fig7);
    ("crypto", bench_crypto);
    ("platforms", report_platforms);
    ("sidechannel", report_sidechannel);
    ("ablation", report_ablation);
    ("telemetry", report_telemetry);
    ("analysis", report_analysis);
    ("faults", report_faults);
    ("sim", report_sim);
    ("workload", report_workload);
    ("attest", report_attest);
    ("fleet", report_fleet);
    ("modelcheck", report_modelcheck);
  ]

let () =
  let which = if Array.length Sys.argv > 1 then Sys.argv.(1) else "all" in
  (if which = "all" then List.iter (fun (_, f) -> f ()) groups
   else
     match List.assoc_opt which groups with
     | Some f -> f ()
     | None ->
         Printf.eprintf "main.exe: unknown benchmark group %S\nAvailable: all %s\n"
           which
           (String.concat " " (List.map fst groups));
         exit 2);
  Printf.printf
    "\n(T1 — the TCB size table of §VII-A — is regenerated by `dune exec \
     bin/loc_report.exe`)\n"
