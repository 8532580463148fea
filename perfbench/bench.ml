(* The repository benchmark: four closed-loop workloads, each driven by
   this one host process through the public API of the layer it loads.

     bench.exe --workload W --seed N --seconds S --trace 0|1

   A run repeats {e episodes} until S seconds have passed and every one
   of [inputs_per_run] inputs derived from the seed has run. An episode
   sets up a fresh world (timed as
   set-up), then drives a fixed amount of work through it (the measured
   window):

   - compute, churn: an [Engine] with [Workload.default]'s shape
     (keystone, 4 cores, 64 enclaves, fuel/quantum/check_every); the
     population is submitted, then [Engine.step] runs for its 1000
     rounds and [Engine.finish] drains and reclaims. A request is one
     round; an operation is one scheduler quantum.
   - attest: one keystone testbed serves remote-attestation evidence to
     [clients] verifier clients (DH + nonce + [request_attestation]),
     whose checks go through [verify_evidence_batch] in batches of 16.
     A request and an operation are both one client.
   - modelcheck: [Modelcheck.explore] on sanctum, warm start, 1 core,
     2 unit groups, no diff, depth [mc_depth]. A request is one
     exploration; an operation is one deduplicated state. Its input is
     fixed by that configuration, so the seed selects nothing.

   Every repeat of an input must reproduce its first episode's
   simulated-behaviour digest, the first input's first episode being an
   untimed warm-up. Host times are scaled to a reference
   host speed measured around each episode (see [slowness]). --trace 0
   prints the end-to-end metrics. --trace 1
   alternates untraced and traced episodes (spans, sampler, runtime
   events; see trace.ml) and prints the per-layer metrics, the
   difference between the two halves being the tracing overhead. The
   last stdout line is the JSON result; the process exits 1 if any
   correctness check failed. *)

module W = Sanctorum_workload.Workload
module E = Sanctorum_workload.Engine
module Mc = Sanctorum_analysis.Modelcheck
module Checker = Sanctorum_analysis.Checker
module A = Sanctorum.Attestation
module Img = Sanctorum.Image
module Sm = Sanctorum.Sm
module Tel = Sanctorum_telemetry
module C = Sanctorum_crypto
module Hw = Sanctorum_hw
module Rng = Sanctorum_util.Splitmix
open Sanctorum_os

let now () = Int64.to_float (Trace.now_ns ()) *. 1e-9
let span = Trace.span

(* ------------------------------------------------------------------ *)
(* Workload shapes *)

let clients = 64
let batch = 16
let mc_depth = 2

(* A run cycles through this many inputs derived from its seed, so that
   its figures average over inputs rather than hang on one: on compute,
   the checkpoint rounds that set latency_ms_p99 cost up to a third more
   on one input than on another. *)
let inputs_per_run = 16

type episode = {
  input : string;
  setup_s : float;
  busy_s : float;  (* the measured window: host seconds after set-up *)
  ops : int;  (* operations attempted *)
  failed : int;
  requests_ms : float array;  (* per-request host latency *)
  checkpoint_ms : float list;  (* engine rounds that ran the checker *)
  digest : string;  (* simulated behaviour only: no host clock *)
  problems : string list;  (* failed correctness checks *)
  counts : (string * int) list;  (* work counts for the traced run *)
}

let registry_counts sink =
  match Tel.Sink.metrics sink with
  | None -> []
  | Some m ->
      List.filter_map
        (fun (name, item) ->
          match item with
          | Tel.Metrics.Counter c -> Some (name, Tel.Metrics.value c)
          | Tel.Metrics.Histogram _ -> None)
        (Tel.Metrics.to_list m)

let check cond msg problems = if cond then problems else msg :: problems

(* ------------------------------------------------------------------ *)
(* compute, churn *)

let engine_episode mix input =
  let cfg = { W.default with W.mix; seed = input } in
  let t0 = now () in
  let eng =
    span "bench.setup" (fun () ->
        let eng = span "workload.Engine.create" (fun () -> E.create cfg) in
        let rng = Rng.of_string input in
        for jid = 0 to cfg.W.enclaves - 1 do
          let seed = Rng.next rng in
          span "workload.Engine.submit" (fun () ->
              E.submit eng ~jid ~seed ~target:None)
        done;
        eng)
  in
  let t1 = now () in
  let sink = Sm.sink (E.testbed eng).Testbed.sm in
  let lat = Array.make cfg.W.rounds 0. in
  let checkpoint_ms = ref [] and events = ref 0 and plain_rounds = ref 0 in
  for r = 1 to cfg.W.rounds do
    let e0 = Tel.Sink.event_count sink in
    let a = now () in
    span "workload.Engine.step" (fun () -> ignore (E.step eng : int list));
    let ms = (now () -. a) *. 1e3 in
    lat.(r - 1) <- ms;
    (* the engine clears its sink inside checkpoint rounds *)
    if r mod cfg.W.check_every = 0 then checkpoint_ms := ms :: !checkpoint_ms
    else begin
      events := !events + Tel.Sink.event_count sink - e0;
      incr plain_rounds
    end;
    Trace.poll ()
  done;
  let rp = span "workload.Engine.finish" (fun () -> E.finish eng) in
  let t2 = now () in
  let problems =
    []
    |> check (rp.E.rp_findings = []) "analysis findings"
    |> check rp.E.rp_drained "scheduler not drained"
    |> check rp.E.rp_reclaimed "enclaves not reclaimed"
    |> check rp.E.rp_msgs_accounted "mailbox messages unaccounted"
  in
  {
    input;
    setup_s = t1 -. t0;
    busy_s = t2 -. t1;
    ops = rp.E.rp_quanta;
    failed = rp.E.rp_api_errors + rp.E.rp_killed + rp.E.rp_os_faults;
    requests_ms = lat;
    checkpoint_ms = !checkpoint_ms;
    digest = W.arch_signature rp;
    problems;
    counts =
      registry_counts sink
      @ [
          ("os.quanta", rp.E.rp_quanta);
          ("telemetry.events", !events);
          ("telemetry.requests", !plain_rounds);
          ("telemetry.dropped", rp.E.rp_trace_dropped);
        ];
  }

(* ------------------------------------------------------------------ *)
(* attest *)

type attest_world = {
  tb : Testbed.t;
  sink : Tel.Sink.t;
  es_eid : int;
  eid : int;
  expected : string;
  root : C.Schnorr.public_key;
}

(* One verifier client up to its evidence: DH key agreement, a fresh
   nonce bound to the transcript, and the attestation request. *)
let client w =
  let rng = w.tb.Testbed.rng in
  let _v_secret, v_public = span "crypto.Dh.generate" (fun () -> C.Dh.generate rng) in
  let e_secret, e_public = span "crypto.Dh.generate" (fun () -> C.Dh.generate rng) in
  ignore (span "crypto.Dh.shared_key" (fun () -> C.Dh.shared_key e_secret v_public));
  let channel_binding =
    span "crypto.Sha3.sha3_256" (fun () ->
        C.Sha3.sha3_256 (C.Dh.public_to_bytes e_public ^ C.Dh.public_to_bytes v_public))
  in
  let nonce = span "crypto.Drbg.random_bytes" (fun () -> C.Drbg.random_bytes rng 32) in
  let t_req = now () in
  match
    span "core.Attestation.request_attestation" (fun () ->
        A.request_attestation w.tb.Testbed.sm ~eid:w.eid ~es_eid:w.es_eid ~nonce
          ~channel_binding)
  with
  | Error e -> Error (Sanctorum.Api_error.to_string e)
  | Ok evidence ->
      Ok
        ( t_req,
          {
            A.vr_root = w.root;
            vr_expected_measurement = w.expected;
            vr_nonce = nonce;
            vr_channel_binding = channel_binding;
            vr_evidence = evidence;
          } )

let verify reqs =
  span "core.Attestation.verify_evidence_batch" (fun () -> A.verify_evidence_batch reqs)

let attest_setup input =
  let metrics = Tel.Metrics.create () in
  let sink = Tel.Sink.create ~capacity:(1 lsl 14) ~metrics () in
  let tb =
    span "os.Testbed.create" (fun () ->
        Testbed.create ~backend:Testbed.Keystone_backend ~seed:input ~sink ())
  in
  let es =
    Result.get_ok
      (span "os.Testbed.install_signing_enclave" (fun () ->
           Testbed.install_signing_enclave tb))
  in
  let target = Img.of_program ~evbase:0x30000 Hw.Isa.[ Op_imm (Add, a7, zero, 1); Ecall ] in
  let t =
    Result.get_ok
      (span "os.Os.install_enclave" (fun () -> Os.install_enclave tb.Testbed.os target))
  in
  let w =
    {
      tb;
      sink;
      es_eid = es.Os.eid;
      eid = t.Os.eid;
      expected = Img.measurement target;
      root = (Sm.identity tb.Testbed.sm).Sanctorum.Boot.root_public;
    }
  in
  (* warm-up: builds the lazy per-key verification tables *)
  (match client w with
  | Ok (_, req) -> (
      match verify [ req ] with
      | [| Ok () |] -> ()
      | _ -> failwith "attest: warm-up evidence did not verify")
  | Error e -> failwith ("attest: warm-up request failed: " ^ e));
  w

let attest_episode input =
  let t0 = now () in
  let w = span "bench.setup" (fun () -> attest_setup input) in
  let t1 = now () in
  let lat = Array.make clients 0. in
  let verified = ref 0 and rejected = ref 0 and batches = ref 0 in
  let signatures = Buffer.create (clients * 64) and errors = ref [] in
  let pending = ref [] in
  let flush () =
    match List.rev !pending with
    | [] -> ()
    | items ->
        pending := [];
        incr batches;
        let verdicts = verify (List.map (fun (_, _, req) -> req) items) in
        let t_v = now () in
        List.iteri
          (fun k (i, t_req, _) ->
            lat.(i) <- (t_v -. t_req) *. 1e3;
            match verdicts.(k) with Ok () -> incr verified | Error _ -> incr rejected)
          items
  in
  for i = 0 to clients - 1 do
    span "bench.client" (fun () ->
        match client w with
        | Error e -> errors := e :: !errors
        | Ok (t_req, req) ->
            Buffer.add_string signatures req.A.vr_evidence.A.signature;
            pending := (i, t_req, req) :: !pending;
            if List.length !pending >= batch then flush ());
    Trace.poll ()
  done;
  flush ();
  let t2 = now () in
  let findings = span "analysis.Checker.snapshot" (fun () -> Checker.snapshot w.tb.Testbed.sm) in
  let problems =
    []
    |> check (findings = []) "analysis findings"
    |> check (!errors = []) "attestation request refused"
    |> check (!verified = clients) "evidence did not verify"
  in
  {
    input;
    setup_s = t1 -. t0;
    busy_s = t2 -. t1;
    ops = clients;
    failed = clients - !verified;
    requests_ms = lat;
    checkpoint_ms = [];
    digest =
      Printf.sprintf "verified=%d rejected=%d refused=%d batches=%d signatures=%s"
        !verified !rejected (List.length !errors) !batches
        (Digest.to_hex (Digest.string (Buffer.contents signatures)));
    problems;
    counts =
      registry_counts w.sink
      @ [
          ("bench.batches", !batches);
          ("telemetry.events", Tel.Sink.event_count w.sink);
          ("telemetry.requests", clients + 1);
          ("telemetry.dropped", Tel.Sink.dropped w.sink);
        ];
  }

(* ------------------------------------------------------------------ *)
(* modelcheck *)

let mc_config = { Mc.default_config with Mc.backend = Mc.Sanctum; depth = mc_depth }

let modelcheck_episode input =
  let t0 = now () in
  let _, violations =
    span "bench.setup" (fun () ->
        span "analysis.Modelcheck.replay" (fun () -> Mc.replay mc_config []))
  in
  let t1 = now () in
  let s = span "analysis.Modelcheck.explore" (fun () -> Mc.explore mc_config) in
  let t2 = now () in
  Trace.poll ();
  let problems =
    []
    |> check (violations = []) "boot state has findings"
    |> check (not s.Mc.s_truncated) "exploration truncated"
    |> check (s.Mc.s_findings_total = 0) "exploration findings"
  in
  {
    input;
    setup_s = t1 -. t0;
    busy_s = t2 -. t1;
    ops = s.Mc.s_states;
    failed = s.Mc.s_findings_total;
    requests_ms = [| (t2 -. t1) *. 1e3 |];
    checkpoint_ms = [];
    digest = s.Mc.s_state_digest;
    problems;
    counts =
      [
        ("analysis.states", s.Mc.s_states);
        ("analysis.edges", s.Mc.s_edges);
        ("analysis.dedup_hits", s.Mc.s_dedup_hits);
      ];
  }

(* ------------------------------------------------------------------ *)
(* Runs *)

let workloads =
  [
    ("compute", engine_episode W.Compute);
    ("churn", engine_episode W.Churn);
    ("attest", attest_episode);
    ("modelcheck", modelcheck_episode);
  ]

let sorted a =
  let a = Array.copy a in
  Array.sort compare a;
  a

(* nearest rank *)
let percentile sorted q =
  let n = Array.length sorted in
  if n = 0 then 0.
  else
    sorted.(max 0 (min (n - 1) (int_of_float (Float.ceil (q *. float_of_int n)) - 1)))

(* Host speed. The cores of this shared host slow down by tens of
   percent for seconds to minutes at a time (co-tenant load), in CPU
   time as much as in wall time, so no statistic over one run can tell a
   slow program from a slow host. Each episode is therefore bracketed by
   a fixed calibration, which lies outside the program and never changes
   with it, and its host times are divided by the calibration's slowness
   against the reference host (KVM Xeon, 2 vCPUs): every reported time
   reads as on that host. The calibration has two parts, weighted
   equally, because the co-tenants slow memory-bound and multiply-bound
   code by different amounts and the workloads mix both:

   - memory: a branchy update of a random slot of a 1 MiB table (L2)
     plus a read of a random slot of a 64 MiB table (shared L3);
   - multiply: a 32 x 32 word multiply-accumulate, as in bignum
     arithmetic, on L1-resident arrays.

   Neither allocates, and the memory part's tables live outside the
   OCaml heap. While
   the benchmark was tuned, dividing by both parts together cut the
   spread of per-episode times within a run by 1.5-3x on all four
   workloads; either part alone did worse on at least one, and so did
   adding a streaming-write or a pointer-chasing part. *)
let cal_memory_ref_s = 0.0167
let cal_multiply_ref_s = 0.0174

let cal_small, cal_large =
  let table bits =
    let a = Bigarray.(Array1.create int c_layout (1 lsl bits)) in
    Bigarray.Array1.fill a 1;
    a
  in
  (table 17, table 23)

let cal_memory () =
  let small_mask = (1 lsl 17) - 1 and large_mask = (1 lsl 23) - 1 in
  let t0 = now () in
  let x = ref 0x2545F4914F6CDD1D and acc = ref 0 in
  for _ = 1 to 500_000 do
    x := (!x * 0x5851F42D4C957F2D) + 0x14057B7EF767814F;
    let i = (!x lsr 17) land small_mask in
    let v = Bigarray.Array1.unsafe_get cal_small i in
    if v land 1 = 0 then acc := !acc + v else acc := !acc lxor (v lsl 1);
    Bigarray.Array1.unsafe_set cal_small i (v + 1);
    acc := !acc + Bigarray.Array1.unsafe_get cal_large ((!x lsr 3) land large_mask)
  done;
  ignore (Sys.opaque_identity !acc);
  now () -. t0

let cal_a = Array.init 32 (fun i -> (i * 2654435761) land 0xFFFFFFF)
let cal_b = Array.init 32 (fun i -> ((i * 40503) + 17) land 0xFFFFFFF)
let cal_r = Array.make 64 0

let cal_multiply () =
  let t0 = now () in
  for _ = 1 to 8_000 do
    for i = 0 to 31 do
      let ai = Array.unsafe_get cal_a i in
      for j = 0 to 31 do
        let r = Array.unsafe_get cal_r (i + j) + (ai * Array.unsafe_get cal_b j) in
        Array.unsafe_set cal_r (i + j) (r land 0x3FFFFFFFFFFF)
      done
    done
  done;
  ignore (Sys.opaque_identity cal_r);
  now () -. t0

(* 1.0 on the reference host, 2.0 on a host half as fast *)
let slowness () =
  let m = cal_memory () in
  let a = cal_multiply () in
  ((m /. cal_memory_ref_s) +. (a /. cal_multiply_ref_s)) /. 2.

(* [around] wraps the episode alone, not its calibration. A full major
   collection first hands every episode the same free heap, so the peak
   heap is the largest episode's, whatever ran before it. *)
let run_episode ?(around = fun f -> f ()) episode input k =
  Gc.full_major ();
  let s0 = slowness () in
  let e = around (fun () -> episode input) in
  let s1 = slowness () in
  let speed = 2. /. (s0 +. s1) in
  let e =
    {
      e with
      setup_s = e.setup_s *. speed;
      busy_s = e.busy_s *. speed;
      requests_ms = Array.map (fun ms -> ms *. speed) e.requests_ms;
      checkpoint_ms = List.map (fun ms -> ms *. speed) e.checkpoint_ms;
    }
  in
  let lat = sorted e.requests_ms in
  Printf.eprintf "episode %d: speed=%.4f s0=%.4f s1=%.4f setup_s=%.6f busy_s=%.6f ops=%d p50=%.4f p99=%.4f\n%!"
    k speed s0 s1 e.setup_s e.busy_s e.ops (percentile lat 0.5) (percentile lat 0.99);
  e

(* Episodes until [seconds] have passed and every input has run,
   cycling through [inputs]. *)
let run_untraced episode inputs ~seconds =
  let t0 = now () in
  let n = Array.length inputs in
  let rec go k acc =
    if k >= n && now () -. t0 >= seconds then List.rev acc
    else go (k + 1) (run_episode episode inputs.(k mod n) k :: acc)
  in
  go 0 []

type traced_run = {
  untraced : episode list;
  traced : episode list;
  cpu_s : float;  (* process CPU time of the traced episodes *)
  minor_words : float;
  major_collections : int;
}

let cpu_now () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime

(* Episodes alternately untraced and traced, each input once in either
   mode, until [seconds] have passed and every input has run in both:
   both halves see the same inputs, heap history and host drift, so
   their difference is the tracing overhead. *)
let run_traced episode inputs ~seconds =
  let t0 = now () in
  let n = Array.length inputs in
  let rec go k r =
    let input = inputs.(k / 2 mod n) in
    if k >= 2 * n && k mod 2 = 0 && now () -. t0 >= seconds then r
    else if k mod 2 = 0 then
      go (k + 1) { r with untraced = r.untraced @ [ run_episode episode input k ] }
    else begin
      let r = ref r in
      let around f =
        let gc0 = Gc.quick_stat () and cpu0 = cpu_now () in
        Trace.start ();
        let e = f () in
        Trace.stop ();
        let gc1 = Gc.quick_stat () in
        r :=
          {
            !r with
            cpu_s = !r.cpu_s +. cpu_now () -. cpu0;
            minor_words = !r.minor_words +. gc1.Gc.minor_words -. gc0.Gc.minor_words;
            major_collections =
              !r.major_collections + gc1.Gc.major_collections - gc0.Gc.major_collections;
          };
        e
      in
      let e = run_episode ~around episode input k in
      go (k + 1) { !r with traced = !r.traced @ [ e ] }
    end
  in
  go 0 { untraced = []; traced = []; cpu_s = 0.; minor_words = 0.; major_collections = 0 }

let sum f eps = List.fold_left (fun acc e -> acc + f e) 0 eps
let sumf f eps = List.fold_left (fun acc e -> acc +. f e) 0. eps
let median l = percentile (sorted (Array.of_list l)) 0.5

(* The measured-window metrics are medians over the run's episodes of
   each episode's own figure, so a stretch of host noise moves a few
   episodes, not the result. *)
let ops_per_s eps = median (List.map (fun e -> float_of_int e.ops /. e.busy_s) eps)
let latency_ms q eps = median (List.map (fun e -> percentile (sorted e.requests_ms) q) eps)

let end_to_end eps =
  let heap = (Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8) in
  [
    ("setup_s", median (List.map (fun e -> e.setup_s) eps), "s");
    ("ops_per_s", ops_per_s eps, "1/s");
    ("latency_ms_p50", latency_ms 0.5 eps, "ms");
    ("latency_ms_p99", latency_ms 0.99 eps, "ms");
    ("heap_peak_mb", float_of_int heap /. 1e6, "MB");
  ]

let layers =
  [ "hw"; "platform"; "core"; "crypto"; "os"; "workload"; "analysis"; "telemetry"; "util" ]

(* Work counts come from the first traced episode, which always runs the
   seed's first input, so they are a pure function of the seed. Times
   are per episode. *)
let per_layer { untraced; traced; cpu_s; minor_words; major_collections } =
  let n = float_of_int (List.length traced) in
  let counts = (List.hd traced).counts in
  let c name = float_of_int (Option.value ~default:0 (List.assoc_opt name counts)) in
  let prefix p =
    List.fold_left
      (fun acc (name, v) ->
        if String.starts_with ~prefix:p name then acc +. float_of_int v else acc)
      0. counts
  in
  let ratio a b = if b > 0. then a /. b else 0. in
  let samples = Trace.sample_counts () in
  let layer_samples l = float_of_int (Option.value ~default:0 (List.assoc_opt l samples)) in
  let total = float_of_int (List.fold_left (fun acc (_, k) -> acc + k) 0 samples) in
  let named = List.fold_left (fun acc l -> acc +. layer_samples l) 0. layers in
  let checkpoint = List.concat_map (fun e -> e.checkpoint_ms) traced in
  [
    ("hw.instret", c "hw.instret", "count");
    ("hw.sb_share", ratio (c "hw.sb.instret") (c "hw.instret"), "ratio");
    ("hw.traps", prefix "hw.traps.", "count");
    ("hw.tlb_miss_rate", ratio (c "hw.tlb.misses") (c "hw.tlb.hits" +. c "hw.tlb.misses"), "ratio");
    ( "hw.l1_miss_rate",
      ratio (c "hw.cache.l1.misses") (c "hw.cache.l1.hits" +. c "hw.cache.l1.misses"),
      "ratio" );
  ]
  @ List.map (fun l -> (l ^ ".self_s", ratio (layer_samples l) total *. cpu_s /. n, "s")) layers
  @ [
      ("runtime.self_s", Trace.runtime_s () /. n, "s");
      ("os.quanta", c "os.quanta", "count");
      ("core.api_calls", prefix "sm.api.calls.", "count");
      ("core.api_rejected", prefix "sm.api.rejected.", "count");
      ("core.aex", c "sm.aex", "count");
      ( "core.meas_cache_hit_rate",
        ratio (c "measurement.cache.hit") (c "measurement.cache.hit" +. c "measurement.cache.miss"),
        "ratio" );
      ( "core.request_attestation_ms",
        Trace.mean_s "core.Attestation.request_attestation" *. 1e3,
        "ms" );
      ( "crypto.verify_batch_ms",
        Trace.mean_s "core.Attestation.verify_evidence_batch" *. 1e3,
        "ms" );
      ("crypto.signs", c "crypto.sign", "count");
      ("crypto.batch_verifies", c "bench.batches", "count");
      ("workload.step_s", Trace.mean_s "workload.Engine.step", "s");
      ("workload.submit_ms", Trace.mean_s "workload.Engine.submit" *. 1e3, "ms");
      ("workload.finish_s", Trace.mean_s "workload.Engine.finish", "s");
      ( "analysis.checkpoint_round_ms",
        ratio (List.fold_left ( +. ) 0. checkpoint) (float_of_int (List.length checkpoint)),
        "ms" );
      ("analysis.world_build_ms", Trace.mean_s "analysis.Modelcheck.replay" *. 1e3, "ms");
      ("analysis.states", c "analysis.states", "count");
      ("analysis.edges", c "analysis.edges", "count");
      ( "analysis.dedup_rate",
        ratio (c "analysis.dedup_hits") (c "analysis.dedup_hits" +. c "analysis.states" -. 1.),
        "ratio" );
      ("telemetry.events", ratio (c "telemetry.events") (c "telemetry.requests"), "count");
      ("telemetry.dropped", c "telemetry.dropped", "count");
      ( "runtime.minor_words_per_op",
        ratio minor_words (float_of_int (sum (fun e -> e.ops) traced)),
        "count" );
      ("runtime.major_collections", float_of_int major_collections /. n, "count");
      ( "trace.overhead_frac",
        (ops_per_s untraced /. ops_per_s traced) -. 1.,
        "ratio" );
      ("trace.samples", total, "count");
      ("trace.named_frac", ratio named total, "ratio");
    ]

(* ------------------------------------------------------------------ *)
(* Output *)

let json_number v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else Printf.sprintf "%.17g" v

let print_result ~correct ~attempted ~failed metrics =
  let body =
    List.map
      (fun (name, v, unit) ->
        Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" name (json_number v) unit)
      metrics
  in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    correct attempted failed (String.concat ", " body)

let describe name seed phase eps =
  Printf.printf "%s seed=%d %s: episodes=%d ops=%d requests=%d measured=%.3fs\n" name seed
    phase (List.length eps)
    (sum (fun e -> e.ops) eps)
    (sum (fun e -> Array.length e.requests_ms) eps)
    (sumf (fun e -> e.busy_s) eps)

let main name seed seconds traced =
  let episode = List.assoc name workloads in
  let inputs =
    Array.init inputs_per_run (fun j -> Printf.sprintf "perfbench/%s/%d/%d" name seed j)
  in
  (* one untimed episode first: lazy tables, boot identity, heap growth *)
  let warm_up = episode inputs.(0) in
  let eps, metrics =
    if not traced then begin
      let eps = run_untraced episode inputs ~seconds in
      describe name seed "untraced" eps;
      (eps, end_to_end eps)
    end
    else begin
      let r = run_traced episode inputs ~seconds in
      describe name seed "untraced" r.untraced;
      describe name seed "traced" r.traced;
      if not (Sys.file_exists "perfbench/out") then Sys.mkdir "perfbench/out" 0o755;
      let path = Printf.sprintf "perfbench/out/spans-%s-%d.jsonl" name seed in
      Trace.write_spans path;
      Printf.printf "spans: %s; samples by layer: %s; runtime events lost: %d\n" path
        (String.concat " "
           (List.map
              (fun (l, k) -> Printf.sprintf "%s=%d" l k)
              (List.sort compare (Trace.sample_counts ()))))
        (Trace.lost_events ());
      (r.untraced @ r.traced, per_layer r)
    end
  in
  (* each input's first episode gives the digest its repeats must match *)
  let firsts =
    Array.map (fun input -> List.find (fun e -> e.input = input) (warm_up :: eps)) inputs
  in
  let problems =
    List.concat_map
      (fun e ->
        let first = List.find (fun f -> f.input = e.input) (Array.to_list firsts) in
        if e.digest = first.digest then e.problems
        else "simulated behaviour differs between repeats" :: e.problems)
      (warm_up :: eps)
    |> List.sort_uniq compare
  in
  Printf.printf "digest %s seed=%d: %s\n" name seed
    (Digest.to_hex
       (Digest.string (String.concat "\n" (Array.to_list (Array.map (fun f -> f.digest) firsts)))));
  List.iter (fun p -> Printf.printf "FAILED: %s\n" p) problems;
  let correct = problems = [] in
  print_result ~correct
    ~attempted:(sum (fun e -> e.ops) eps)
    ~failed:(sum (fun e -> e.failed) eps)
    metrics;
  if not correct then exit 1

let () =
  let workload = ref "" and seed = ref 0 and seconds = ref 10 and trace = ref 0 in
  let spec =
    [
      ("--workload", Arg.Set_string workload, "W compute|churn|attest|modelcheck");
      ("--seed", Arg.Set_int seed, "N input seed");
      ("--seconds", Arg.Set_int seconds, "S measured seconds");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end metrics, or per-layer metrics");
    ]
  in
  let usage = "bench.exe --workload W --seed N --seconds S --trace 0|1" in
  Arg.parse spec (fun a -> raise (Arg.Bad ("unexpected argument " ^ a))) usage;
  if
    (not (List.mem_assoc !workload workloads))
    || !seconds < 1
    || (!trace <> 0 && !trace <> 1)
  then begin
    prerr_endline usage;
    exit 2
  end;
  main !workload !seed (float_of_int !seconds) (!trace = 1)
