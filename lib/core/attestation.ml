module Hw = Sanctorum_hw
module Crypto = Sanctorum_crypto

let ( let* ) = Result.bind

(* ------------------------------------------------------------------ *)
(* The signing enclave: a canonical one-page image whose measurement is
   the constant the monitor trusts. Its behaviour is modeled natively;
   the image (an idle loop) pins down its identity. *)

let signing_image =
  Image.of_program ~evbase:0x10000 ~data_pages:1 [ Hw.Isa.j 0 ]

let signing_expected_measurement = Image.measurement signing_image

(* ------------------------------------------------------------------ *)
(* Evidence *)

type evidence = {
  enclave_measurement : string;
  channel_binding : string;
  nonce : string;
  signature : string;
  certificates : string;
}

let attested_payload e =
  "sanctorum-attestation" ^ e.nonce ^ e.channel_binding ^ e.enclave_measurement

let request_message ~nonce ~channel_binding = nonce ^ channel_binding

(* Mailbox messages are fixed-size; requests are nonce (32) followed by
   channel binding (32), everything else zero. *)
let split_request msg =
  if String.length msg < 64 then None
  else Some (String.sub msg 0 32, String.sub msg 32 32)

let signing_enclave_serve sm ~es_eid ~requester =
  let caller = Sm.Enclave_caller es_eid in
  let* () = Sm.accept_mail sm ~caller ~sender:(Mailbox.From_enclave requester) in
  Ok ()

(* The serve call is split: accept first (so the requester can send),
   then the actual service round. [signing_enclave_respond] performs the
   read-sign-reply half; the requester's measurement comes from the
   monitor's mailbox tag, never from the message. *)
let signing_enclave_respond sm ~es_eid ~requester =
  let caller = Sm.Enclave_caller es_eid in
  let* msg, requester_measurement =
    Sm.get_mail sm ~caller ~sender:(Mailbox.From_enclave requester)
  in
  match split_request msg with
  | None -> Error (Api_error.Illegal_argument "malformed attestation request")
  | Some (nonce, channel_binding) ->
      let* key = Sm.get_signing_key sm ~caller in
      let payload =
        attested_payload
          {
            enclave_measurement = requester_measurement;
            channel_binding;
            nonce;
            signature = "";
            certificates = "";
          }
      in
      let signature = Crypto.Schnorr.sign key payload in
      Sanctorum_telemetry.Sink.incr_counter (Sm.sink sm) "crypto.sign";
      Sm.send_mail sm ~caller ~recipient:requester ~msg:signature

let request_attestation sm ~eid ~es_eid ~nonce ~channel_binding =
  if String.length nonce <> 32 || String.length channel_binding <> 32 then
    Error (Api_error.Illegal_argument "nonce and binding must be 32 bytes")
  else begin
    let caller = Sm.Enclave_caller eid in
    (* Step 3 (Fig. 7): the enclave asks E_S to sign its measurement. *)
    let* () = Sm.accept_mail sm ~caller ~sender:(Mailbox.From_enclave es_eid) in
    let* () = signing_enclave_serve sm ~es_eid ~requester:eid in
    let* () =
      Sm.send_mail sm ~caller ~recipient:es_eid
        ~msg:(request_message ~nonce ~channel_binding)
    in
    (* Steps 4–5: E_S fetches the key and signs (scheduled by the OS;
       modeled as a direct call). *)
    let* () = signing_enclave_respond sm ~es_eid ~requester:eid in
    (* Step 6: collect the signature; authenticate the responder by the
       measurement tag the monitor recorded. *)
    let* sig_msg, responder_measurement =
      Sm.get_mail sm ~caller ~sender:(Mailbox.From_enclave es_eid)
    in
    if
      not
        (Sanctorum_util.Bytesx.constant_time_equal responder_measurement
           (Sm.get_field sm Sm.Field_signing_measurement))
    then Error Api_error.Unauthorized
    else begin
      let* own_measurement = Sm.enclave_measurement sm ~eid in
      let signature = String.sub sig_msg 0 Crypto.Schnorr.signature_size in
      Ok
        {
          enclave_measurement = own_measurement;
          channel_binding;
          nonce;
          signature;
          certificates = Sm.get_field sm Sm.Field_certificates;
        }
    end
  end

(* ------------------------------------------------------------------ *)
(* Verifier side *)

let parse_certificates blob =
  let rec go off acc =
    if off = String.length blob then Ok (List.rev acc)
    else if off + 4 > String.length blob then Error "truncated certificate chain"
    else begin
      let len = Int32.to_int (String.get_int32_le blob off) in
      if len < 0 || off + 4 + len > String.length blob then
        Error "truncated certificate"
      else begin
        match Crypto.Cert.deserialize (String.sub blob (off + 4) len) with
        | Error e -> Error e
        | Ok c -> go (off + 4 + len) (c :: acc)
      end
    end
  in
  go 0 []

let verify_evidence ~root ~expected_measurement ~nonce ~channel_binding e =
  if e.nonce <> nonce then Error "nonce mismatch"
  else if e.channel_binding <> channel_binding then Error "channel mismatch"
  else if
    not
      (Sanctorum_util.Bytesx.constant_time_equal e.enclave_measurement
         expected_measurement)
  then Error "enclave measurement mismatch"
  else begin
    let* certs = parse_certificates e.certificates in
    let* sm_key = Crypto.Cert.verify_chain ~root certs in
    if
      Crypto.Schnorr.verify sm_key ~msg:(attested_payload e)
        ~signature:e.signature
    then Ok ()
    else Error "attestation signature invalid"
  end

(* One attestation service sweep verifies many clients' evidence at
   once: the structural checks stay per item, but every Schnorr check —
   two certificate signatures and the evidence signature per item — is
   folded into a single random-linear-combination batch. A bad item is
   pinpointed by the batch fallback and reported individually. *)

type batch_request = {
  vr_root : Crypto.Schnorr.public_key;
  vr_expected_measurement : string;
  vr_nonce : string;
  vr_channel_binding : string;
  vr_evidence : evidence;
}

let verify_evidence_batch reqs =
  let reqs = Array.of_list reqs in
  let n = Array.length reqs in
  let results = Array.make n (Ok ()) in
  let claims = ref [] in
  (* per item: position of its first claim and its certificate count *)
  let spans = Array.make n None in
  let next = ref 0 in
  for i = 0 to n - 1 do
    let r = reqs.(i) in
    let e = r.vr_evidence in
    let structural =
      if e.nonce <> r.vr_nonce then Error "nonce mismatch"
      else if e.channel_binding <> r.vr_channel_binding then
        Error "channel mismatch"
      else if
        not
          (Sanctorum_util.Bytesx.constant_time_equal e.enclave_measurement
             r.vr_expected_measurement)
      then Error "enclave measurement mismatch"
      else begin
        let* certs = parse_certificates e.certificates in
        Crypto.Cert.signature_claims ~root:r.vr_root certs
      end
    in
    match structural with
    | Error msg -> results.(i) <- Error msg
    | Ok (cert_claims, sm_key) ->
        let all =
          cert_claims @ [ (sm_key, attested_payload e, e.signature) ]
        in
        spans.(i) <- Some (!next, List.length cert_claims);
        next := !next + List.length all;
        claims := List.rev_append all !claims
  done;
  if !next = 0 then results
  else begin
    let verdicts = Crypto.Schnorr.verify_batch (List.rev !claims) in
    Array.iteri
      (fun i span ->
        match span with
        | None -> () (* failed structurally; already reported *)
        | Some (first, ncerts) ->
            let verdict = ref (Ok ()) in
            for j = ncerts downto 0 do
              if not verdicts.(first + j) then
                verdict :=
                  Error
                    (if j < ncerts then "certificate chain signature invalid"
                     else "attestation signature invalid")
            done;
            results.(i) <- !verdict)
      spans;
    results
  end

(* ------------------------------------------------------------------ *)
(* End-to-end drivers *)

let local_attest sm ~verifier ~prover ~expected =
  let challenge = "local-attestation-challenge" in
  (* ① E2 readies a mailbox for E1; ② E1 sends; ③ E2 fetches;
     ④ E2 compares the monitor-recorded measurement. *)
  let* () =
    Sm.accept_mail sm ~caller:(Sm.Enclave_caller verifier)
      ~sender:(Mailbox.From_enclave prover)
  in
  let* () =
    Sm.send_mail sm ~caller:(Sm.Enclave_caller prover) ~recipient:verifier
      ~msg:challenge
  in
  let* msg, measurement =
    Sm.get_mail sm ~caller:(Sm.Enclave_caller verifier)
      ~sender:(Mailbox.From_enclave prover)
  in
  Ok
    (Sanctorum_util.Bytesx.constant_time_equal measurement expected
    && String.sub msg 0 (String.length challenge) = challenge)

type remote_session = {
  session_key_verifier : string;
  session_key_enclave : string;
  verdict : (unit, string) result;
}

let run_remote_attestation sm ~rng ~eid ~es_eid ~expected_measurement =
  (* ① key agreement over the untrusted network *)
  let v_secret, v_public = Crypto.Dh.generate rng in
  let e_secret, e_public = Crypto.Dh.generate rng in
  let channel_binding =
    Crypto.Sha3.sha3_256
      (Crypto.Dh.public_to_bytes e_public ^ Crypto.Dh.public_to_bytes v_public)
  in
  (* ② the verifier's nonce *)
  let nonce = Crypto.Drbg.random_bytes rng 32 in
  (* ③–⑦ the enclave obtains its signed attestation *)
  let root = (Sm.identity sm).Boot.root_public in
  match request_attestation sm ~eid ~es_eid ~nonce ~channel_binding with
  | Error e ->
      {
        session_key_verifier = "";
        session_key_enclave = "";
        verdict = Error (Api_error.to_string e);
      }
  | Ok evidence ->
      (* ⑧–⑨ the verifier checks the evidence; ⑩ both sides hold the
         session key the attestation just authenticated. *)
      let verdict =
        verify_evidence ~root ~expected_measurement ~nonce ~channel_binding
          evidence
      in
      {
        session_key_verifier = Crypto.Dh.shared_key v_secret e_public;
        session_key_enclave = Crypto.Dh.shared_key e_secret v_public;
        verdict;
      }
