type t = { mutable v : string; mutable counter : int64 }

let create ~seed =
  { v = Sha3.sha3_256 ("sanctorum-drbg-init" ^ seed); counter = 0L }

let random_bytes t n =
  if n < 0 then invalid_arg "Drbg.random_bytes: negative length";
  let buf = Buffer.create n in
  while Buffer.length buf < n do
    Buffer.add_string buf
      (Sha3.sha3_256 (t.v ^ Sanctorum_util.Bytesx.of_int64_le t.counter));
    t.counter <- Int64.add t.counter 1L
  done;
  (* Ratchet so earlier outputs cannot be recomputed from a captured
     state. *)
  t.v <- Sha3.sha3_256 ("sanctorum-drbg-ratchet" ^ t.v);
  Buffer.sub buf 0 n

let random_u64 t = Sanctorum_util.Bytesx.get_u64_le (random_bytes t 8) 0

let random_int t bound =
  if bound <= 0 then invalid_arg "Drbg.random_int: bound must be positive";
  (* Rejection sampling to avoid modulo bias. *)
  let mask_bits =
    let rec go b = if 1 lsl b >= bound then b else go (b + 1) in
    go 1
  in
  let mask = (1 lsl mask_bits) - 1 in
  let rec draw () =
    let v = Int64.to_int (random_u64 t) land mask in
    if v < bound then v else draw ()
  in
  draw ()

let random_scalar t ~m =
  let len = (Bignum.bit_length m + 7) / 8 in
  let rec draw () =
    let x = Bignum.of_bytes_be (random_bytes t len) in
    if Bignum.is_zero x || Bignum.compare x m >= 0 then draw () else x
  in
  draw ()
