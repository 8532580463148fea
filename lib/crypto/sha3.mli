(** SHA-3 / SHAKE (FIPS 202) implemented from scratch on Keccak-f[1600].

    This is the measurement hash of the paper (§VI-A cites tiny_sha3). The
    streaming interface mirrors how the monitor extends an enclave's
    measurement operation by operation. *)

type t
(** A streaming hash context. Contexts are single-use: calling
    {!finalize} twice raises [Invalid_argument]. *)

val init_sha3_256 : unit -> t
val init_sha3_512 : unit -> t

val absorb : t -> string -> unit
(** [absorb t data] feeds [data] into the sponge. *)

val finalize : t -> len:int -> string
(** [finalize t ~len] pads, squeezes and returns [len] bytes of output.
    For SHA3-256/512 [len] must be 32/64 respectively; SHAKE accepts any
    positive [len]. *)

val sha3_256 : string -> string
(** One-shot SHA3-256, 32-byte digest. *)

val sha3_512 : string -> string
(** One-shot SHA3-512, 64-byte digest. *)

val shake128 : len:int -> string -> string
val shake256 : len:int -> string -> string

val digest_size_256 : int
val digest_size_512 : int
