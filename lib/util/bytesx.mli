(** Byte-string utilities used across the monitor and crypto code. *)

val xor : string -> string -> string
(** [xor a b] is the bytewise exclusive-or; the strings must have equal
    length. *)

val constant_time_equal : string -> string -> bool
(** Length-and-content comparison that does not short-circuit on the first
    differing byte (models the constant-time comparison a real SM must
    use on secrets). *)

val get_u64_le : string -> int -> int64
(** [get_u64_le s off] reads 8 bytes little-endian. *)

val set_u64_le : Bytes.t -> int -> int64 -> unit

val get_u32_le : string -> int -> int32

val of_int64_le : int64 -> string
(** 8-byte little-endian rendering. *)

val concat_list : string list -> string
(** [concat_list parts] concatenates with no separator. *)

val repeat : char -> int -> string
