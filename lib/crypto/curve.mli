(** The twisted Edwards curve -x^2 + y^2 = 1 + d x^2 y^2 over
    GF(2^255 - 19) with the Ed25519 parameters. This is the group used
    by the monitor's attestation signatures ({!Schnorr}) and key
    agreement ({!Dh}).

    The base point is recovered from y = 4/5 at module initialization
    (choosing the even-x root), so no large coordinate constant needs to
    be trusted. *)

type point
(** A point of the curve in extended homogeneous coordinates. *)

val order : Bignum.t
(** The prime order L = 2^252 + 27742317777372353535851937790883648493
    of the base-point subgroup. *)

val identity : point
val base : point

val add : point -> point -> point
val double : point -> point
val negate : point -> point

val scalar_mul : Bignum.t -> point -> point
(** Plain double-and-add. Kept as the reference implementation the
    windowed paths below are differentially tested against. *)

val scalar_mul_schoolbook : Bignum.t -> point -> point
(** The pre-optimization tier kept whole: the same extended-coordinate
    formulas over schoolbook modular arithmetic, where every field
    product pays a Knuth division. It converts to the fast
    representation only at the boundary, so agreement with
    {!scalar_mul} checks the whole field + curve stack value for
    value — the differential oracle and the bench baseline. *)

val equal : point -> point -> bool
val is_on_curve : point -> bool

type table
(** Fixed-base window (comb) precomputation for one point: per window
    of the scalar, every multiple of the windowed base, making a scalar
    multiply a handful of additions with no doublings. Worth building
    for long-lived points (the generator, the signing key, the
    manufacturer roots). *)

val make_table : ?bits:int -> point -> table
(** [bits] is the window width, 4 (default: 64 windows of 16 points,
    cheap to build) or 8 (32 windows of 256 points, ~8k additions to
    build — for a point walked very many times, like the generator).
    Raises [Invalid_argument] on any other width. *)

val table_point : table -> point

val table_mul : table -> Bignum.t -> point
(** [table_mul t k] is [scalar_mul k (table_point t)]. Scalars wider
    than 256 bits fall back to {!scalar_mul}. *)

val scalar_mul_base : Bignum.t -> point
(** [scalar_mul k base] through a table built at module init. *)

val multi_scalar_mul : (Bignum.t * point) list -> point
(** Σ kᵢ·Pᵢ with one shared doubling chain (Strauss), the core of batch
    signature verification. *)

val to_affine : point -> Field.t * Field.t
val of_affine : Field.t * Field.t -> point
(** Raises [Invalid_argument] if the coordinates are not on the curve. *)

val encode : point -> string
(** 64-byte uncompressed encoding: x (32 LE) followed by y (32 LE). *)

val decode : string -> (point, string) result
(** Inverse of {!encode}, including an on-curve check. *)

val encoded_size : int

val pp : Format.formatter -> point -> unit
