(** CRC-32 checksums (IEEE 802.3 / zlib polynomial).

    Used to frame individual plan-cache entries on disk so a torn or
    bit-flipped entry is detected and skipped instead of trusted (see
    {!Service.Plan_cache}).  Checksums are returned as non-negative
    ints in [0, 2^32); this module needs a 64-bit platform. *)

val string : string -> int
(** The CRC-32 of a whole string. *)

val update : int -> string -> int
(** Extend a running checksum: [update (string a) b = string (a ^ b)].
    The running checksum must itself be a result of this module (in
    [0, 2^32)). *)
