(** Symbol I/O abstraction shared by the field-generic codecs.

    A symbol module fixes the field the code works over and how one code
    symbol is laid out in a byte buffer; the generic codecs
    ({!Rs_bch_gen}) are functors over this. Besides single-symbol get/set
    it exposes the width's two buffer sweeps, from which the codec's one
    row application runs row-major over whole fragments (DESIGN.md
    "Codec kernel"). *)

module type S = sig
  module F : Galois.Field.S

  val bytes_per_symbol : int

  val max_n : int
  (** Longest supported code: [F.order - 1]. *)

  val get : bytes -> int -> F.t
  (** [get buf pos] reads the symbol whose first byte is [buf.[pos]]. *)

  val set : bytes -> int -> F.t -> unit
  (** [set buf pos v] writes [v] as the symbol starting at byte [pos]. *)

  type mul_table
  (** Product table(s) for one fixed coefficient. *)

  val mul_table : F.t -> mul_table
  (** Build (or fetch from cache) the table for a coefficient. Safe to
      call from any domain: the GF(2{^8}) tables are built at load and
      the GF(2{^16}) cache is mutex-guarded. *)

  val mul_buf :
    mul_table -> src:bytes -> soff:int -> dst:bytes -> doff:int -> len:int -> unit
  (** [dst <- c * src] over byte views ([len] a whole number of
      symbols), [c] the table's coefficient. *)

  val muladd_buf :
    mul_table -> src:bytes -> soff:int -> dst:bytes -> doff:int -> len:int -> unit
  (** [dst += c * src] over byte views, as {!mul_buf}. *)
end

(** One byte per symbol, GF(2{^8}): codes up to length 255. *)
module Byte : S with module F = Galois.Gf = struct
  module F = Galois.Gf

  let bytes_per_symbol = 1
  let max_n = 255
  let get buf pos = Char.code (Bytes.get buf pos)
  let set buf pos v = Bytes.set buf pos (Char.chr v)

  type mul_table = Bytes.t

  let mul_table = F.mul_table
  let mul_buf = F.mul_buf
  let muladd_buf = F.muladd_buf
end

(** Two bytes (big-endian) per symbol, GF(2{^16}): codes up to 65535. *)
module Wide : S with module F = Galois.Gf16 = struct
  module F = Galois.Gf16

  let bytes_per_symbol = 2
  let max_n = 65535
  let get = Bytes.get_uint16_be
  let set = Bytes.set_uint16_be

  type mul_table = F.mul_tables

  let mul_table = F.mul_tables
  let mul_buf = F.mul_buf_v
  let muladd_buf = F.muladd_buf_v
end
