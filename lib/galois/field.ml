(** The field interface shared by GF(2{^8}) and GF(2{^16}), and the one
    scalar implementation behind both.

    Elements are small non-negative [int]s (the representation both
    implementations use), which lets generic code over either field — in
    particular {!Matrix_gen} — stay allocation-free. *)

module type S = sig
  type t = int

  val zero : t
  val one : t
  val add : t -> t -> t
  val sub : t -> t -> t
  val mul : t -> t -> t
  val div : t -> t -> t
  val inv : t -> t
  val is_zero : t -> bool
  val equal : t -> t -> bool
  val alpha_pow : int -> t
  (** Powers of a fixed primitive element; defined for any integer
      exponent. *)
end

(** Scalar arithmetic in GF(2{^bits}) = GF(2)[x]/(primitive_poly), by
    log/antilog tables over the primitive element [alpha = 0x02]. [Gf]
    and [Gf16] include it and add their own buffer sweeps. *)
module Make (P : sig
  val bits : int
  val primitive_poly : int
end) =
struct
  type t = int

  let order = 1 lsl P.bits
  let field_mask = order - 1
  let group_order = order - 1
  let zero = 0
  let one = 1
  let alpha = 0x02

  (* Reference multiplication by shift-and-add modulo the primitive
     polynomial; also used to build the tables below. *)
  let mul_slow a b =
    let rec loop a b acc =
      if b = 0 then acc
      else
        let acc = if b land 1 = 1 then acc lxor a else acc in
        let a = a lsl 1 in
        let a = if a land order <> 0 then a lxor P.primitive_poly else a in
        loop a (b lsr 1) acc
    in
    loop a b 0

  (* exp_table.(i) = alpha^i for i in [0, 2 * group_order); doubled so
     that mul can index [log a + log b] without a modulo. *)
  let[@lint.allow
       "R1: filled once at module initialization, read-only afterwards — \
        safe to read from any domain"] (exp_table, log_table) =
    let exp_table = Array.make (2 * group_order) 0 in
    let log_table = Array.make order (-1) in
    let x = ref 1 in
    for i = 0 to group_order - 1 do
      exp_table.(i) <- !x;
      log_table.(!x) <- i;
      x := mul_slow !x alpha
    done;
    assert (!x = 1);
    for i = group_order to (2 * group_order) - 1 do
      exp_table.(i) <- exp_table.(i - group_order)
    done;
    (exp_table, log_table)

  let add a b = a lxor b
  let sub = add
  let is_zero a = a = 0
  let equal (a : t) (b : t) = a = b

  let mul a b =
    if a = 0 || b = 0 then 0 else exp_table.(log_table.(a) + log_table.(b))

  let inv a =
    if a = 0 then raise Division_by_zero
    else exp_table.(group_order - log_table.(a))

  let div a b =
    if b = 0 then raise Division_by_zero
    else if a = 0 then 0
    else exp_table.(log_table.(a) + group_order - log_table.(b))

  (* ((e mod q) + q) mod q keeps the exponent non-negative. *)
  let alpha_pow e =
    exp_table.(((e mod group_order) + group_order) mod group_order)
end
