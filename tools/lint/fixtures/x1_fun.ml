module Make (S : sig
  val base : int
end) =
struct
  let used x = x + S.base
  let dead x = x - S.base
end
