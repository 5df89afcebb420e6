(* Splitmix-style generator on the native 63-bit int.

   The state lives in a mutable immediate field, so advancing the
   generator allocates nothing — unlike an [int64] state, where every
   arithmetic step and every state store boxes (this module sits on the
   per-send hot path of the simulator via [Delay.draw]). The mixing
   constants are the splitmix64 ones truncated to 63 bits; the weakened
   top bit costs a little avalanche quality at the high end, which the
   double mix round restores well enough for simulation workloads. *)

type t = { mutable state : int }

(* 0x9e3779b97f4a7c15 (the 64-bit golden gamma) mod 2^63. Addition
   wraps mod 2^63 on the native int, which is exactly the cyclic-group
   walk splitmix needs: the gamma is odd, so the state orbit still
   visits every residue. *)
let golden_gamma = 0x1e3779b97f4a7c15

let[@inline] mix z =
  let z = (z lxor (z lsr 30)) * 0x3f58476d1ce4e5b9 in
  let z = (z lxor (z lsr 27)) * 0x14d049bb133111eb in
  z lxor (z lsr 31)

let create seed = { state = mix seed }

(* Next raw 63-bit output (may be negative: the sign bit carries random
   bits too). *)
let[@inline] next t =
  let s = t.state + golden_gamma in
  t.state <- s;
  mix s

let split t = { state = next t }

let int t bound =
  if bound <= 0 then invalid_arg "Rng.int: non-positive bound";
  (* Masking the sign bit keeps the value non-negative; modulo bias is
     negligible for the bounds used in simulations (<< 2^62). *)
  (next t land max_int) mod bound

let[@inline] float t bound =
  (* 53 random bits scaled into [0, 1). *)
  float_of_int (next t land 0x1FFFFFFFFFFFFF) /. 9007199254740992.0 *. bound

let bool t = next t land 1 = 1

let[@inline] exponential t ~mean =
  let u = float t 1.0 in
  (* u = 0 would give infinity; nudge it. *)
  let u = if u <= 0. then 1e-300 else u in
  -.mean *. log u

let shuffle_in_place t a =
  for i = Array.length a - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- tmp
  done

