(* A1 fixture: a zero-copy buffer escapes into the send path and is
   then written through. The local [Engine] mirrors the simnet sink's
   shape; the pass matches sinks by path suffix. *)
module Engine = struct
  let send _ctx ~dst:_ _payload = ()
end

let publish ctx buf =
  Engine.send ctx ~dst:1 buf;
  Bytes.set buf 0 'x'

let[@lint.allow
     "A1: fixture — the engine copies this payload before delivery"] recycle
    ctx buf =
  Engine.send ctx ~dst:1 buf;
  Bytes.set buf 0 'x'

(* The one-call fan-out publishes its message to every destination of
   the range, so a write through the buffer after it is reported too. *)
module Fanout = struct
  module Engine = struct
    let send_many _ctx ~dsts:_ ~from:_ ~upto:_ _payload = ()
  end
end

let publish_many ctx buf =
  Fanout.Engine.send_many ctx ~dsts:[| 1; 2 |] ~from:0 ~upto:2 buf;
  Bytes.set buf 0 'x'
