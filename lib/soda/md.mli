(** Sender side of the message-disperse primitives (Section III).

    Both primitives target the distinguished set [D] of the first [f+1]
    server coordinates, one message per {!Config.disperse_step} so that a
    crash of the sender can cut the dispersal short — the failure case
    the primitives are designed to survive. Relaying and delivery happen
    on the server side (see {!Server}), which guarantees: if any server
    delivers the dispersal, every non-faulty server eventually does
    (uniformity), even when the original sender crashes mid-stream. *)

type ctx = Messages.t Simnet.Engine.context

val value_send :
  ctx -> Config.t -> seq:int ref -> op:int -> tag:Protocol.Tag.t ->
  value:bytes -> unit
(** MD-VALUE: disperse [(tag, value)]; every non-faulty server eventually
    delivers its own coded element. Data cost of the full-value sends is
    charged to [op]. *)

val meta_send : ctx -> Config.t -> seq:int ref -> Messages.meta -> unit
(** MD-META: disperse a metadata payload to all servers (cost-free). *)
