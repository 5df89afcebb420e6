(* The physical shape of a server fleet: how many server processes
   exist and which failure domain (rack, zone) each belongs to. Purely
   descriptive — fault correlation comes from the chaos harness
   partitioning/crashing a whole domain, and placement quality from
   [Placement] spreading each key's fragments across domains. *)

type t = {
  (* server index -> failure-domain id, dense in [0, num_domains) *)
  assignment : int array;
  num_domains : int
}

let make ~servers ~domains () =
  if servers <= 0 then invalid_arg "Topology.make: need at least one server";
  if domains <= 0 || domains > servers then
    invalid_arg "Topology.make: need 1 <= domains <= servers";
  { assignment = Array.init servers (fun i -> i mod domains);
    num_domains = domains
  }

let servers t = Array.length t.assignment
let num_domains t = t.num_domains

let domain_of t server =
  if server < 0 || server >= Array.length t.assignment then
    invalid_arg "Topology.domain_of: server index out of range";
  t.assignment.(server)

(* Members of one domain, ascending. *)
let domain_members t domain =
  if domain < 0 || domain >= t.num_domains then
    invalid_arg "Topology.domain_members: domain id out of range";
  let out = ref [] in
  for i = Array.length t.assignment - 1 downto 0 do
    if t.assignment.(i) = domain then out := i :: !out
  done;
  !out

let min_domain_size t =
  let counts = Array.make t.num_domains 0 in
  Array.iter (fun d -> counts.(d) <- counts.(d) + 1) t.assignment;
  Array.fold_left min max_int counts
