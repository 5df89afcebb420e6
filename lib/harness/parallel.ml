(* T2: the worker count only partitions the index space; [map] is
   order-preserving, so results are machine-independent even though
   the parallelism degree is not. *)
let[@lint.allow
     "D2: domain count picks the worker pool size only; outputs are \
      order-preserving and machine-independent"] recommended_domains () =
  let n = Domain.recommended_domain_count () in
  max 1 (min 8 n)

type 'b outcome = Value of 'b | Raised of exn

let map ?domains f inputs =
  let domains =
    match domains with Some d -> max 1 d | None -> recommended_domains ()
  in
  match inputs with
  | [] -> []
  | _ when domains <= 1 -> List.map f inputs
  | _ ->
    let items = Array.of_list inputs in
    let n = Array.length items in
    let results = Array.make n None in
    let next = Atomic.make 0 in
    (* one-item work stealing: each worker repeatedly claims the next
       unprocessed index *)
    let worker () =
      let continue = ref true in
      while !continue do
        let i = Atomic.fetch_and_add next 1 in
        if i >= n then continue := false
        else begin
          let[@lint.allow
               "E1: the catch-all transports the exception to the joining \
                domain, where reraise rethrows it — nothing is swallowed"]
              outcome =
            match f items.(i) with
            | value -> Value value
            | exception e -> Raised e
          in
          results.(i) <- Some outcome
        end
      done
    in
    let spawned =
      List.init (min (domains - 1) (n - 1)) (fun _ -> Domain.spawn worker)
    in
    worker ();
    List.iter Domain.join spawned;
    Array.to_list results
    |> List.map (function
         | Some (Value v) -> v
         | Some (Raised e) -> raise e
         | None -> assert false)
