let init ~workers n f =
  let domains = min workers n in
  if domains <= 1 then Array.init n f
  else begin
    let slots = Array.make n None in
    let next = Atomic.make 0 in
    let rec claim () =
      let i = Atomic.fetch_and_add next 1 in
      if i < n then begin
        slots.(i) <- Some (try Ok (f i) with e -> Error e);
        claim ()
      end
    in
    let spawned = List.init (domains - 1) (fun _ -> Domain.spawn claim) in
    claim ();
    List.iter Domain.join spawned;
    Array.map
      (function
        | Some (Ok v) -> v
        | Some (Error e) -> raise e
        | None -> invalid_arg "Fanout.init: unclaimed slot")
      slots
  end
