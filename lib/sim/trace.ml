type event = Sim.trace_event = {
  te_time : float;
  te_name : string;
  te_fields : (string * string) list;
}

(* The kind is folded into the run's checksum here, so the double-run
   oracle sees every event whether or not anyone reads the buffer. *)
let emit name fields =
  let s = Sim.get () in
  if s.Sim.running then begin
    s.Sim.csum <- Sim.fnv1a_string s.Sim.csum name;
    s.Sim.trace <- { te_time = s.Sim.clock; te_name = name; te_fields = fields } :: s.Sim.trace
  end

let events () = List.rev (Sim.get ()).Sim.trace

let dump fmt () =
  List.iter
    (fun e ->
      Format.fprintf fmt "%.6f %s" e.te_time e.te_name;
      List.iter (fun (k, v) -> Format.fprintf fmt " %s=%s" k v) e.te_fields;
      Format.fprintf fmt "@.")
    (events ())

let count name =
  List.fold_left
    (fun acc e -> if e.te_name = name then acc + 1 else acc)
    0 (Sim.get ()).Sim.trace
