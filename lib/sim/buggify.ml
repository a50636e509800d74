module Rng = Fdb_util.Det_rng
module Det_tbl = Fdb_util.Det_tbl

let activation_probability = 0.25

let on ?(p = 0.25) name =
  let s = Sim.get () in
  if not (s.Sim.running && s.Sim.buggify) then false
  else begin
    let active =
      match Hashtbl.find_opt s.Sim.bug_active name with
      | Some a -> a
      | None ->
          let a = Rng.chance s.Sim.bug_rng activation_probability in
          Hashtbl.add s.Sim.bug_active name a;
          a
    in
    if active && Rng.chance s.Sim.bug_rng p then begin
      Det_tbl.replace s.Sim.bug_fired name ();
      true
    end
    else false
  end

let delay ?p name = if on ?p name then Rng.float (Sim.get ()).Sim.bug_rng 1.0 else 0.0

let points_hit () = Det_tbl.keys (Sim.get ()).Sim.bug_fired
