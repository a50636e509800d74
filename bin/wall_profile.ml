(* A wall-time sampling profiler for `fdb_sim run --wall-profile`.

   A SIGPROF interval timer interrupts the process every millisecond of
   CPU time, and the handler records the OCaml call stack at that point
   with Printexc.get_callstack. The report names the top self frames (the
   innermost frame of each sample) and the share of samples per innermost
   Fdb_core / Fdb_kv module on the stack, which says which role's code
   the time went to even when the self frame is a shared kernel.

   The sampler only reads stacks. Nothing it records reaches the
   simulation, so a seed's trace checksum is the same with it on or off.
   Stacks need debug info, which dune's default profile builds with. *)

module Det_tbl = Fdb_util.Det_tbl

type t = {
  self : (string, int ref) Det_tbl.t; (* innermost frame -> samples *)
  modules : (string, int ref) Det_tbl.t; (* innermost core/kv module -> samples *)
  mutable samples : int;
  started : float;
}

let interval_s = 0.001
let max_depth = 128

let bump tbl key =
  match Det_tbl.find_opt tbl key with
  | Some n -> incr n
  | None -> Det_tbl.add tbl key (ref 1)

let frame_file slot =
  match Printexc.Slot.location slot with
  | Some loc -> loc.Printexc.filename
  | None -> "?"

let frame_name slot =
  match Printexc.Slot.name slot with
  | Some n -> n
  | None -> (
      match Printexc.Slot.location slot with
      | Some loc -> Printf.sprintf "%s:%d" loc.Printexc.filename loc.Printexc.line_number
      | None -> "?")

(* "lib/core/log_server.ml" -> "Fdb_core.Log_server" *)
let module_of_file file =
  let under prefix lib =
    if String.starts_with ~prefix file then
      Some (lib ^ "." ^ String.capitalize_ascii (Filename.remove_extension (Filename.basename file)))
    else None
  in
  match under "lib/core/" "Fdb_core" with Some m -> Some m | None -> under "lib/kv/" "Fdb_kv"

let record t =
  match Printexc.backtrace_slots (Printexc.get_callstack max_depth) with
  | None -> ()
  | Some slots ->
      (* The handler's own frames sit on top of the interrupted code. *)
      let frames =
        Array.to_list slots |> List.filter (fun s -> frame_file s <> "bin/wall_profile.ml")
      in
      match frames with
      | [] -> ()
      | top :: _ ->
          t.samples <- t.samples + 1;
          bump t.self (frame_name top);
          bump t.modules
            (match List.find_map (fun s -> module_of_file (frame_file s)) frames with
            | Some m -> m
            | None -> "(no Fdb_core/Fdb_kv frame)")

let set_timer interval =
  ignore
    (* fdb-lint: allow R1 -- the profiler's CPU-time sampling timer; samples never feed the simulation *)
    (Unix.setitimer Unix.ITIMER_PROF { Unix.it_interval = interval; it_value = interval }
      : Unix.interval_timer_status)

let start () =
  let t =
    {
      self = Det_tbl.create ~size:256 ();
      modules = Det_tbl.create ~size:64 ();
      samples = 0;
      (* fdb-lint: allow R1 -- wall time is reported profiler output, never simulation input *)
      started = Unix.gettimeofday ();
    }
  in
  Sys.set_signal Sys.sigprof (Sys.Signal_handle (fun _ -> try record t with _ -> ()));
  set_timer interval_s;
  t

let stop t =
  set_timer 0.0;
  Sys.set_signal Sys.sigprof Sys.Signal_ignore;
  (* fdb-lint: allow R1 -- wall time is reported profiler output, never simulation input *)
  let wall = Unix.gettimeofday () -. t.started in
  let top n tbl =
    Det_tbl.to_sorted_list tbl
    |> List.map (fun (k, c) -> (k, !c))
    |> List.stable_sort (fun (_, a) (_, b) -> compare b a)
    |> List.filteri (fun i _ -> i < n)
  in
  let pct c = 100.0 *. float_of_int c /. float_of_int (max 1 t.samples) in
  Printf.printf "wall profile: %d samples over %.2f s wall (%.0f ms CPU timer)\n" t.samples
    wall (interval_s *. 1000.0);
  Printf.printf "top self frames:\n";
  List.iter (fun (k, c) -> Printf.printf "  %5.1f%%  %s\n" (pct c) k) (top 25 t.self);
  Printf.printf "share per innermost Fdb_core/Fdb_kv module:\n";
  List.iter (fun (k, c) -> Printf.printf "  %5.1f%%  %s\n" (pct c) k) (top 25 t.modules)
