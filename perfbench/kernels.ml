(* Kernel replay: wall-clock ns/op of the Fdb_kv and Tuple kernels, fed the
   keys and ranges a workload generated for its seed, so the cost matches
   that workload's traffic rather than synthetic keys. These numbers move
   only wall metrics: the simulator charges modelled CPU costs (Params) for
   the work these kernels do, not their real cost. *)

open Fdb_kv
module Rng = Fdb_util.Det_rng

type input = {
  tuples : Fdb_core.Tuple.t array;  (* the tuple behind every key touched *)
  writes : string array;  (* written keys, in commit order *)
  reads : (string * string) array;  (* point reads as [k, k\x00), plus range reads *)
}

(* Median ns/op over [reps] timed passes. A pass runs [f] (which does [ops]
   ops) on a fresh state from [prepare], repeated until it has done at
   least [min_ops] ops, so short key lists still time well above clock
   resolution and every timed op sees the state [prepare] made (each
   skiplist insert is of a key not yet present). Only [f] is timed. *)
let min_ops = 10_000
let reps = 5

let time_ns ~ops prepare f =
  let loops = max 1 (min_ops / max 1 ops) in
  let samples =
    Array.init reps (fun _ ->
        let elapsed = ref 0.0 in
        for _ = 1 to loops do
          let st = prepare () in
          let t0 = Unix.gettimeofday () in
          f st;
          elapsed := !elapsed +. (Unix.gettimeofday () -. t0)
        done;
        !elapsed *. 1e9 /. float_of_int (max 1 (ops * loops)))
  in
  Array.sort compare samples;
  samples.(reps / 2)

let fresh_rng () = Rng.create 7L

let note_all (rvm, version) writes =
  Array.iter
    (fun k ->
      version := Int64.succ !version;
      Range_version_map.note_write rvm ~from:k ~until:(k ^ "\x00") !version)
    writes

let fresh_rvm () = (Range_version_map.create ~rng:(fresh_rng ()) (), ref 0L)

let fill_window w writes =
  Array.iteri (fun i k -> Version_window.apply w (Int64.of_int (i + 1)) (Mutation.Set (k, k))) writes

(* Replay at most this many of each kind of input (the first ones the
   workload generated), which keeps the replay to a few wall seconds. *)
let max_inputs = 10_000

let prefix a = Array.sub a 0 (min max_inputs (Array.length a))

let run (inp : input) =
  let inp = { tuples = prefix inp.tuples; writes = prefix inp.writes; reads = prefix inp.reads } in
  let nw = Array.length inp.writes and nr = Array.length inp.reads in
  let top = Int64.of_int (nw + 1) in
  let sink = ref 0L in
  let pack_ns =
    time_ns ~ops:(Array.length inp.tuples) (fun () -> ())
      (fun () ->
        Array.iter
          (fun t -> sink := Int64.add !sink (Int64.of_int (String.length (Fdb_core.Tuple.pack t))))
          inp.tuples)
  in
  (* Written keys repeat (commit_hot's hot accounts above all); insert
     each distinct one once, in first-write order, so every timed call is
     an insert rather than a replace. *)
  let distinct =
    let seen = Hashtbl.create nw in
    List.filter
      (fun k -> (not (Hashtbl.mem seen k)) && (Hashtbl.replace seen k (); true))
      (Array.to_list inp.writes)
    |> Array.of_list
  in
  let skiplist_ns =
    time_ns ~ops:(Array.length distinct)
      (fun () -> Skiplist.create ~rng:(fresh_rng ()) ())
      (fun sl -> Array.iteri (fun i k -> Skiplist.insert sl k i) distinct)
  in
  let note_ns =
    time_ns ~ops:nw
      fresh_rvm
      (fun st -> note_all st inp.writes)
  in
  let max_ns =
    time_ns ~ops:nr
      (fun () ->
        let ((rvm, _) as st) = fresh_rvm () in
        note_all st inp.writes;
        rvm)
      (fun rvm ->
        Array.iter
          (fun (from, until) -> sink := Int64.add !sink (Range_version_map.max_version rvm ~from ~until))
          inp.reads)
  in
  let window_ns =
    time_ns ~ops:nr
      (fun () ->
        let w = Version_window.create () in
        fill_window w inp.writes;
        w)
      (fun w ->
        Array.iter
          (fun (k, _) ->
            match Version_window.read w top k with
            | Version_window.Value _ -> sink := Int64.succ !sink
            | Version_window.Cleared | Version_window.Unknown -> ())
          inp.reads)
  in
  ignore (Sys.opaque_identity !sink : int64);
  [
    ("kv.rvm_max_version_ns", max_ns);
    ("kv.rvm_note_write_ns", note_ns);
    ("kv.window_read_ns", window_ns);
    ("kv.skiplist_insert_ns", skiplist_ns);
    ("tuple.pack_ns", pack_ns);
  ]
