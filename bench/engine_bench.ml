(* Engine-cost bench: how much work the simulator does per simulated
   second, over a fixed set of buggified swarm seeds (the same runs as
   `fdb_sim swarm --seeds 4 --duration 20`). Two counts are deterministic
   for a given build and seed, so the smoke gate sits on them:

   - events per simulated second: tasks the engine ran
     ({!Engine.events_executed}) over the simulated time of the run;
   - minor words per event: OCaml minor-heap allocation per task run
     (reported with minor words per simulated second, since removing
     cheap events raises the per-event figure while total allocation
     falls).

   Wall time is reported as tracked data only (it drifts with the host).

   The baseline is the same measurement on the code before storage servers
   long-polled their logs and before timers became cancellable: every
   storage server peeked every 5 ms and every RPC timeout fired, even
   after its reply. The gate fails the build unless events per simulated
   second stay at least 2x below that baseline. The counts do not depend
   on the sample size, so [--smoke] runs the same seeds as a full run.

   A second measurement gates the metrics plane on a wide cluster: minor
   words per simulated second on an idle oltp_wide-shaped cluster, against
   a baseline taken before registry reads were indexed (see
   [measure_wide]). *)

open Fdb_core
open Fdb_sim.Future.Syntax

let seeds = [ 1L; 2L; 3L; 4L ]
let duration = 20.0

(* Measured with exactly these seeds and this duration on the pre-change
   code (1,749,043 events over 149.5 simulated seconds); wall time is the
   median of three runs on a 2-core Intel Xeon VM. *)
let baseline_events_per_sim_s = 11698.8
let baseline_minor_words_per_event = 165.8
let baseline_minor_words_per_sim_s = 1939702.0
let baseline_wall_s = 4.24

type sample = {
  seed : int64;
  events : int;
  sim_s : float;
  minor_words : float;
  wall_s : float;
}

let measure seed =
  let w0 = Gc.minor_words () in
  (* fdb-lint: allow R1 -- wall time is reported bench output, never simulation input *)
  let t0 = Unix.gettimeofday () in
  let r = Fdb_workloads.Swarm.run_one ~duration ~seed () in
  (* fdb-lint: allow R1 -- wall time is reported bench output, never simulation input *)
  let wall_s = Unix.gettimeofday () -. t0 in
  if r.Fdb_workloads.Swarm.oracle_failures <> [] then
    failwith
      (Printf.sprintf "engine bench: seed %Ld failed its oracles: %s" seed
         (String.concat "; " r.Fdb_workloads.Swarm.oracle_failures));
  {
    seed;
    events = r.Fdb_workloads.Swarm.events;
    sim_s = r.Fdb_workloads.Swarm.sim_seconds;
    minor_words = Gc.minor_words () -. w0;
    wall_s;
  }

(* ---------- metrics-plane allocation on a wide cluster ---------- *)

(* An oltp_wide-shaped cluster (12 machines, 168 storage servers, 672
   static shards), idle after [wait_ready]: what is left is the
   background work every role does each heartbeat, and on a wide cluster
   most of it is the metrics plane (stats loops publishing gauges,
   Ratekeeper reading them, the roll-up). Minor words per simulated
   second over a fixed window is the same from run to run for a given
   build, so it is gated; wall time is reported only. *)
let wide_machines = 12
let wide_seconds = 10.0

let wide_config () =
  let c = Config.scaled ~machines:wide_machines in
  let shards = Config.storage_count c * c.Config.shards_per_storage in
  {
    c with
    Config.shard_boundaries =
      List.init (shards - 1) (fun i -> Printf.sprintf "wide/%06d" ((i + 1) * 40_000 / shards));
    cc_candidates = 1;
  }

(* Measured with exactly this cluster, seed and window on the code whose
   registry reads sorted every cell and whose histograms kept their
   buckets in a hash table; wall time on a 2-core x86 VM. The gate fails
   the build if allocation is no longer 1.6x below it (measured: 1.84x). *)
let baseline_wide_minor_words_per_sim_s = 1205548.0
let baseline_wide_wall_s = 0.225
let wide_min_reduction = 1.6

type wide = { wide_words_per_sim_s : float; wide_wall_s : float }

let measure_wide () =
  Fdb_sim.Engine.run ~seed:1L ~max_time:1e6 (fun () ->
      let cluster = Cluster.create ~config:(wide_config ()) () in
      let* () = Cluster.wait_ready ~timeout:120.0 cluster in
      let w0 = Gc.minor_words () and s0 = Fdb_sim.Engine.now () in
      (* fdb-lint: allow R1 -- wall time is reported bench output, never simulation input *)
      let t0 = Unix.gettimeofday () in
      let* () = Fdb_sim.Engine.sleep wide_seconds in
      (* fdb-lint: allow R1 -- wall time is reported bench output, never simulation input *)
      let wall_s = Unix.gettimeofday () -. t0 in
      let words = Gc.minor_words () -. w0 in
      Fdb_sim.Future.return
        { wide_words_per_sim_s = words /. (Fdb_sim.Engine.now () -. s0); wide_wall_s = wall_s })

let write_json ~smoke samples ~events_per_sim_s ~words_per_event ~words_per_sim_s ~wall_s
    ~reduction ~wide ~wide_reduction =
  let oc = open_out "BENCH_engine.json" in
  Printf.fprintf oc "{\n";
  Printf.fprintf oc "  \"name\": \"engine\",\n";
  Printf.fprintf oc "  \"smoke\": %b,\n" smoke;
  Printf.fprintf oc "  \"workload\": \"swarm seeds %s, %.0f s chaos, buggify on\",\n"
    (String.concat "," (List.map Int64.to_string seeds))
    duration;
  Printf.fprintf oc "  \"per_seed\": [\n";
  List.iteri
    (fun i s ->
      Printf.fprintf oc
        "    {\"seed\": %Ld, \"events\": %d, \"sim_s\": %.3f, \"events_per_sim_s\": %.1f, \
         \"minor_words_per_event\": %.1f, \"wall_s\": %.3f}%s\n"
        s.seed s.events s.sim_s
        (float_of_int s.events /. s.sim_s)
        (s.minor_words /. float_of_int s.events)
        s.wall_s
        (if i = List.length samples - 1 then "" else ","))
    samples;
  Printf.fprintf oc "  ],\n";
  Printf.fprintf oc "  \"events_per_sim_s\": %.1f,\n" events_per_sim_s;
  Printf.fprintf oc "  \"minor_words_per_event\": %.1f,\n" words_per_event;
  Printf.fprintf oc "  \"minor_words_per_sim_s\": %.0f,\n" words_per_sim_s;
  Printf.fprintf oc "  \"wall_s\": %.3f,\n" wall_s;
  Printf.fprintf oc
    "  \"baseline\": {\"events_per_sim_s\": %.1f, \"minor_words_per_event\": %.1f, \
     \"minor_words_per_sim_s\": %.0f, \"wall_s\": %.3f},\n"
    baseline_events_per_sim_s baseline_minor_words_per_event baseline_minor_words_per_sim_s
    baseline_wall_s;
  Printf.fprintf oc "  \"events_reduction\": %.2f,\n" reduction;
  Printf.fprintf oc "  \"gate\": \"events_reduction >= 2 (wall time not gated)\",\n";
  Printf.fprintf oc
    "  \"wide\": {\"workload\": \"Config.scaled ~machines:%d, %d static shards, idle %.0f sim s \
     after wait_ready, seed 1\", \"minor_words_per_sim_s\": %.0f, \"wall_s\": %.3f, \
     \"baseline\": {\"minor_words_per_sim_s\": %.0f, \"wall_s\": %.3f}, \"reduction\": %.2f, \
     \"gate\": \"reduction >= %.1f (wall time not gated)\"}\n"
    wide_machines
    (List.length (wide_config ()).Config.shard_boundaries + 1)
    wide_seconds wide.wide_words_per_sim_s wide.wide_wall_s baseline_wide_minor_words_per_sim_s
    baseline_wide_wall_s wide_reduction wide_min_reduction;
  Printf.fprintf oc "}\n";
  close_out oc;
  Printf.printf "wrote BENCH_engine.json\n%!"

let run ?(smoke = false) () =
  Bench_util.header "Engine cost: events and allocation per simulated second (swarm seeds)";
  let samples = List.map measure seeds in
  let sum f = List.fold_left (fun acc s -> acc +. f s) 0.0 samples in
  let events = sum (fun s -> float_of_int s.events) in
  let sim_s = sum (fun s -> s.sim_s) in
  let events_per_sim_s = events /. sim_s in
  let words_per_event = sum (fun s -> s.minor_words) /. events in
  let words_per_sim_s = sum (fun s -> s.minor_words) /. sim_s in
  let wall_s = sum (fun s -> s.wall_s) in
  List.iter
    (fun s ->
      Printf.printf "seed %Ld: %9d events over %6.1f sim s  (%8.0f /sim s, %5.1f words/event, %.2f s wall)\n"
        s.seed s.events s.sim_s
        (float_of_int s.events /. s.sim_s)
        (s.minor_words /. float_of_int s.events)
        s.wall_s)
    samples;
  let reduction = baseline_events_per_sim_s /. events_per_sim_s in
  Printf.printf "events/sim s: %.0f (baseline %.0f, %.2fx fewer)\n" events_per_sim_s
    baseline_events_per_sim_s reduction;
  Printf.printf "minor words/event: %.1f (baseline %.1f)\n" words_per_event
    baseline_minor_words_per_event;
  Printf.printf "minor words/sim s: %.0f (baseline %.0f)\n" words_per_sim_s
    baseline_minor_words_per_sim_s;
  Printf.printf "wall: %.2f s (baseline %.2f s, not gated)\n" wall_s baseline_wall_s;
  let wide = measure_wide () in
  let wide_reduction = baseline_wide_minor_words_per_sim_s /. wide.wide_words_per_sim_s in
  Printf.printf "wide cluster: %.0f minor words/sim s (baseline %.0f, %.2fx fewer), %.3f s wall (baseline %.3f s, not gated)\n"
    wide.wide_words_per_sim_s baseline_wide_minor_words_per_sim_s wide_reduction wide.wide_wall_s
    baseline_wide_wall_s;
  write_json ~smoke samples ~events_per_sim_s ~words_per_event ~words_per_sim_s ~wall_s
    ~reduction ~wide ~wide_reduction;
  if reduction < 2.0 then
    failwith
      (Printf.sprintf
         "engine cost regressed: %.0f events/sim s is only %.2fx below the %.0f baseline (need 2x)"
         events_per_sim_s reduction baseline_events_per_sim_s);
  if wide_reduction < wide_min_reduction then
    failwith
      (Printf.sprintf
         "metrics-plane allocation regressed: %.0f minor words/sim s on the wide cluster is only \
          %.2fx below the %.0f baseline (need %.1fx)"
         wide.wide_words_per_sim_s wide_reduction baseline_wide_minor_words_per_sim_s
         wide_min_reduction)

