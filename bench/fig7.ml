(* Figure 7: a month of production traffic with a diurnal pattern.
   (a) read / write / keys-read rates per hour;
   (b) average and 99.9-percentile client read and commit latencies.
   We compress the month: each simulated "hour" is 2 simulated seconds
   (672 "hours" would be 22 min of sim, so we run 3 "days" = 72 buckets),
   driving a sinusoidal open-loop load whose read:write:keys-read mix
   matches the paper's averages (390.4K reads : 138.5K writes : 1.467M
   keys — i.e. ~2.8 reads per write, ~3.8 keys per read via range reads). *)

open Fdb_sim
open Fdb_core
open Future.Syntax
module Rng = Fdb_util.Det_rng
module Histogram = Fdb_util.Histogram

let universe = 10_000
let hour = 2.0 (* simulated seconds per displayed hour *)
let hours = 72

type bucket = { mutable reads : int; mutable writes : int; mutable keys : int }

let run () =
  Bench_util.header "Figure 7: diurnal production traffic (3 compressed 'days')";
  let buckets = Array.init hours (fun _ -> { reads = 0; writes = 0; keys = 0 }) in
  let read_lat = Histogram.create () and commit_lat = Histogram.create () in
  Bench_util.with_sim ~cpu_scale:5.0
    (Bench_util.shard_evenly Config.default ~universe ~key_of:Bench_util.key)
    (fun cluster ->
      let* () = Bench_util.preload cluster ~universe in
      let rng = Engine.fork_rng () in
      let db = Array.init 8 (fun i -> Cluster.client cluster ~name:(Printf.sprintf "prod-%d" i)) in
      let t_start = Engine.now () in
      let bucket_of_now () =
        let i = int_of_float ((Engine.now () -. t_start) /. hour) in
        if i < 0 then 0 else if i >= hours then hours - 1 else i
      in
      (* Offered transaction rate follows a day/night sine. *)
      let rate_now () =
        let day_pos = Float.rem ((Engine.now () -. t_start) /. (hour *. 24.0)) 1.0 in
        let base = 260.0 in
        base *. (1.0 +. (0.6 *. sin (2.0 *. Float.pi *. day_pos)))
      in
      let one_txn () =
        let dbi = db.(Rng.int rng (Array.length db)) in
        if Rng.chance rng 0.74 then
          (* read transaction: one range read of ~4 keys *)
          Future.catch
            (fun () ->
              let t0 = Engine.now () in
              let* rows =
                Client.run dbi ~max_attempts:2 (fun tx ->
                    let s = Rng.int rng (universe - 8) in
                    Client.range_all tx
                      (Range_query.keys ~limit:4 ~from:(Bench_util.key s)
                         ~until:(Bench_util.key (s + 8)) ()))
              in
              Histogram.add read_lat (Engine.now () -. t0);
              let b = buckets.(bucket_of_now ()) in
              b.reads <- b.reads + 1;
              b.keys <- b.keys + List.length rows;
              Future.return ())
            (fun _ -> Future.return ())
        else
          Future.catch
            (fun () ->
              let t0 = Engine.now () in
              let* _ =
                Client.run dbi ~max_attempts:2 (fun tx ->
                    for _ = 1 to 2 do
                      Client.set tx (Bench_util.rand_key rng universe)
                        (Bench_util.rand_value rng)
                    done;
                    Future.return ())
              in
              Histogram.add commit_lat (Engine.now () -. t0);
              let b = buckets.(bucket_of_now ()) in
              b.writes <- b.writes + 2;
              Future.return ())
            (fun _ -> Future.return ())
      in
      let stop_at = t_start +. (float_of_int hours *. hour) in
      let rec arrivals () =
        if Engine.now () >= stop_at then Future.return ()
        else
          let* () = Engine.sleep (Rng.exponential rng (1.0 /. rate_now ())) in
          Engine.spawn "prod-txn" one_txn;
          arrivals ()
      in
      let* () = arrivals () in
      Engine.sleep 1.0);
  Bench_util.row "%-6s %10s %10s %10s\n" "hour" "reads/s" "writes/s" "keys/s";
  Array.iteri
    (fun i b ->
      if i mod 4 = 0 then
        Bench_util.row "%-6d %10.0f %10.0f %10.0f\n" i
          (float_of_int b.reads /. hour)
          (float_of_int b.writes /. hour)
          (float_of_int b.keys /. hour))
    buckets;
  let p h q = Histogram.percentile h q *. 1e3 in
  Bench_util.row
    "\nFigure 7b latencies: reads avg %.2f ms p99.9 %.2f ms (paper ~1/19); commits avg \
     %.2f ms p99.9 %.2f ms (paper ~22/281, WAN-replicated)\n"
    (Histogram.mean read_lat *. 1e3)
    (p read_lat 99.9)
    (Histogram.mean commit_lat *. 1e3)
    (p commit_lat 99.9)
