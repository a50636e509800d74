(* Figure 8: scalability test. 4..24 machines, saturated closed-loop load:
   (a) blind-write and range-read throughput (MBps) with 100 and 500
       operations per transaction,
   (b) 90/10 read-write operations per second.
   Run at 1/20 scale (Params.cpu_scale = 20); shapes match the paper:
   writes scale ~6x from 4 to 24 machines (LogServers saturate), reads
   scale with StorageServers, larger transactions help throughput. *)

open Fdb_sim
open Fdb_core
open Future.Syntax
module Rng = Fdb_util.Det_rng

let universe = 20_000
let scale = 20.0

let blind_write_txn n db rng =
  Client.run db ~max_attempts:4 (fun tx ->
      let bytes = ref 0 in
      for _ = 1 to n do
        let k = Bench_util.rand_key rng universe in
        let v = Bench_util.rand_value rng in
        bytes := !bytes + String.length k + String.length v;
        Client.set tx k v
      done;
      Future.return (n, !bytes))

let range_read_txn n db rng =
  Client.run db ~max_attempts:4 (fun tx ->
      let start = Rng.int rng (universe - n) in
      let* rows =
        Client.range_all tx
          (Range_query.keys ~limit:n ~from:(Bench_util.key start)
             ~until:(Bench_util.key (start + n)) ())
      in
      let bytes =
        List.fold_left (fun a (k, v) -> a + String.length k + String.length v) 0 rows
      in
      Future.return (List.length rows, bytes))

let mix_txn db rng =
  if Rng.chance rng 0.8 then
    (* point reads: fetch 10 random keys *)
    Client.run db ~max_attempts:4 (fun tx ->
        let rec go i bytes =
          if i = 10 then Future.return (10, bytes)
          else
            let k = Bench_util.rand_key rng universe in
            let* v = Client.get tx k in
            go (i + 1) (bytes + String.length k + String.length (Option.value v ~default:""))
        in
        go 0 0)
  else
    (* point writes: fetch 5 and update 5 *)
    Client.run db ~max_attempts:4 (fun tx ->
        let rec go i bytes =
          if i = 5 then Future.return bytes
          else
            let k = Bench_util.rand_key rng universe in
            let* v = Client.get tx k in
            go (i + 1) (bytes + String.length k + String.length (Option.value v ~default:""))
        in
        let* bytes = go 0 0 in
        let bytes = ref bytes in
        for _ = 1 to 5 do
          let k = Bench_util.rand_key rng universe in
          let v = Bench_util.rand_value rng in
          bytes := !bytes + String.length k + String.length v;
          Client.set tx k v
        done;
        Future.return (10, !bytes))

let measure_point ?doc_sink ~machines ~txn ~clients_per_machine () =
  let config = Config.scaled ~machines in
  (* Keep simulation cost in check: 4 storage servers per machine instead
     of 14 (documented in EXPERIMENTS.md; shapes unaffected). *)
  let config = { config with Config.storage_per_machine = 4 } in
  let config = Bench_util.shard_evenly config ~universe ~key_of:Bench_util.key in
  Bench_util.with_sim ~cpu_scale:scale config (fun cluster ->
      let* () = Bench_util.preload cluster ~universe in
      let* r =
        Bench_util.closed_loop cluster
          ~clients:(clients_per_machine * machines)
          ~warmup:0.3 ~measure:0.4 ~txn
      in
      Option.iter (fun sink -> sink := Some (Cluster.status_doc cluster)) doc_sink;
      Future.return r)

let mbps bytes_per_sec = bytes_per_sec /. 1e6

let run ~machine_counts () =
  Bench_util.header "Figure 8a: write/read throughput scaling (MBps, 1/20 scale)";
  Bench_util.row "%-9s %12s %12s %12s %12s\n" "machines" "Write(100)" "Write(500)"
    "Read(100)" "Read(500)";
  let fig8a = ref [] in
  List.iter
    (fun machines ->
      let _, _, w100, _ =
        measure_point ~machines ~txn:(blind_write_txn 100) ~clients_per_machine:10 ()
      in
      let _, _, w500, _ =
        measure_point ~machines ~txn:(blind_write_txn 500) ~clients_per_machine:6 ()
      in
      let _, _, r100, _ =
        measure_point ~machines ~txn:(range_read_txn 100) ~clients_per_machine:14 ()
      in
      let _, _, r500, _ =
        measure_point ~machines ~txn:(range_read_txn 500) ~clients_per_machine:8 ()
      in
      fig8a := (machines, w100, w500, r100, r500) :: !fig8a;
      Bench_util.row "%-9d %12.1f %12.1f %12.1f %12.1f\n" machines (mbps w100) (mbps w500)
        (mbps r100) (mbps r500))
    machine_counts;
  Bench_util.header "Figure 8b: 90/10 read-write operations per second (1/20 scale)";
  Bench_util.row "%-9s %14s\n" "machines" "ops/s";
  let fig8b = ref [] in
  let last_doc = ref None in
  List.iter
    (fun machines ->
      let _, ops, _, _ =
        measure_point ~doc_sink:last_doc ~machines ~txn:mix_txn ~clients_per_machine:14 ()
      in
      fig8b := (machines, ops) :: !fig8b;
      Bench_util.row "%-9d %14.0f\n" machines ops)
    machine_counts;
  (* Scaling factors, the paper's headline shape. *)
  (match (List.rev !fig8a, List.rev !fig8b) with
  | ( (m0, w0, w0', r0, r0') :: _ :: _,
      (mb0, o0) :: _ :: _ ) ->
      let mN, wN, wN', rN, rN' = List.hd !fig8a in
      let mbN, oN = List.hd !fig8b in
      Bench_util.row
        "\nScaling %dx->%dx machines: Write(100) %.2fx (paper 5.84x), Write(500) %.2fx \
         (paper 6.40x),\n  Read(100) %.2fx (paper 3.43x), Read(500) %.2fx (paper 4.32x)\n"
        m0 mN (wN /. w0) (wN' /. w0') (rN /. r0) (rN' /. r0');
      Bench_util.row "Scaling %dx->%dx machines: 90/10 ops %.2fx (paper 4.69x)\n" mb0 mbN
        (oN /. o0)
  | _ -> ());
  (* Server-side percentile view of the largest 90/10 run. *)
  Option.iter Bench_util.print_percentiles !last_doc
