(* Ablations of the design choices DESIGN.md calls out — not paper figures,
   but the paper argues for each choice and these show it holds here:
   - transaction batching (§2.6): batching interval vs commit throughput;
   - log replication degree (§2.5): k = f+1 replicas vs write throughput;
   - resolver partitioning (§2.4.2): resolver count vs mixed throughput. *)

open Fdb_sim
open Fdb_core
open Future.Syntax
module Rng = Fdb_util.Det_rng

let universe = 8_000
let machines = 8
let scale = 20.0

let base_config () =
  let c = { (Config.scaled ~machines) with Config.storage_per_machine = 4 } in
  Bench_util.shard_evenly c ~universe ~key_of:Bench_util.key

let write_txn db rng =
  Client.run db ~max_attempts:4 (fun tx ->
      let bytes = ref 0 in
      for _ = 1 to 20 do
        let k = Bench_util.rand_key rng universe in
        let v = Bench_util.rand_value rng in
        bytes := !bytes + String.length k + String.length v;
        Client.set tx k v
      done;
      Future.return (20, !bytes))

(* Resolver-bound load: blind single-key writes with explicit read conflict
   ranges, so each transaction costs the resolvers a read check and a write
   note while staying cheap everywhere else. *)
let point db rng =
  Client.run db ~max_attempts:4 (fun tx ->
      (* A real snapshot version: conflict ranges against version 0 would
         collide with the entire preload history. *)
      let* _rv = Client.get_read_version tx in
      let k = Bench_util.rand_key rng universe in
      Client.add_read_conflict_range tx ~from:k ~until:(Types.next_key k);
      Client.set tx (Bench_util.rand_key rng universe) "v";
      Future.return (1, 80))

let measure config ~txn =
  Bench_util.with_sim ~cpu_scale:scale config (fun cluster ->
      let* () = Bench_util.preload cluster ~universe in
      Bench_util.closed_loop cluster ~clients:(8 * machines) ~warmup:0.3 ~measure:0.4 ~txn)

let run () =
  Bench_util.header "Ablation: transaction batching (§2.6), max batch size";
  Bench_util.row "%-14s %12s\n" "batch cap" "txns/s (1-key writes)";
  List.iter
    (fun cap ->
      let config = { (base_config ()) with Config.max_commit_batch = cap } in
      let txns, _, _, _ =
        Bench_util.with_sim ~cpu_scale:scale config (fun cluster ->
            let* () = Bench_util.preload cluster ~universe in
            Bench_util.closed_loop cluster ~clients:(40 * machines) ~warmup:0.3
              ~measure:0.4 ~txn:point)
      in
      Bench_util.row "%-14d %12.0f\n" cap txns)
    [ 1; 8; 64; 512 ];

  Bench_util.header "Ablation: log replication degree (§2.5: k = f+1)";
  Bench_util.row "%-14s %12s %12s\n" "replicas" "txns/s" "MBps";
  List.iter
    (fun k ->
      let config = { (base_config ()) with Config.log_replication = k } in
      let txns, _, bytes, _ = measure config ~txn:write_txn in
      Bench_util.row "%-14d %12.0f %12.2f\n" k txns (bytes /. 1e6))
    [ 1; 2; 3 ];

  Bench_util.header "Ablation: resolver count (§2.4.2 range partitioning)";
  Bench_util.row "%-14s %12s\n" "resolvers" "txns/s";
  List.iter
    (fun r ->
      let config = { (base_config ()) with Config.resolvers = r } in
      let txns, _, _, _ =
        Bench_util.with_sim ~cpu_scale:scale config (fun cluster ->
            let* () = Bench_util.preload cluster ~universe in
            Bench_util.closed_loop cluster ~clients:(40 * machines) ~warmup:0.3
              ~measure:0.4 ~txn:point)
      in
      Bench_util.row "%-14d %12.0f\n" r txns)
    [ 1; 2; 4 ];
  Bench_util.row
    "(flat here means the offered load sits below single-resolver capacity —\n      partitioning pays off only past ~1/resolver_per_txn TPS, §2.4.2)\n"
