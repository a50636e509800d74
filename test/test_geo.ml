(* Geo-replication (paper §3), in the synchronous-replication configuration:
   machines interleave across three regions (the third hosting the
   tie-breaking coordinators, as the paper suggests for some deployments),
   log and storage teams span regions, and when a whole region dies the
   §2.4.4 recovery performs an automatic failover onto the survivors with
   no acknowledged data lost. *)

open Fdb_sim
open Fdb_core
open Future.Syntax

let geo_config =
  {
    Config.default with
    Config.machines = 9;
    coordinators = 5;
    proxies = 2;
    resolvers = 1;
    log_servers = 3;
    storage_per_machine = 1;
    log_replication = 3;
    storage_replication = 3;
    regions = 3;
    racks = 9;
  }

let region_machines cluster dc =
  Array.to_list (Cluster.worker_machines cluster)
  |> List.filter (fun m -> m.Process.dc = dc)

let test_commit_pays_wan_once () =
  (* Synchronous cross-region replication: commits must wait for remote log
     replicas, so commit latency is at least one WAN round trip; reads stay
     local and fast. *)
  let commit_lat, read_lat =
    Engine.run ~seed:31L ~max_time:1e5 (fun () ->
        let cluster = Cluster.create ~config:geo_config () in
        let* () = Cluster.wait_ready cluster in
        let db = Cluster.client cluster ~name:"geo" in
        let* _ = Client.run db (fun tx -> Client.set tx "warm" "up"; Future.return ()) in
        let t0 = Engine.now () in
        let* _ =
          Client.run db (fun tx ->
              Client.set tx "geo/k" "v";
              Future.return ())
        in
        let commit_lat = Engine.now () -. t0 in
        let t1 = Engine.now () in
        let* _ = Client.run db (fun tx -> Client.get tx "geo/k") in
        let read_lat = Engine.now () -. t1 in
        Future.return (commit_lat, read_lat))
  in
  Alcotest.(check bool) "commit crosses the WAN" true (commit_lat >= 0.03);
  Alcotest.(check bool) "commit is not many WAN trips" true (commit_lat < 0.5);
  Alcotest.(check bool) "read can stay local-ish" true (read_lat < commit_lat)

let test_region_failover () =
  let r =
    Engine.run ~seed:32L ~max_time:1e5 (fun () ->
        let cluster = Cluster.create ~config:geo_config () in
        let* () = Cluster.wait_ready cluster in
        let db = Cluster.client cluster ~name:"geo" in
        let* _ =
          Client.run db (fun tx ->
              for i = 0 to 29 do
                Client.set tx (Printf.sprintf "geo/%02d" i) "before"
              done;
              Future.return ())
        in
        (* The primary region dies entirely — and stays dead. *)
        List.iter Fault_injector.kill_machine (region_machines cluster "dc1");
        let* () = Cluster.wait_ready ~timeout:90.0 cluster in
        let* rows =
          Client.run db (fun tx ->
              Client.range_all tx
                (Range_query.keys ~limit:100 ~from:"geo/" ~until:"geo0" ()))
        in
        let* _ =
          Client.run db (fun tx ->
              Client.set tx "geo/after" "survived";
              Future.return ())
        in
        let* after = Client.run db (fun tx -> Client.get tx "geo/after") in
        (* Region heals: the cluster reabsorbs it and replicas reconverge. *)
        List.iter
          (fun m -> Fdb_sim.Fault_injector.reboot_machine ~delay:0.5 m)
          (region_machines cluster "dc1");
        let* () = Engine.sleep 20.0 in
        let* consistency = Fdb_workloads.Consistency_check.check cluster in
        Future.return (List.length rows, after, consistency))
  in
  let rows, after, consistency = r in
  Alcotest.(check int) "no acknowledged write lost in failover" 30 rows;
  Alcotest.(check (option string)) "writes work after failover" (Some "survived") after;
  (match consistency with
  | Ok () -> ()
  | Error m -> Alcotest.fail ("replicas diverged after region heal: " ^ m))

let test_storage_teams_span_regions () =
  Engine.run ~seed:33L ~max_time:1e4 (fun () ->
      let cluster = Cluster.create ~config:geo_config () in
      let ctx = Cluster.context cluster in
      let teams = Shard_map.tag_teams ctx.Context.shard_map in
      let dc_of ss = Config.region_of_machine geo_config (ss / geo_config.Config.storage_per_machine) in
      Array.iter
        (fun team ->
          let dcs = List.sort_uniq compare (List.map dc_of team) in
          Alcotest.(check bool) "team spans >= 2 regions" true (List.length dcs >= 2))
        teams;
      Future.return ())

let suite =
  [
    Alcotest.test_case "commit pays WAN once" `Quick test_commit_pays_wan_once;
    Alcotest.test_case "region failover" `Quick test_region_failover;
    Alcotest.test_case "teams span regions" `Quick test_storage_teams_span_regions;
  ]
