(* The pipelined proxy commit path (overlapping in-flight batches):

   - qcheck property: for a generated workload of concurrent blind-write
     bursts plus a deterministic conflict gadget, pipeline depths 1 and 4
     both yield exactly the outcome every serial schedule gives — each
     burst write commits, the gadget's loser fails, and the final storage
     contents hold every burst key plus the gadget's winning write;
   - buggify reorder regression: with `proxy_slow_commit` and
     `tlog_slow_sync` active, batch completion is reordered mid-pipeline,
     yet Seq_report traces stay LSN-ordered, the proxy KCV stays monotone,
     and every transaction gets exactly one reply;
   - mid-pipeline push failure: a LogServer killed while several batches
     are in flight must fail the epoch — outcomes in submission order are
     a prefix of successes followed only by failures, with at least one
     `Commit_unknown_result` (a batch whose durability the client cannot
     know). *)

open Fdb_sim
open Fdb_core
open Future.Syntax

let with_cluster ?(seed = 11L) ?(buggify = false) ?(config = Config.test_small)
    body =
  Engine.run ~seed ~max_time:1e5 ~buggify (fun () ->
      let cluster = Cluster.create ~config () in
      let* () = Cluster.wait_ready cluster in
      body cluster)

let pipelined ~depth ~batch =
  { Config.test_small with Config.commit_pipeline_depth = depth; max_commit_batch = batch }

(* ---------- outcomes against a serial-schedule model (qcheck) ---------- *)

type outcome = Committed | Failed of string

let outcome_of_exn = function
  | Error.Fdb e -> Failed (Error.to_string e)
  | e -> Failed (Printexc.to_string e)

let key burst i = Printf.sprintf "cp/%02d/%03d" burst i
let value v = Printf.sprintf "v%05d" v

(* Run one generated workload: bursts of concurrent blind writes to
   pairwise-distinct keys (every one must commit; concurrency exercises
   the pipeline), then a read-write conflict gadget whose outcome is
   schedule-independent: t1 snapshots "cp/gadget", t2 overwrites it and
   commits, then t1 writes it — t1 must always lose. Returns the outcome
   list (submission order) and the full final contents of the test
   keyspace. *)
let run_workload ~depth ~seed (bursts : (int list) list) =
  with_cluster ~seed ~config:(pipelined ~depth ~batch:4) (fun cluster ->
      let db = Cluster.client cluster ~name:"equiv" in
      let burst_outcomes b ops =
        let futs =
          List.mapi
            (fun i v ->
              let tx = Client.begin_tx db in
              Client.set tx (key b i) (value v);
              Future.catch
                (fun () ->
                  let* (_ : Types.version) = Client.commit tx in
                  Future.return Committed)
                (fun e -> Future.return (outcome_of_exn e)))
            ops
        in
        Future.all futs
      in
      let rec go b acc = function
        | [] -> Future.return (List.rev acc)
        | ops :: rest ->
            let* outs = burst_outcomes b ops in
            go (b + 1) (outs :: acc) rest
      in
      let* burst_outs = go 0 [] bursts in
      (* Conflict gadget. *)
      let t1 = Client.begin_tx db in
      let* (_ : string option) = Client.get t1 "cp/gadget" in
      let t2 = Client.begin_tx db in
      Client.set t2 "cp/gadget" "winner";
      let* (_ : Types.version) = Client.commit t2 in
      Client.set t1 "cp/gadget" "loser";
      let* gadget =
        Future.catch
          (fun () ->
            let* (_ : Types.version) = Client.commit t1 in
            Future.return Committed)
          (fun e -> Future.return (outcome_of_exn e))
      in
      (* Let storage drain the log, then read the final state back. *)
      let* () = Engine.sleep 1.0 in
      let* final =
        Client.run db (fun tx ->
            Client.range_all tx
              (Range_query.keys ~limit:10_000 ~from:"cp/" ~until:"cp0" ()))
      in
      Future.return (List.concat burst_outs @ [ gadget ], final))

let gen_bursts =
  QCheck.Gen.(
    list_size (int_range 1 3)
      (list_size (int_range 1 10) (int_range 0 99_999)))

(* The answer no schedule may change: every burst write commits, the
   gadget's t1 fails with [Not_committed], and the keyspace holds each
   burst key with its value plus the gadget's winning write. *)
let model bursts =
  let outcomes =
    List.concat_map (List.map (fun _ -> Committed)) bursts
    @ [ Failed (Error.to_string Error.Not_committed) ]
  in
  let writes =
    List.concat
      (List.mapi (fun b ops -> List.mapi (fun i v -> (key b i, value v)) ops) bursts)
  in
  (outcomes, List.sort compare (("cp/gadget", "winner") :: writes))

let qcheck_model =
  QCheck.Test.make
    ~name:"pipelined commits match serial-schedule model at depths 1 and 4"
    ~count:4 (QCheck.make gen_bursts)
    (fun bursts ->
      let expected_outcomes, expected_final = model bursts in
      List.for_all
        (fun depth ->
          let outcomes, final = run_workload ~depth ~seed:17L bursts in
          if outcomes <> expected_outcomes then begin
            Printf.printf "depth %d: outcomes differ from the model (%d vs %d)\n"
              depth (List.length outcomes) (List.length expected_outcomes);
            false
          end
          else if final <> expected_final then begin
            Printf.printf "depth %d: final rows differ from the model (%d vs %d)\n"
              depth (List.length final) (List.length expected_final);
            false
          end
          else true)
        [ 1; 4 ])

(* ---------- buggify reorder regression ---------- *)

let int64_nondecreasing l =
  let rec go = function
    | a :: (b :: _ as tl) -> if Int64.compare a b <= 0 then go tl else false
    | _ -> true
  in
  go l

let trace_int64s name field =
  List.filter_map
    (fun (e : Trace.event) ->
      if e.Trace.te_name = name then
        Option.map Int64.of_string (List.assoc_opt field e.Trace.te_fields)
      else None)
    (Trace.events ())

let test_buggify_reorder_keeps_order () =
  (* Depth 4, tiny batches, buggify on: `proxy_slow_commit` stalls random
     batches so later ones overtake them at the resolver and the logs
     (parking), and `tlog_slow_sync` shuffles durability timing. The
     in-order completion stage must still deliver Seq_reports in LSN order
     and keep the KCV monotone. Seed chosen so the slow-commit point
     actually fires. *)
  let replied, reports, done_lsns, done_kcvs, parked, slow_fired =
    with_cluster ~seed:9L ~buggify:true ~config:(pipelined ~depth:4 ~batch:4) (fun cluster ->
        let db = Cluster.client cluster ~name:"reorder" in
        let n = 120 in
        let futs =
          List.init n (fun i ->
              let tx = Client.begin_tx db in
              Client.set tx (Printf.sprintf "ro/%03d" i) (string_of_int i);
              Future.catch
                (fun () ->
                  let* (_ : Types.version) = Client.commit tx in
                  Future.return true)
                (fun _ -> Future.return true))
        in
        let* replies = Future.all futs in
        Future.return
          ( List.length (List.filter Fun.id replies),
            trace_int64s "seq_report" "lsn",
            trace_int64s "proxy_commit_done" "lsn",
            trace_int64s "proxy_commit_done" "kcv",
            Trace.count "resolver_park" + Trace.count "tlog_park",
            List.mem "proxy_slow_commit" (Buggify.points_hit ()) ))
  in
  Alcotest.(check int) "every transaction got exactly one reply" 120 replied;
  Alcotest.(check bool) "slow-commit buggify point fired" true slow_fired;
  Alcotest.(check bool)
    (Printf.sprintf "batches overlapped (%d parked out-of-order arrivals)" parked)
    true (parked > 0);
  Alcotest.(check bool)
    (Printf.sprintf "Seq_reports LSN-ordered (%d reports)" (List.length reports))
    true
    (int64_nondecreasing reports);
  Alcotest.(check bool) "commit-done LSNs in order" true
    (int64_nondecreasing done_lsns);
  Alcotest.(check bool) "proxy KCV monotone" true (int64_nondecreasing done_kcvs)

(* ---------- mid-pipeline push failure ---------- *)

let find_processes cluster prefix =
  Array.to_list (Cluster.worker_machines cluster)
  |> List.concat_map (fun m -> m.Process.machine_processes)
  |> List.filter (fun p ->
         p.Process.alive
         && String.length p.Process.name >= String.length prefix
         && String.sub p.Process.name 0 (String.length prefix) = prefix)

let test_push_failure_fails_later_batches () =
  (* Several small batches in flight when a LogServer dies: its pushes
     stop acking, the epoch must end, and no batch later than the first
     failed one may report success — clients see a prefix of commits,
     then only failures, at least one of them Commit_unknown_result
     (in-flight batches whose durability is undecided). *)
  let outcomes =
    with_cluster ~seed:21L ~config:(pipelined ~depth:4 ~batch:2) (fun cluster ->
        let db = Cluster.client cluster ~name:"pushfail" in
        (* A first committed marker proves the cluster worked. *)
        let* (_ : Types.version) =
          let tx = Client.begin_tx db in
          Client.set tx "pf/marker" "1";
          Client.commit tx
        in
        let outcomes : (int * outcome) list ref = ref [] in
        let submit i =
          let tx = Client.begin_tx db in
          Client.set tx (Printf.sprintf "pf/%03d" i) (string_of_int i);
          Future.catch
            (fun () ->
              let* (_ : Types.version) = Client.commit tx in
              outcomes := (i, Committed) :: !outcomes;
              Future.return ())
            (fun e ->
              outcomes := (i, outcome_of_exn e) :: !outcomes;
              Future.return ())
        in
        (* Steady drip of commits, one per half batch interval, so
           batches form continuously; kill a log mid-stream. *)
        let n = 60 in
        let rec drip i acc =
          if i = n then Future.return acc
          else begin
            if i = 20 then
              (match find_processes cluster "tlog" with
              | p :: _ -> Engine.kill p
              | [] -> Alcotest.fail "no tlog process found");
            let f = submit i in
            let* () = Engine.sleep (Params.commit_batch_interval /. 2.0) in
            drip (i + 1) (f :: acc)
          end
        in
        let* futs = drip 0 [] in
        let* () = Future.all_unit futs in
        Future.return (List.rev !outcomes))
  in
  (* Evaluate in submission order. *)
  let by_submission =
    List.sort (fun (a, _) (b, _) -> compare a b) outcomes
  in
  let states = List.map snd by_submission in
  let committed = List.filter (fun o -> o = Committed) states in
  let unknown =
    List.filter
      (fun o -> o = Failed (Error.to_string Error.Commit_unknown_result))
      states
  in
  Alcotest.(check bool)
    (Printf.sprintf "some commits succeeded before the kill (%d)"
       (List.length committed))
    true
    (List.length committed > 0);
  Alcotest.(check bool)
    (Printf.sprintf "at least one Commit_unknown_result (%d)"
       (List.length unknown))
    true
    (List.length unknown > 0);
  (* Prefix property: after the first failure no later submission may have
     committed — a failed batch fails every later in-flight batch. *)
  let rec prefix_ok seen_failure = function
    | [] -> true
    | Committed :: tl -> if seen_failure then false else prefix_ok false tl
    | Failed _ :: tl -> prefix_ok true tl
  in
  Alcotest.(check bool) "successes form a prefix of the submission order" true
    (prefix_ok false states)

(* ---------- obs: pipeline metrics exist ---------- *)

let test_pipeline_metrics_registered () =
  let inflight, queue_depth, resolve_n, logpush_n, commit_n =
    with_cluster ~seed:13L ~config:(pipelined ~depth:4 ~batch:8) (fun cluster ->
        let db = Cluster.client cluster ~name:"metrics" in
        let* () =
          Future.all_unit
            (List.init 40 (fun i ->
                 let tx = Client.begin_tx db in
                 Client.set tx (Printf.sprintf "m/%02d" i) "x";
                 let* (_ : Types.version) = Client.commit tx in
                 Future.return ()))
        in
        let reg = (Cluster.context cluster).Context.metrics in
        let module R = Fdb_obs.Registry in
        let hist_count name =
          List.fold_left
            (fun acc (_, h) -> acc + Fdb_util.Histogram.count h)
            0
            (R.histograms reg ~role:R.Proxy name)
        in
        Future.return
          ( R.gauges reg ~role:R.Proxy "commit_inflight_batches",
            R.gauges reg ~role:R.Proxy "commit_queue_depth",
            hist_count "commit_resolve_latency",
            hist_count "commit_logpush_latency",
            hist_count "commit_latency" ))
  in
  Alcotest.(check bool) "commit_inflight_batches gauge registered" true
    (inflight <> []);
  Alcotest.(check bool) "commit_queue_depth gauge registered" true
    (queue_depth <> []);
  Alcotest.(check bool) "per-stage resolve timer recorded" true (resolve_n > 0);
  Alcotest.(check bool) "per-stage logpush timer recorded" true (logpush_n > 0);
  Alcotest.(check bool) "commit_latency still recorded" true (commit_n > 0)

let suite =
  [
    QCheck_alcotest.to_alcotest qcheck_model;
    Alcotest.test_case "buggify reorder keeps LSN order" `Slow
      test_buggify_reorder_keeps_order;
    Alcotest.test_case "push failure fails later in-flight batches" `Slow
      test_push_failure_fails_later_batches;
    Alcotest.test_case "pipeline metrics registered" `Quick
      test_pipeline_metrics_registered;
  ]
