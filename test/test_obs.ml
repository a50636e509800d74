(* Fdb_obs: registry semantics, roll-up aggregation, and the determinism
   oracle — two runs of the same seed must serialize the whole metrics plane
   to identical bytes. *)

open Fdb_sim
open Fdb_core
open Future.Syntax
module Registry = Fdb_obs.Registry
module Rollup = Fdb_obs.Rollup

(* ---------- registry semantics ---------- *)

let test_counter_semantics () =
  let reg = Registry.create () in
  let c1 = Registry.counter reg ~role:Registry.Proxy ~process:1 "commits" in
  let c2 = Registry.counter reg ~role:Registry.Proxy ~process:2 "commits" in
  Registry.incr c1;
  Registry.incr c1 ~by:4;
  Registry.incr c2 ~by:2;
  Alcotest.(check int) "process 1" 5
    (Registry.counter_value reg ~role:Registry.Proxy ~process:1 "commits");
  Alcotest.(check int) "process 2" 2
    (Registry.counter_value reg ~role:Registry.Proxy ~process:2 "commits");
  Alcotest.(check int) "absent is 0" 0
    (Registry.counter_value reg ~role:Registry.Proxy ~process:9 "commits");
  Alcotest.(check int) "summed" 7 (Registry.sum_counter reg ~role:Registry.Proxy "commits");
  (* Re-fetching the handle must alias the same cell, not reset it. *)
  let c1' = Registry.counter reg ~role:Registry.Proxy ~process:1 "commits" in
  Registry.incr c1';
  Alcotest.(check int) "handle aliases cell" 6
    (Registry.counter_value reg ~role:Registry.Proxy ~process:1 "commits")

let test_gauge_and_histogram_semantics () =
  let reg = Registry.create () in
  let g = Registry.gauge reg ~role:Registry.Storage ~process:3 "lag" in
  Alcotest.(check (option (float 0.0))) "gauge starts at 0" (Some 0.0)
    (Registry.gauge_value reg ~role:Registry.Storage ~process:3 "lag");
  Registry.set_gauge g 1.5;
  Registry.set_gauge g 0.25;
  Alcotest.(check (option (float 0.0))) "gauge holds last value" (Some 0.25)
    (Registry.gauge_value reg ~role:Registry.Storage ~process:3 "lag");
  Alcotest.(check (option (float 0.0))) "absent gauge is None" None
    (Registry.gauge_value reg ~role:Registry.Storage ~process:4 "lag");
  let h = Registry.histogram reg ~role:Registry.Storage ~process:3 "read_latency" in
  Registry.observe h 0.001;
  Registry.observe h 0.002;
  (match Registry.histograms reg ~role:Registry.Storage "read_latency" with
  | [ (3, hist) ] -> Alcotest.(check int) "samples recorded" 2 (Fdb_util.Histogram.count hist)
  | l -> Alcotest.fail (Printf.sprintf "expected one histogram, got %d" (List.length l)))

let test_kind_mismatch_rejected () =
  let reg = Registry.create () in
  let _ = Registry.counter reg ~role:Registry.Log ~process:1 "pushes" in
  Alcotest.check_raises "counter reused as gauge"
    (Invalid_argument "Fdb_obs: metric is not a gauge: pushes") (fun () ->
      ignore (Registry.gauge reg ~role:Registry.Log ~process:1 "pushes"))

let test_serialize_canonical_order () =
  let reg = Registry.create () in
  (* Insert in scrambled order; serialization must sort role/process/metric. *)
  Registry.incr (Registry.counter reg ~role:Registry.Storage ~process:2 "reads");
  Registry.incr (Registry.counter reg ~role:Registry.Proxy ~process:1 "grv_served");
  Registry.incr (Registry.counter reg ~role:Registry.Storage ~process:1 "reads");
  Registry.incr (Registry.counter reg ~role:Registry.Proxy ~process:1 "commits");
  Alcotest.(check string) "canonical dump"
    "proxy/1/commits 1\nproxy/1/grv_served 1\nproxy/1/reads 0\nstorage/1/reads 1\nstorage/2/reads 1\n"
    (let _ = Registry.counter reg ~role:Registry.Proxy ~process:1 "reads" in
     Registry.serialize reg)

(* ---------- roll-up aggregation ---------- *)

let two_storage_registry () =
  let reg = Registry.create () in
  Registry.incr (Registry.counter reg ~role:Registry.Storage ~process:1 "reads") ~by:10;
  Registry.incr (Registry.counter reg ~role:Registry.Storage ~process:2 "reads") ~by:5;
  Registry.set_gauge (Registry.gauge reg ~role:Registry.Storage ~process:1 "lag") 0.5;
  Registry.set_gauge (Registry.gauge reg ~role:Registry.Storage ~process:2 "lag") 2.0;
  let h1 = Registry.histogram reg ~role:Registry.Storage ~process:1 "read_latency" in
  let h2 = Registry.histogram reg ~role:Registry.Storage ~process:2 "read_latency" in
  List.iter (Registry.observe h1) [ 0.001; 0.002; 0.003 ];
  List.iter (Registry.observe h2) [ 0.004 ];
  reg

let test_rollup_aggregates_per_role () =
  let doc = Rollup.snapshot ~now:12.5 (two_storage_registry ()) in
  Alcotest.(check (float 0.0)) "snapshot time" 12.5 doc.Rollup.d_time;
  match doc.Rollup.d_roles with
  | [ rd ] ->
      Alcotest.(check string) "role" "storage" rd.Rollup.rd_role;
      Alcotest.(check int) "processes" 2 rd.Rollup.rd_processes;
      Alcotest.(check (list (pair string int))) "counters summed" [ ("reads", 15) ]
        rd.Rollup.rd_counters;
      (match rd.Rollup.rd_gauges with
      | [ ("lag", (lo, hi)) ] ->
          Alcotest.(check (float 1e-9)) "gauge min" 0.5 lo;
          Alcotest.(check (float 1e-9)) "gauge max" 2.0 hi
      | _ -> Alcotest.fail "expected one lag gauge");
      (match rd.Rollup.rd_latencies with
      | [ ("read_latency", l) ] ->
          Alcotest.(check int) "merged count" 4 l.Rollup.l_count;
          Alcotest.(check bool) "merged max from other process" true
            (l.Rollup.l_max >= 0.004 *. 0.97)
      | _ -> Alcotest.fail "expected one merged latency")
  | l -> Alcotest.fail (Printf.sprintf "expected one role doc, got %d" (List.length l))

let test_rollup_json_shape () =
  let doc = Rollup.snapshot ~now:1.0 (two_storage_registry ()) in
  let json = Rollup.json_of_doc doc in
  List.iter
    (fun needle ->
      let contains s sub =
        let n = String.length sub in
        let rec go i = i + n <= String.length s && (String.sub s i n = sub || go (i + 1)) in
        go 0
      in
      Alcotest.(check bool) (Printf.sprintf "json contains %s" needle) true
        (contains json needle))
    [
      "{\"time\":1,\"roles\":{\"storage\":{";
      "\"processes\":2";
      "\"counters\":{\"reads\":15}";
      "\"lag\":{\"min\":0.5,\"max\":2}";
      "\"read_latency\":{\"count\":4";
      "\"p99_ms\":";
    ]

(* ---------- the index against the sort-everything reference ---------- *)

(* The reference reads the registry the way it did before the (role,
   metric) index: sort every cell by its key, then filter. It sees only
   the (key, cell) pairs the test registered. *)
module Reference = struct
  module Det_tbl = Fdb_util.Det_tbl
  module Histogram = Fdb_util.Histogram

  let entries cells = List.sort (fun (a, _) (b, _) -> compare a b) cells

  let by_process cells ~role name pick =
    List.filter_map
      (fun ((k : Registry.key), cell) ->
        if k.Registry.k_role = role && k.Registry.k_metric = name then
          Option.map (fun v -> (k.Registry.k_process, v)) (pick cell)
        else None)
      (entries cells)

  let serialize cells =
    String.concat ""
      (List.map
         (fun ((k : Registry.key), cell) ->
           Printf.sprintf "%s/%d/%s %s\n" (Registry.role_name k.Registry.k_role)
             k.Registry.k_process k.Registry.k_metric (Registry.render_cell cell))
         (entries cells))

  let snapshot ~now cells : Rollup.doc =
    let all = entries cells in
    let roles =
      List.filter_map
        (fun role ->
          let procs : (int, unit) Det_tbl.t = Det_tbl.create () in
          let counters : (string, int) Det_tbl.t = Det_tbl.create () in
          let gauges : (string, float * float) Det_tbl.t = Det_tbl.create () in
          let hists : (string, Histogram.t) Det_tbl.t = Det_tbl.create () in
          List.iter
            (fun ((k : Registry.key), cell) ->
              if k.Registry.k_role = role then begin
                Det_tbl.replace procs k.Registry.k_process ();
                let name = k.Registry.k_metric in
                match cell with
                | Registry.Counter_cell r ->
                    let sum = Option.value ~default:0 (Det_tbl.find_opt counters name) in
                    Det_tbl.replace counters name (sum + !r)
                | Registry.Gauge_cell r ->
                    Det_tbl.replace gauges name
                      (match Det_tbl.find_opt gauges name with
                      | Some (lo, hi) -> (Float.min lo !r, Float.max hi !r)
                      | None -> (!r, !r))
                | Registry.Hist_cell h ->
                    Histogram.merge_into ~dst:(Det_tbl.find_or_add hists name Histogram.create) h
              end)
            all;
          if Det_tbl.length procs = 0 then None
          else
            Some
              {
                Rollup.rd_role = Registry.role_name role;
                rd_processes = Det_tbl.length procs;
                rd_counters = Det_tbl.to_sorted_list counters;
                rd_gauges = Det_tbl.to_sorted_list gauges;
                rd_latencies =
                  List.map (fun (n, h) -> (n, Rollup.lat_of_hist h)) (Det_tbl.to_sorted_list hists);
              })
        Registry.all_roles
    in
    { Rollup.d_time = now; d_roles = roles }
end

type obs_op =
  | Register of int * Registry.role * int * string * float (* kind 0..2, role, process, metric, sample *)
  | Read

let metric_pool = [ "a"; "b"; "lat"; "lag"; "shard_size_bytes:00"; "shard_size_bytes:ff" ]

let gen_obs_ops =
  QCheck.Gen.(
    list_size (int_range 1 80)
      (frequency
         [
           ( 5,
             map
               (fun ((kind, role), (process, metric, v)) -> Register (kind, role, process, metric, v))
               (pair
                  (pair (int_range 0 2) (oneofl Registry.all_roles))
                  (triple (int_range 0 9) (oneofl metric_pool) (float_range (-1.0) 5.0))) );
           (1, return Read);
         ]))

let print_obs_ops ops =
  String.concat "; "
    (List.map
       (function
         | Register (kind, role, p, m, v) ->
             Printf.sprintf "reg(%d,%s,%d,%s,%g)" kind (Registry.role_name role) p m v
         | Read -> "read")
       ops)

(* Registrations (all three kinds, any role, process and metric, in random
   order) interleaved with reads: every read must equal the reference,
   so each registration must also drop the cached orders. *)
let qcheck_index_matches_reference =
  QCheck.Test.make ~name:"registry index matches the sort-everything reference" ~count:300
    (QCheck.make ~print:print_obs_ops gen_obs_ops)
    (fun ops ->
      let reg = Registry.create () in
      let cells = ref [] in
      let remember key cell =
        if not (List.mem_assoc key !cells) then cells := (key, cell) :: !cells
      in
      let agree () =
        let cells = !cells in
        let same_hists a b =
          List.length a = List.length b && List.for_all2 (fun (p, h) (q, h') -> p = q && h == h') a b
        in
        List.for_all
          (fun role ->
            List.for_all
              (fun m ->
                let pick_c = function Registry.Counter_cell r -> Some !r | _ -> None in
                let pick_g = function Registry.Gauge_cell r -> Some !r | _ -> None in
                let pick_h = function Registry.Hist_cell h -> Some h | _ -> None in
                let ref_counters = Reference.by_process cells ~role m pick_c in
                Registry.counters reg ~role m = ref_counters
                && Registry.gauges reg ~role m = Reference.by_process cells ~role m pick_g
                && same_hists (Registry.histograms reg ~role m)
                     (Reference.by_process cells ~role m pick_h)
                && Registry.sum_counter reg ~role m
                   = List.fold_left (fun acc (_, v) -> acc + v) 0 ref_counters)
              metric_pool)
          Registry.all_roles
        && List.length (Registry.entries reg) = List.length cells
        && List.for_all2
             (fun (k, c) (k', c') ->
               k = k'
               &&
               match (c, c') with
               | Registry.Counter_cell r, Registry.Counter_cell r' -> r == r'
               | Registry.Gauge_cell r, Registry.Gauge_cell r' -> r == r'
               | Registry.Hist_cell h, Registry.Hist_cell h' -> h == h'
               | _ -> false)
             (Registry.entries reg) (Reference.entries cells)
        && Registry.serialize reg = Reference.serialize cells
        && Rollup.json_of_doc (Rollup.snapshot ~now:1.5 reg)
           = Rollup.json_of_doc (Reference.snapshot ~now:1.5 cells)
      in
      List.for_all
        (function
          | Read -> agree ()
          | Register (kind, role, process, metric, v) ->
              let key = { Registry.k_role = role; k_process = process; k_metric = metric } in
              (* A name already registered as another kind is rejected. *)
              (try
                 match kind with
                 | 0 ->
                     let c = Registry.counter reg ~role ~process metric in
                     Registry.incr c ~by:(int_of_float (v *. 10.0));
                     remember key (Registry.Counter_cell c)
                 | 1 ->
                     let g = Registry.gauge reg ~role ~process metric in
                     Registry.set_gauge g v;
                     remember key (Registry.Gauge_cell g)
                 | _ ->
                     let h = Registry.histogram reg ~role ~process metric in
                     Registry.observe h (v /. 100.0);
                     remember key (Registry.Hist_cell h)
               with Invalid_argument _ -> ());
              true)
        ops
      && agree ())

(* ---------- determinism oracle ---------- *)

(* Boot a full cluster, run a fixed workload, and dump the entire metrics
   plane. Identical seeds must yield byte-identical dumps: the registry is
   fed only from simulated time and deterministic role execution. *)
let metrics_fingerprint seed =
  Engine.run ~seed ~max_time:1e4 (fun () ->
      let cluster = Cluster.create () in
      let* () = Cluster.wait_ready cluster in
      let db = Cluster.client cluster ~name:"det" in
      let rec txn i =
        if i >= 15 then Future.return ()
        else
          let* _ =
            Client.run db (fun tx ->
                Client.set tx (Printf.sprintf "det/%02d" i) (string_of_int i);
                let* _ = Client.get tx "det/00" in
                Future.return ())
          in
          txn (i + 1)
      in
      let* () = txn 0 in
      let* () = Engine.sleep 1.5 in
      let* status = Fdb_workloads.Status.gather cluster in
      let doc = Cluster.status_doc cluster in
      Future.return
        ( Registry.serialize (Cluster.metrics cluster),
          Fdb_workloads.Status.to_json status doc ))

let test_determinism_same_seed () =
  let dump1, json1 = metrics_fingerprint 101L in
  let dump2, json2 = metrics_fingerprint 101L in
  Alcotest.(check string) "registry dumps bit-identical" dump1 dump2;
  Alcotest.(check string) "status json bit-identical" json1 json2;
  Alcotest.(check bool) "dump is non-trivial" true (String.length dump1 > 200)

let suite =
  [
    Alcotest.test_case "counter semantics" `Quick test_counter_semantics;
    Alcotest.test_case "gauge and histogram semantics" `Quick test_gauge_and_histogram_semantics;
    Alcotest.test_case "kind mismatch rejected" `Quick test_kind_mismatch_rejected;
    Alcotest.test_case "serialize canonical order" `Quick test_serialize_canonical_order;
    Alcotest.test_case "rollup aggregates per role" `Quick test_rollup_aggregates_per_role;
    Alcotest.test_case "rollup json shape" `Quick test_rollup_json_shape;
    QCheck_alcotest.to_alcotest qcheck_index_matches_reference;
    Alcotest.test_case "metrics dump deterministic" `Slow test_determinism_same_seed;
  ]
