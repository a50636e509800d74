(* The repository benchmark: one workload per process, driven only through
   the system's public functions. See perfbench/README.md for the
   workloads, the metrics and how each maps to a layer.

   Two clocks. Client latencies, throughput and recovery times are taken in
   simulated time: for a given seed they repeat exactly, and because the
   simulator charges modelled CPU costs (Params), only a protocol or
   scheduling change moves them. Set-up time, wall seconds per simulated
   second, heap size and the kernel ns/op are taken in wall time: they are
   what running the simulator costs, and making OCaml code faster moves
   only them. Wall-clock reads are only ever recorded; the simulation never
   branches on them, and the measured window is a fixed simulated length
   derived from --seconds.

   Usage: fdb_perf.exe --workload W --seed N --seconds S [--trace 0|1]
   [--spans FILE]. The last line of output is "RESULT " followed by one JSON
   object; perfbench/run.py turns it into the benchmark's result line. *)

open Fdb_sim
open Fdb_core
open Future.Syntax
module Rng = Fdb_util.Det_rng
module Registry = Fdb_obs.Registry
module Histogram = Fdb_util.Histogram
module Keygen = Fdb_workloads.Random_ops.Keygen

let wall = Unix.gettimeofday

(* ---------- exact sample sets (sim seconds) ---------- *)

module Samples = struct
  type t = { mutable a : float array; mutable n : int }

  let create () = { a = Array.make 64 0.0; n = 0 }

  let add t v =
    if t.n = Array.length t.a then begin
      let a = Array.make (2 * t.n) 0.0 in
      Array.blit t.a 0 a 0 t.n;
      t.a <- a
    end;
    t.a.(t.n) <- v;
    t.n <- t.n + 1

  let count t = t.n

  (* Nearest-rank percentile of the raw samples; nan when empty. *)
  let pct t p =
    let s = Array.sub t.a 0 t.n in
    Array.sort compare s;
    if t.n = 0 then nan
    else s.(max 0 (min (t.n - 1) (int_of_float (ceil (p /. 100.0 *. float_of_int t.n)) - 1)))
end

let median l =
  let a = Array.of_list l in
  Array.sort compare a;
  a.(Array.length a / 2)

let ratio a b = if b = 0.0 then 0.0 else a /. b

(* ---------- workloads ---------- *)

type kind = Oltp_wide | Commit_hot | Failover

(* One stretch of the open-loop schedule: Poisson arrivals at [rate] txn/s
   for [dur] simulated seconds, then [drain] seconds with no arrivals.
   Steps of one [rung] (the same offered rate, repeated) are pooled when
   the SLO is evaluated. *)
type step = { rung : int; rate : float; dur : float; drain : float }

type spec = {
  kind : kind;
  name : string;
  config : Config.t;
  cpu_scale : float;
  universe : int;  (* preloaded keys, or bank accounts for commit_hot *)
  warmup : step;  (* unmeasured; lets the preload leave the MVCC window *)
  steps : step array;  (* the measured window *)
  fault_step : int;  (* failover: the step during which faults are injected *)
  fault_period : float;
  setup_reps : int;  (* set-ups per run; setup_s is their median *)
  chunk : float;  (* simulated seconds per stretch of wall_s_per_sim_s *)
  latency_rungs : int;  (* the client latency percentiles pool rungs below this *)
}

let slo_commit_p99 = 0.020
let slo_completed_share = 0.95
let txn_deadline = 60.0
let range_len = 4
let initial_balance = 1000
let hot_theta = 0.8
let audit_share = 0.15
let sample_interval = 0.1
let client_handles = 16

let oltp_key i = Tuple.pack [ Tuple.String "oltp"; Tuple.Int (Int64.of_int i) ]
let probe_key i = Tuple.pack [ Tuple.String "probe"; Tuple.Int (Int64.of_int i) ]
let key_of spec i = match spec.kind with Commit_hot -> Fdb_workloads.Bank.account_key i | _ -> oltp_key i

(* Even static shards over the key universe, and one cluster-controller
   candidate: recruitment runs round-robin from the controller's machine,
   so with several candidates the election outcome, which varies by seed,
   would decide which roles share a machine and shift every latency. *)
let bench_config config ~universe ~key_of =
  let shards = max 1 (Config.storage_count config * config.Config.shards_per_storage) in
  {
    config with
    Config.shard_boundaries = List.init (shards - 1) (fun i -> key_of ((i + 1) * universe / shards));
    cc_candidates = 1;
  }

(* The measured window is [seconds] times a per-workload simulated length
   per wall second, fixed here so that on a 2-core x86 container one run
   measures for about [seconds] wall seconds. It is a constant, never a
   measurement, so a seed always simulates the same thing. *)
let spec_of name seconds =
  let s = float_of_int seconds in
  match name with
  | "oltp_wide" ->
      let universe = 40_000 in
      let rate = 60.0 in
      {
        kind = Oltp_wide;
        name;
        config = bench_config (Config.scaled ~machines:12) ~universe ~key_of:oltp_key;
        cpu_scale = 1.0;
        universe;
        warmup = { rung = -1; rate; dur = 6.0; drain = 0.0 };
        steps = [| { rung = 0; rate; dur = 2.5 *. s; drain = 1.0 } |];
        fault_step = -1;
        fault_period = 0.0;
        setup_reps = 3;
        chunk = 5.0;
        latency_rungs = 1;
      }
  | "commit_hot" ->
      let universe = 10_000 in
      let ladder = [| 1000.0; 2000.0; 3000.0; 3500.0; 6000.0 |] in
      let cycles = max 1 (int_of_float (s /. 2.5)) in
      {
        kind = Commit_hot;
        name;
        config =
          bench_config
            { Config.default with Config.proxies = 1; resolvers = 1 }
            ~universe ~key_of:Fdb_workloads.Bank.account_key;
        cpu_scale = 10.0;
        universe;
        warmup = { rung = -1; rate = 1000.0; dur = 2.0; drain = 0.0 };
        steps =
          Array.concat
            (List.init cycles (fun _ -> Array.mapi (fun rung rate -> { rung; rate; dur = 0.5; drain = 0.5 }) ladder));
        fault_step = -1;
        fault_period = 0.0;
        setup_reps = 9;
        chunk = float_of_int (Array.length ladder);
        latency_rungs = Array.length ladder - 1;
      }
  | "failover" ->
      let universe = 5_000 in
      let rate = 100.0 in
      let period = 8.0 in
      let faults = max 2 (int_of_float (s *. 2.0)) in
      {
        kind = Failover;
        name;
        config = bench_config Config.default ~universe ~key_of:oltp_key;
        cpu_scale = 1.0;
        universe;
        warmup = { rung = -1; rate; dur = 2.0; drain = 0.0 };
        steps =
          [| { rung = 0; rate; dur = 20.0; drain = 0.0 };
             { rung = 1; rate; dur = float_of_int faults *. period; drain = 2.0 } |];
        fault_step = 1;
        fault_period = period;
        setup_reps = 9;
        chunk = period;
        latency_rungs = 2;
      }
  | _ -> invalid_arg ("unknown workload: " ^ name)

let rungs spec = 1 + Array.fold_left (fun m s -> max m s.rung) 0 spec.steps
let rung_rate spec r = (List.find (fun s -> s.rung = r) (Array.to_list spec.steps)).rate
let rung_dur spec r = Array.fold_left (fun acc s -> if s.rung = r then acc +. s.dur else acc) 0.0 spec.steps

(* ---------- generated inputs ---------- *)

type op =
  | Mix of { reads : int array; range_from : int; writes : (int * string) array }
      (* §5.2 90/10: 80% read-only (10 reads), 20% 5 reads + 5 writes; every
         transaction also range-reads [range_len] consecutive keys *)
  | Transfer of { src : int; dst : int; amount : int }
  | Audit of { first : int }  (* range read of [range_len] adjacent accounts *)

type arrival = { at : float; step : int; (* -1 = warmup *) rung : int; op : op }

(* The whole open-loop schedule, fixed in advance from the seed alone: both
   sides of a comparison receive identical offered work. *)
let generate spec ~seed =
  let rng = Rng.create (Int64.of_int ((seed * 7919) + 17)) in
  let hot = Keygen.zipfian ~n:spec.universe ~theta:hot_theta in
  (* Hot accounts are scattered over the shards by a fixed stride, the same
     for every seed, so the seed does not decide which servers run hot. *)
  let account () = Keygen.next_rank hot rng * 7919 mod spec.universe in
  let make_op () =
    match spec.kind with
    | Oltp_wide | Failover ->
        let write = Rng.chance rng 0.2 in
        let reads = Array.init (if write then 5 else 10) (fun _ -> Rng.int rng spec.universe) in
        let range_from = Rng.int rng (spec.universe - range_len) in
        let writes =
          if write then Array.init 5 (fun _ -> (Rng.int rng spec.universe, Rng.alphanum rng (8 + Rng.int rng 93)))
          else [||]
        in
        Mix { reads; range_from; writes }
    | Commit_hot ->
        if Rng.chance rng audit_share then Audit { first = min (spec.universe - range_len) (account ()) }
        else
          let src = account () in
          let rec other () = let d = account () in if d = src then other () else d in
          Transfer { src; dst = other (); amount = 1 + Rng.int rng 10 }
  in
  let out = ref [] in
  let t = ref 0.0 in
  let run_step idx st =
    let stop = !t +. st.dur in
    let rec go at =
      let at = at +. Rng.exponential rng (1.0 /. st.rate) in
      if at < stop then begin
        out := { at; step = idx; rung = st.rung; op = make_op () } :: !out;
        go at
      end
    in
    go !t;
    t := stop +. st.drain
  in
  run_step (-1) spec.warmup;
  Array.iteri run_step spec.steps;
  (* Fault schedule: (time offset, reboot delay) per injected fault. *)
  let faults =
    if spec.fault_step < 0 then [||]
    else begin
      let start = spec.warmup.dur +. Array.fold_left (fun acc st -> acc +. st.dur +. st.drain) 0.0
                                        (Array.sub spec.steps 0 spec.fault_step) in
      let n = int_of_float (spec.steps.(spec.fault_step).dur /. spec.fault_period) in
      Array.init n (fun k -> (start +. 1.0 +. (float_of_int k *. spec.fault_period), 0.5 +. Rng.float rng 1.5))
    end
  in
  (Array.of_list (List.rev !out), faults, !t)

let digest arrivals = Digest.to_hex (Digest.string (Marshal.to_string arrivals []))

(* ---------- measurement state ---------- *)

type stats = {
  grv : Samples.t;
  read : Samples.t;
  range : Samples.t;
  commit : Samples.t;
  (* per rung *)
  rung_arrived : int array;
  rung_done : int array;  (* completed by the end of their step's drain *)
  rung_commit : Samples.t array;
  mutable attempted : int;
  mutable completed : int;
  mutable failed : int;
  mutable attempts : int;
  mutable bad_outputs : int;
  mutable user_bytes : int;
  mutable commits_ok : (float * float) list;  (* (start, end), any phase *)
  mutable attempt_errors : float list;  (* times of failed attempts *)
  mutable acked_probes : int list;
  mutable outstanding : int;
  mutable fail_reasons : (string * int) list;
}

let fresh_stats nrungs =
  {
    grv = Samples.create ();
    read = Samples.create ();
    range = Samples.create ();
    commit = Samples.create ();
    rung_arrived = Array.make nrungs 0;
    rung_done = Array.make nrungs 0;
    rung_commit = Array.init nrungs (fun _ -> Samples.create ());
    attempted = 0;
    completed = 0;
    failed = 0;
    attempts = 0;
    bad_outputs = 0;
    user_bytes = 0;
    commits_ok = [];
    attempt_errors = [];
    acked_probes = [];
    outstanding = 0;
    fail_reasons = [];
  }

(* Gauges sampled every [sample_interval] of simulated time over the
   window. The sampler runs whether or not spans are recorded, so traced
   and untraced runs execute identical events. *)
type gauges = {
  mutable samples : int;
  mutable queue_max : int;
  mutable lag_sum : float;
  mutable lag_max : float;
  mutable busy_sum : float;
  mutable inflight_sum : float;
  mutable qdepth_sum : float;
  mutable check_cost_sum : float;
  mutable fanout_sum : float;
  mutable history_max : float;
  mutable parked_max : float;
  mutable unpopped_max : float;
  mutable rate_min : float;
  mutable walls : (float * float) list;  (* (sim, wall) at each sample, newest first *)
}

(* Pids of the live proxy, resolver and tlog processes of the newest epoch
   ("proxy-E", "resolver-E", "tlog-E.I"). The registry never drops a cell,
   so gauges of earlier generations keep their last value and must not be
   combined with the current ones. *)
let current_generation cluster =
  let epoch_of p =
    match String.split_on_char '-' p.Process.name with
    | [ ("proxy" | "resolver" | "tlog"); rest ] when p.Process.alive ->
        int_of_string_opt (List.hd (String.split_on_char '.' rest))
    | _ -> None
  in
  let procs =
    Array.to_list (Cluster.worker_machines cluster)
    |> List.concat_map (fun m -> List.filter_map (fun p -> Option.map (fun e -> (e, p.Process.pid)) (epoch_of p))
                                   m.Process.machine_processes)
  in
  let newest = List.fold_left (fun m (e, _) -> max m e) min_int procs in
  List.filter_map (fun (e, pid) -> if e = newest then Some pid else None) procs

(* The gauge cells of interest, by (role, metric), newest process first;
   proxy, resolver and log gauges only of the current generation. Registry
   reads enumerate and sort every cell, so the sampler resolves the cells
   once per simulated second and only dereferences them in between. *)
let gauge_cells cluster =
  let current = current_generation cluster in
  let t = Hashtbl.create 16 in
  List.iter
    (fun (k, cell) ->
      match (k.Registry.k_role, cell) with
      | (Registry.Proxy | Registry.Resolver | Registry.Log), _ when not (List.mem k.Registry.k_process current) -> ()
      | _, Registry.Gauge_cell r ->
          let key = (k.Registry.k_role, k.Registry.k_metric) in
          Hashtbl.replace t key (r :: Option.value ~default:[] (Hashtbl.find_opt t key))
      | _ -> ())
    (Registry.entries (Cluster.metrics cluster));
  t

let values cells role name = List.map ( ! ) (Option.value ~default:[] (Hashtbl.find_opt cells (role, name)))
let vmax l = List.fold_left Float.max 0.0 l
let vmean l = match l with [] -> 0.0 | _ -> List.fold_left ( +. ) 0.0 l /. float_of_int (List.length l)

let sample g cells =
  let r = Registry.Storage and p = Registry.Proxy and rs = Registry.Resolver in
  g.samples <- g.samples + 1;
  g.queue_max <- max g.queue_max (Engine.pending_tasks ());
  let lags = values cells r "lag" in
  g.lag_sum <- g.lag_sum +. vmean lags;
  g.lag_max <- Float.max g.lag_max (vmax lags);
  g.busy_sum <- g.busy_sum +. vmean (values cells r "busy");
  g.inflight_sum <- g.inflight_sum +. vmax (values cells p "commit_inflight_batches");
  g.qdepth_sum <- g.qdepth_sum +. vmax (values cells p "commit_queue_depth");
  g.check_cost_sum <- g.check_cost_sum +. vmax (values cells rs "batch_check_cost");
  g.fanout_sum <- g.fanout_sum +. vmean (values cells Registry.Client "read_fanout");
  g.history_max <- Float.max g.history_max (vmax (values cells rs "history_entries"));
  g.parked_max <- Float.max g.parked_max (vmax (values cells rs "parked_batches"));
  g.unpopped_max <- Float.max g.unpopped_max (vmax (values cells Registry.Log "unpopped_bytes"));
  (* Ratekeepers of earlier generations keep their last value; read the
     newest one. *)
  (match values cells Registry.Ratekeeper "rate" with
  | v :: _ -> g.rate_min <- Float.min g.rate_min v
  | [] -> ());
  g.walls <- (Engine.now (), wall ()) :: g.walls

(* Wall seconds per simulated second: the median over consecutive
   [chunk]-long stretches of the window, so a burst of load from elsewhere
   on the machine spoils one stretch rather than the figure. *)
let wall_per_sim_stretches ~chunk walls =
  let pts = Array.of_list (List.rev walls) in
  let k = max 1 (int_of_float (Float.round (chunk /. sample_interval))) in
  List.init
    (max 0 ((Array.length pts - 1) / k))
    (fun i ->
      let s0, w0 = pts.(i * k) and s1, w1 = pts.((i + 1) * k) in
      (w1 -. w0) /. (s1 -. s0))

(* Registry histograms merged over processes, as (bucket upper bound,
   count) pairs, so a window's delta can be taken. *)
let buckets reg role name =
  let h = Histogram.create () in
  List.iter (fun (_, x) -> Histogram.merge_into ~dst:h x) (Registry.histograms reg ~role name);
  let n = float_of_int (Histogram.count h) in
  let prev = ref 0.0 in
  List.map
    (fun (u, f) ->
      let c = int_of_float (Float.round ((f -. !prev) *. n)) in
      prev := f;
      (u, c))
    (Histogram.cdf_points h)

let delta_pct before after p =
  let d = List.map (fun (u, c) -> (u, c - Option.value ~default:0 (List.assoc_opt u before))) after in
  let total = List.fold_left (fun a (_, c) -> a + c) 0 d in
  if total = 0 then 0.0
  else begin
    let target = p /. 100.0 *. float_of_int total in
    let rec walk acc = function
      | [] -> 0.0
      | (u, c) :: rest -> if float_of_int (acc + c) >= target then u else walk (acc + c) rest
    in
    walk 0 d
  end

let hists =
  [
    ("proxy.grv", Registry.Proxy, "grv_latency");
    ("proxy.commit", Registry.Proxy, "commit_latency");
    ("proxy.resolve", Registry.Proxy, "commit_resolve_latency");
    ("proxy.logpush", Registry.Proxy, "commit_logpush_latency");
    ("storage.read", Registry.Storage, "read_latency");
    ("log.append", Registry.Log, "append_latency");
  ]

let counters =
  [
    ("storage.reads", Registry.Storage, "reads");
    ("storage.range_requests", Registry.Storage, "range_requests");
    ("log.pushes", Registry.Log, "pushes");
    ("resolver.txns_checked", Registry.Resolver, "txns_checked");
    ("resolver.conflicts", Registry.Resolver, "conflicts");
    ("proxy.commits", Registry.Proxy, "commits");
    ("proxy.commit_attempts", Registry.Proxy, "commit_attempts");
    ("ratekeeper.throttles", Registry.Ratekeeper, "throttles");
    ("client.read_failovers", Registry.Client, "read_failovers");
  ]

(* Everything read off the cluster at one instant, for window deltas. *)
type snapshot = {
  s_counters : (string * int) list;
  s_hists : (string * (float * int) list) list;
  s_msgs : int;
  s_log_bytes : float;
  s_epoch : int;
  s_minor_words : float;
  s_major : int;
  s_wall : float;
  s_sim : float;
}

let snapshot cluster =
  let reg = Cluster.metrics cluster in
  let* epoch = Cluster.current_epoch cluster in
  Future.return
    {
      s_counters = List.map (fun (n, role, m) -> (n, Registry.sum_counter reg ~role m)) counters;
      s_hists = List.map (fun (n, role, m) -> (n, buckets reg role m)) hists;
      s_msgs = Network.messages_sent (Cluster.context cluster).Context.net;
      s_log_bytes = Cluster.log_bytes cluster;
      s_epoch = epoch;
      s_minor_words = Gc.minor_words ();
      s_major = (Gc.quick_stat ()).Gc.major_collections;
      s_wall = wall ();
      s_sim = Engine.now ();
    }

(* ---------- the simulation ---------- *)

type outcome = {
  setup_wall : float;
  setup_csum : int64;
  boot_outage : float;
  st : stats option;
  g : gauges option;
  before : snapshot option;
  after : snapshot option;
  faults_at : float list;
  check_errors : string list;
}

let preload spec cluster =
  let saved = !Params.cpu_scale in
  (* Preloading is out of band, as in the paper: no CPU charged. *)
  Params.cpu_scale := 0.0;
  let db = Cluster.client cluster ~name:"preload" in
  let* () =
    match spec.kind with
    | Commit_hot -> Fdb_workloads.Bank.setup db ~accounts:spec.universe ~initial:initial_balance
    | Oltp_wide | Failover ->
        let rng = Engine.fork_rng () in
        let rec load i =
          if i >= spec.universe then Future.return ()
          else begin
            let hi = min spec.universe (i + 500) in
            let* () =
              Client.run db (fun tx ->
                  for j = i to hi - 1 do
                    Client.set tx (oltp_key j) (Rng.alphanum rng (8 + Rng.int rng 93))
                  done;
                  Future.return ())
            in
            load hi
          end
        in
        load 0
  in
  Params.cpu_scale := saved;
  Future.return ()

(* A write that must land within [limit] simulated seconds. *)
let try_write db key ~limit =
  Future.catch
    (fun () ->
      let tx = Client.begin_tx db in
      Client.set tx key "x";
      let* _ = Engine.timeout limit (Client.commit tx) in
      Future.return true)
    (fun _ -> Future.return false)

(* Client-visible write outage of the boot-time recovery: simulated time
   from cluster creation to the end of the first accepted commit. A probe
   starts every [probe_interval] without waiting for earlier ones, so the
   reading is not quantized by the probes' own timeouts. *)
let probe_interval = 0.02

let boot_probe cluster =
  let db = Cluster.client cluster ~name:"boot-probe" in
  let first, p = Future.make () in
  let rec launch () =
    if Future.is_resolved first then Future.return ()
    else begin
      Engine.spawn "perf-boot-probe" (fun () ->
          let* ok = try_write db "perf/boot" ~limit:0.5 in
          if ok then ignore (Future.try_fulfill p (Engine.now ()) : bool);
          Future.return ());
      let* () = Engine.sleep probe_interval in
      launch ()
    end
  in
  Engine.spawn "perf-boot-launcher" launch;
  first

let find_processes cluster prefix =
  Array.to_list (Cluster.worker_machines cluster)
  |> List.concat_map (fun m -> m.Process.machine_processes)
  |> List.filter (fun p ->
         p.Process.alive
         && String.length p.Process.name >= String.length prefix
         && String.sub p.Process.name 0 (String.length prefix) = prefix)

(* Reboot the current generation's sequencer (even faults) or one of its
   tlogs (odd faults), as bench/fig10.ml does. *)
let inject cluster k ~delay =
  let* epoch = Cluster.current_epoch cluster in
  (if k mod 2 = 0 then List.iter (fun p -> Engine.reboot p ~delay ()) (find_processes cluster "sequencer")
   else
     match find_processes cluster (Printf.sprintf "tlog-%d." epoch) with
     | p :: _ -> Engine.reboot p ~delay ()
     | [] -> ());
  Future.return ()

let txn_options =
  { Client.default_options with Client.opt_timeout = Some txn_deadline; opt_retry_limit = Some 1000 }

let exec_txn spec ~st ~spans ~dbs ~step_ends i a =
  let counted = a.step >= 0 in
  let timed_rung = counted && a.rung < spec.latency_rungs in
  st.outstanding <- st.outstanding + 1;
  if counted then begin
    st.attempted <- st.attempted + 1;
    st.rung_arrived.(a.rung) <- st.rung_arrived.(a.rung) + 1
  end;
  let root = Spans.fresh spans in
  let t0 = Engine.now () in
  (* The span covers the call whether it succeeds or fails, so time spent
     in failed calls is not counted as client self time; the latency sample
     is taken for successful calls only. *)
  let timed name samples f =
    let id = Spans.fresh spans in
    let s = Engine.now () in
    let* r =
      Future.protect f ~finally:(fun () ->
          Spans.record spans ~id ~parent:root ~txn:i ~clock:Spans.Sim name s (Engine.now ()))
    in
    if timed_rung then Samples.add samples (Engine.now () -. s);
    Future.return r
  in
  let bad () = st.bad_outputs <- st.bad_outputs + 1 in
  let commit tx ~bytes ~probe =
    let s = Engine.now () in
    let* _ = timed "commit" st.commit (fun () -> Client.commit tx) in
    st.commits_ok <- (s, Engine.now ()) :: st.commits_ok;
    if counted then begin
      Samples.add st.rung_commit.(a.rung) (Engine.now () -. s);
      st.user_bytes <- st.user_bytes + bytes
    end;
    if probe then st.acked_probes <- i :: st.acked_probes;
    Future.return ()
  in
  let range tx from until =
    let* rows = timed "range" st.range (fun () -> Client.range_all tx (Range_query.keys ~from ~until ())) in
    if List.length rows <> range_len then bad ();
    Future.return ()
  in
  let body tx =
    if counted then st.attempts <- st.attempts + 1;
    Future.catch
      (fun () ->
        let* _ = timed "grv" st.grv (fun () -> Client.get_read_version tx) in
        match a.op with
        | Mix { reads; range_from; writes } ->
            let rec point k =
              if k = Array.length reads then Future.return ()
              else
                let* v = timed "read" st.read (fun () -> Client.get tx (oltp_key reads.(k))) in
                if v = None then bad ();
                point (k + 1)
            in
            let* () = point 0 in
            let* () = range tx (oltp_key range_from) (oltp_key (range_from + range_len)) in
            if writes = [||] then Future.return ()
            else begin
              let probe = spec.kind = Failover in
              let bytes = ref 0 in
              Array.iter
                (fun (k, v) ->
                  let key = oltp_key k in
                  bytes := !bytes + String.length key + String.length v;
                  Client.set tx key v)
                writes;
              if probe then Client.set tx (probe_key i) (string_of_int i);
              commit tx ~bytes:!bytes ~probe
            end
        | Transfer { src; dst; amount } -> (
            let ka = Fdb_workloads.Bank.account_key src and kb = Fdb_workloads.Bank.account_key dst in
            let* va = timed "read" st.read (fun () -> Client.get tx ka) in
            let* vb = timed "read" st.read (fun () -> Client.get tx kb) in
            match (va, vb) with
            | Some sa, Some sb ->
                let ba = int_of_string sa and bb = int_of_string sb in
                if ba < amount then Future.return ()
                else begin
                  let na = string_of_int (ba - amount) and nb = string_of_int (bb + amount) in
                  Client.set tx ka na;
                  Client.set tx kb nb;
                  commit tx ~probe:false
                    ~bytes:(String.length ka + String.length na + String.length kb + String.length nb)
                end
            | _ ->
                bad ();
                Future.return ())
        | Audit { first } ->
            range tx (Fdb_workloads.Bank.account_key first) (Fdb_workloads.Bank.account_key (first + range_len)))
      (fun e ->
        if counted then st.attempt_errors <- Engine.now () :: st.attempt_errors;
        Future.fail e)
  in
  let finish ok =
    let t1 = Engine.now () in
    st.outstanding <- st.outstanding - 1;
    Spans.record spans ~id:root ~txn:i ~clock:Spans.Sim "txn" t0 t1;
    if counted then
      if ok then begin
        st.completed <- st.completed + 1;
        if t1 <= step_ends.(a.step) then st.rung_done.(a.rung) <- st.rung_done.(a.rung) + 1
      end
      else st.failed <- st.failed + 1;
    Future.return ()
  in
  let db = dbs.(i mod Array.length dbs) in
  Future.catch
    (fun () ->
      let* () = Client.run db ~options:txn_options body in
      finish true)
    (fun e ->
      let r = Printexc.to_string e in
      if a.step >= 0 then
        st.fail_reasons <- (r, 1 + Option.value ~default:0 (List.assoc_opt r st.fail_reasons))
                            :: List.remove_assoc r st.fail_reasons;
      finish false)

(* Output checks on the healed, quiesced cluster. *)
let verify spec cluster st =
  let db = Cluster.client cluster ~name:"verify" in
  let errors = ref [] in
  let fail msg = errors := msg :: !errors in
  (* Writes work again after the last recovery. *)
  let rec settle n =
    if n = 0 then Future.return false
    else
      let* ok = try_write db "perf/settle" ~limit:1.0 in
      if ok then Future.return true
      else
        let* () = Engine.sleep 0.2 in
        settle (n - 1)
  in
  let* ok = settle 100 in
  if not ok then fail "cluster did not accept writes after the run";
  let* cc = Fdb_workloads.Consistency_check.check cluster in
  (match cc with Ok () -> () | Error e -> fail ("consistency check: " ^ e));
  let* () =
    match spec.kind with
    | Commit_hot ->
        let* r =
          Fdb_workloads.Bank.check db ~accounts:spec.universe ~expected_total:(spec.universe * initial_balance)
        in
        (match r with Ok () -> () | Error e -> fail ("bank: " ^ e));
        Future.return ()
    | Failover ->
        let from, until = Tuple.range [ Tuple.String "probe" ] in
        let* rows =
          Client.run db (fun tx -> Client.range_all tx (Range_query.keys ~limit:max_int ~from ~until ()))
        in
        let found = Hashtbl.create 1024 in
        List.iter (fun (k, v) -> Hashtbl.replace found k v) rows;
        let lost =
          List.filter
            (fun i -> Hashtbl.find_opt found (probe_key i) <> Some (string_of_int i))
            st.acked_probes
        in
        if lost <> [] then fail (Printf.sprintf "%d acknowledged probe writes lost" (List.length lost));
        Future.return ()
    | Oltp_wide -> Future.return ()
  in
  if st.bad_outputs > 0 then fail (Printf.sprintf "%d reads returned wrong results" st.bad_outputs);
  Future.return (List.rev !errors)

let simulate spec ~seed ~spans ~setup_only (arrivals, faults, total) =
  let w0 = wall () in
  let result =
    Engine.run ~seed:(Int64.of_int seed) ~max_time:1e6 (fun () ->
        Params.cpu_scale := spec.cpu_scale;
        let cluster = Cluster.create ~config:spec.config () in
        let boot = boot_probe cluster in
        let* () = Cluster.wait_ready ~timeout:120.0 cluster in
        let* () = preload spec cluster in
        let* boot_outage = boot in
        let setup_wall = wall () -. w0 in
        let setup_csum = Engine.trace_checksum () in
        Spans.record spans ~id:(Spans.fresh spans) ~clock:Spans.Wall "setup" w0 (wall ());
        let base =
          { setup_wall; setup_csum; boot_outage; st = None; g = None; before = None; after = None;
            faults_at = []; check_errors = [] }
        in
        if setup_only then Future.return base
        else begin
          let nsteps = Array.length spec.steps in
          let st = fresh_stats (rungs spec) in
          let dbs = Array.init client_handles (fun i -> Cluster.client cluster ~name:(Printf.sprintf "perf-%d" i)) in
          let origin = Engine.now () in
          let win_start = origin +. spec.warmup.dur in
          let step_ends = Array.make nsteps 0.0 in
          let t = ref win_start in
          Array.iteri
            (fun i s ->
              t := !t +. s.dur +. s.drain;
              step_ends.(i) <- !t)
            spec.steps;
          let win_end = origin +. total in
          let rec gen i =
            if i >= Array.length arrivals then Future.return ()
            else begin
              let a = arrivals.(i) in
              let* () = Engine.sleep_until (origin +. a.at) in
              Engine.spawn "perf-txn" (fun () -> exec_txn spec ~st ~spans ~dbs ~step_ends i a);
              gen (i + 1)
            end
          in
          let generator = gen 0 in
          let faults_at = ref [] in
          let rec fault_loop k =
            if k >= Array.length faults then Future.return ()
            else begin
              let at, delay = faults.(k) in
              let* () = Engine.sleep_until (origin +. at) in
              faults_at := Engine.now () :: !faults_at;
              let* () = inject cluster k ~delay in
              fault_loop (k + 1)
            end
          in
          let fault_job = fault_loop 0 in
          let* () = Engine.sleep_until win_start in
          let* before = snapshot cluster in
          let g =
            { samples = 0; queue_max = 0; lag_sum = 0.0; lag_max = 0.0; busy_sum = 0.0; inflight_sum = 0.0;
              qdepth_sum = 0.0; check_cost_sum = 0.0; fanout_sum = 0.0; history_max = 0.0; parked_max = 0.0;
              unpopped_max = 0.0; rate_min = infinity; walls = [] }
          in
          let cells = ref (Hashtbl.create 1) in
          let rec sampler () =
            if Engine.now () >= win_end then Future.return ()
            else begin
              if g.samples mod 10 = 0 then cells := gauge_cells cluster;
              sample g !cells;
              let* () = Engine.sleep sample_interval in
              sampler ()
            end
          in
          let* () = sampler () in
          let* after = snapshot cluster in
          Spans.record spans ~id:(Spans.fresh spans) ~clock:Spans.Wall "window" before.s_wall after.s_wall;
          let* () = generator in
          let* () = fault_job in
          let rec quiesce () =
            if st.outstanding = 0 then Future.return ()
            else
              let* () = Engine.sleep 0.1 in
              quiesce ()
          in
          let* () = quiesce () in
          let v0 = wall () in
          let* check_errors = verify spec cluster st in
          Spans.record spans ~id:(Spans.fresh spans) ~clock:Spans.Wall "verify" v0 (wall ());
          Future.return
            { base with st = Some st; g = Some g; before = Some before; after = Some after;
              faults_at = List.rev !faults_at; check_errors }
        end)
  in
  Params.cpu_scale := 1.0;
  result

(* ---------- metrics ---------- *)

let ms v = v *. 1e3

(* Highest ladder step meeting the SLO (commit p99 within the limit and
   completions keeping up with arrivals); its completed txn/s. *)
let tps_at_slo spec st =
  let best = ref (0.0, 0.0) in
  for r = 0 to rungs spec - 1 do
    let p99 = Samples.pct st.rung_commit.(r) 99.0 in
    let arrived = st.rung_arrived.(r) and done_ = st.rung_done.(r) in
    if p99 <= slo_commit_p99
       && float_of_int done_ >= slo_completed_share *. float_of_int arrived
       && rung_rate spec r > fst !best
    then best := (rung_rate spec r, float_of_int done_ /. rung_dur spec r)
  done;
  snd !best

(* Per injected fault: simulated time from the fault to the end of the
   first successful commit that started after it. *)
let outages st faults_at =
  List.map
    (fun tf ->
      List.fold_left
        (fun acc (s, e) -> if s >= tf then Float.min acc (e -. tf) else acc)
        infinity st.commits_ok)
    faults_at

(* The keys, ranges and tuples this seed's transactions touch, in arrival
   order, for the kernel replay. Bank keys are not tuple-packed, so on
   commit_hot Tuple.pack is timed on the tuples that oltp_wide's schedule
   for the same seed touches. *)
let rec kernel_input spec ~seed ~seconds arrivals =
  let writes = ref [] and reads = ref [] and tuples = ref [] in
  let tuple i = [ Tuple.String "oltp"; Tuple.Int (Int64.of_int i) ] in
  let read i =
    let k = key_of spec i in
    tuples := tuple i :: !tuples;
    reads := (k, k ^ "\x00") :: !reads
  in
  let write i =
    tuples := tuple i :: !tuples;
    writes := key_of spec i :: !writes
  in
  let range first = reads := (key_of spec first, key_of spec (first + range_len)) :: !reads in
  Array.iter
    (fun a ->
      match a.op with
      | Mix { reads = rs; range_from; writes = ws } ->
          Array.iter read rs;
          range range_from;
          Array.iter (fun (k, _) -> write k) ws
      | Transfer { src; dst; _ } ->
          read src;
          read dst;
          write src;
          write dst
      | Audit { first } -> range first)
    arrivals;
  let arr l = Array.of_list (List.rev l) in
  let tuples =
    match spec.kind with
    | Oltp_wide | Failover -> arr !tuples
    | Commit_hot ->
        let oltp = spec_of "oltp_wide" seconds in
        let oltp_arrivals, _, _ = generate oltp ~seed in
        (kernel_input oltp ~seed ~seconds oltp_arrivals).Kernels.tuples
  in
  { Kernels.tuples; writes = arr !writes; reads = arr !reads }

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10 and trace = ref 0 and spans_file = ref "" in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "oltp_wide | commit_hot | failover");
      ("--seed", Arg.Set_int seed, "input and simulation seed");
      ("--seconds", Arg.Set_int seconds, "length of the measured window (scaled to simulated time)");
      ("--trace", Arg.Set_int trace, "1 = record spans and report per-layer metrics");
      ("--spans", Arg.Set_string spans_file, "where the traced run writes its spans (JSON lines)");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "fdb_perf.exe --workload W --seed N --seconds S [--trace 0|1]";
  let spec = spec_of !workload !seconds in
  let ((arrivals, _, _) as inputs) = generate spec ~seed:!seed in
  let inputs_digest = digest arrivals in
  let (other, _, _) = generate spec ~seed:(!seed + 1) in
  let seed_changes_inputs = digest other <> inputs_digest in
  let no_spans = Spans.create ~enabled:false in
  let spans = Spans.create ~enabled:(!trace = 1) in
  let setups =
    List.init (spec.setup_reps - 1) (fun _ -> simulate spec ~seed:!seed ~spans:no_spans ~setup_only:true inputs)
  in
  let o = simulate spec ~seed:!seed ~spans ~setup_only:false inputs in
  let checksum = Engine.last_run_checksum () in
  let leaks = Fdb_sim.Future.Lifecycle.total_leaks (Engine.last_run_lifecycle ()) in
  let st = Option.get o.st and g = Option.get o.g in
  let before = Option.get o.before and after = Option.get o.after in
  let setup_deterministic = List.for_all (fun s -> s.setup_csum = o.setup_csum) setups in
  let k0 = wall () in
  let kernels = Kernels.run (kernel_input spec ~seed:!seed ~seconds:!seconds arrivals) in
  Spans.record spans ~id:(Spans.fresh spans) ~clock:Spans.Wall "kernel_replay" k0 (wall ());
  let window_sim = after.s_sim -. before.s_sim in
  let window_wall = after.s_wall -. before.s_wall in
  let stretches = wall_per_sim_stretches ~chunk:spec.chunk g.walls in
  let counter n s = float_of_int (List.assoc n s.s_counters) in
  let cdelta n = counter n after -. counter n before in
  let hpct n p = ms (delta_pct (List.assoc n before.s_hists) (List.assoc n after.s_hists) p) in
  let outs = outages st o.faults_at in
  let recoveries = o.boot_outage :: outs in
  let gs = float_of_int (max 1 g.samples) in
  let txns = float_of_int (max 1 st.attempted) in
  let in_outage t = List.exists2 (fun tf d -> t >= tf && t <= tf +. d) o.faults_at outs in
  let self_times = Spans.self_times spans ~root:"txn" in
  let sim_metrics =
    [
      ("grv_p50_ms", "ms", ms (Samples.pct st.grv 50.0));
      ("grv_p99_ms", "ms", ms (Samples.pct st.grv 99.0));
      ("read_p50_ms", "ms", ms (Samples.pct st.read 50.0));
      ("read_p99_ms", "ms", ms (Samples.pct st.read 99.0));
      ("range_p50_ms", "ms", ms (Samples.pct st.range 50.0));
      ("range_p99_ms", "ms", ms (Samples.pct st.range 99.0));
      ("commit_p50_ms", "ms", ms (Samples.pct st.commit 50.0));
      ("commit_p99_ms", "ms", ms (Samples.pct st.commit 99.0));
      ("committed_tps", "1/s",
        float_of_int st.completed /. Array.fold_left (fun a s -> a +. s.dur) 0.0 spec.steps);
      ("tps_at_slo", "1/s", tps_at_slo spec st);
      ("recovery_p50_s", "s", median recoveries);
    ]
  in
  let wall_metrics =
    [
      ("setup_s", "s", median (o.setup_wall :: List.map (fun s -> s.setup_wall) setups));
      ("wall_s_per_sim_s", "s/s", if stretches = [] then window_wall /. window_sim else median stretches);
      ("peak_heap_mb", "MB",
        float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8)) /. 1e6);
    ]
  in
  let layer_metrics =
    [
      ("net.msgs_per_sim_s", "1/s", float_of_int (after.s_msgs - before.s_msgs) /. window_sim);
      ("net.msgs_per_txn", "count", float_of_int (after.s_msgs - before.s_msgs) /. txns);
      ("gc.minor_words_per_sim_s", "words/s", (after.s_minor_words -. before.s_minor_words) /. window_sim);
      ("gc.major_collections", "count", float_of_int (after.s_major - before.s_major));
      ("engine.queue_len_max", "count", float_of_int g.queue_max);
      ("storage.lag_ms_mean", "ms", ms (g.lag_sum /. gs));
      ("storage.lag_ms_max", "ms", ms g.lag_max);
      ("storage.read_p50_ms", "ms", hpct "storage.read" 50.0);
      ("storage.read_p99_ms", "ms", hpct "storage.read" 99.0);
      ("storage.reads", "count", cdelta "storage.reads");
      ("storage.range_requests", "count", cdelta "storage.range_requests");
      ("storage.busy", "ms", ms (g.busy_sum /. gs));
      ("client.retries_per_txn", "ratio", float_of_int (st.attempts - st.attempted) /. txns);
      ("client.read_failovers", "count", cdelta "client.read_failovers");
      ("client.range_fanout", "count", g.fanout_sum /. gs);
      ("client.txn_self_ms", "ms", ms (vmean self_times));
      ("client.failed_frac", "ratio", float_of_int st.failed /. txns);
      ("proxy.grv_p99_ms", "ms", hpct "proxy.grv" 99.0);
      ("proxy.commit_p99_ms", "ms", hpct "proxy.commit" 99.0);
      ("proxy.resolve_p99_ms", "ms", hpct "proxy.resolve" 99.0);
      ("proxy.logpush_p99_ms", "ms", hpct "proxy.logpush" 99.0);
      ("proxy.commits_per_attempt", "ratio", ratio (cdelta "proxy.commits") (cdelta "proxy.commit_attempts"));
      ("proxy.inflight_batches", "count", g.inflight_sum /. gs);
      ("proxy.queue_depth", "count", g.qdepth_sum /. gs);
      ("resolver.txns_checked", "count", cdelta "resolver.txns_checked");
      ("resolver.conflict_ratio", "ratio", ratio (cdelta "resolver.conflicts") (cdelta "resolver.txns_checked"));
      ("resolver.check_cost", "count", g.check_cost_sum /. gs);
      ("resolver.history_entries", "count", g.history_max);
      ("resolver.parked_batches", "count", g.parked_max);
      ("log.append_p99_ms", "ms", hpct "log.append" 99.0);
      ("log.pushes", "count", cdelta "log.pushes");
      ("log.unpopped_bytes_max", "bytes", g.unpopped_max);
      ("disk.bytes_per_user_byte", "ratio",
        ratio (after.s_log_bytes -. before.s_log_bytes) (float_of_int st.user_bytes));
      ("ratekeeper.rate_min", "1/s", if g.rate_min = infinity then 0.0 else g.rate_min);
      ("ratekeeper.throttles", "count", cdelta "ratekeeper.throttles");
      ("recovery.epochs", "count", float_of_int (after.s_epoch - before.s_epoch));
      ("recovery.outage_max_s", "s", List.fold_left Float.max 0.0 outs);
      ("recovery.failed_during_outage", "count",
        float_of_int (List.length (List.filter in_outage st.attempt_errors)));
    ]
    @ List.map (fun (n, v) -> (n, "ns", v)) kernels
    @ [ ("trace.spans", "count", float_of_int (Spans.count spans)) ]
  in
  let errors =
    o.check_errors
    @ (if leaks > 0 then [ Printf.sprintf "%d leaked promises" leaks ] else [])
    @ (if setup_deterministic then [] else [ "set-up checksums differ between repeats of one seed" ])
    @ (if seed_changes_inputs then [] else [ "a different seed generated the same inputs" ])
    @ (if List.exists (fun d -> d = infinity) outs then [ "a fault never saw a later successful commit" ] else [])
  in
  if !trace = 1 && !spans_file <> "" then Spans.write spans !spans_file;
  (* Human-readable report. *)
  Printf.printf "workload %s  seed %d  window %.1f sim-s  %.2f wall-s\n" spec.name !seed window_sim window_wall;
  Printf.printf "samples: grv %d  read %d  range %d  commit %d  recoveries %d\n" (Samples.count st.grv)
    (Samples.count st.read) (Samples.count st.range) (Samples.count st.commit) (List.length recoveries);
  Printf.printf "wall s per sim s by stretch: %s\n" (String.concat " " (List.map (Printf.sprintf "%.3f") stretches));
  Printf.printf "attempted %d  completed %d  failed %d\n" st.attempted st.completed st.failed;
  List.iter (fun (r, n) -> Printf.printf "  failed %d: %s\n" n r) st.fail_reasons;
  for r = 0 to rungs spec - 1 do
    Printf.printf "  rung %d: %.0f txn/s offered, %d arrived, %d done in time, commit p99 %.2f ms\n" r
      (rung_rate spec r) st.rung_arrived.(r) st.rung_done.(r) (ms (Samples.pct st.rung_commit.(r) 99.0))
  done;
  List.iter (fun (n, u, v) -> Printf.printf "  %-30s %14.4f %s\n" n v u) (sim_metrics @ wall_metrics);
  if !trace = 1 then List.iter (fun (n, u, v) -> Printf.printf "  %-30s %14.4f %s\n" n v u) layer_metrics;
  List.iter (fun e -> Printf.printf "CHECK FAILED: %s\n" e) errors;
  let obj l =
    "{"
    ^ String.concat ","
        (List.map (fun (n, u, v) -> Printf.sprintf "\"%s\":{\"value\":%.17g,\"unit\":\"%s\"}" n v u) l)
    ^ "}"
  in
  Printf.printf
    "RESULT {\"workload\":\"%s\",\"seed\":%d,\"correct\":%b,\"errors\":[%s],\"attempted\":%d,\"failed\":%d,\"checksum\":\"%Ld\",\"sim\":%s,\"wall\":%s,\"layer\":%s}\n"
    spec.name !seed (errors = [])
    (String.concat "," (List.map (Printf.sprintf "%S") errors))
    st.attempted st.failed checksum (obj sim_metrics) (obj wall_metrics) (obj layer_metrics)
