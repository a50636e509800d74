(* Typed metrics registry: the cluster-wide metrics plane (paper §2.3.1 /
   `fdbcli status`). Every role registers counters, gauges, and log-bucketed
   latency histograms keyed by (role, process, metric). Handles are obtained
   once at role creation and updated on the hot path without hashing: a
   handle is the registry's cell itself.

   All sampling runs on simulated time from the seeded RNG, so a serialized
   dump of the registry is bit-identical across reruns of the same seed —
   the metrics plane doubles as a determinism oracle for the swarm. *)

module Histogram = Fdb_util.Histogram

(* [Data_distributor] is appended after [Client] so the key order of every
   pre-existing role (and thus serialized dumps of runs that never recruit
   a DD metric) is unchanged. *)
type role =
  | Proxy
  | Resolver
  | Log
  | Storage
  | Ratekeeper
  | Sequencer
  | Client
  | Data_distributor

let role_name = function
  | Proxy -> "proxy"
  | Resolver -> "resolver"
  | Log -> "log"
  | Storage -> "storage"
  | Ratekeeper -> "ratekeeper"
  | Sequencer -> "sequencer"
  | Client -> "client"
  | Data_distributor -> "data_distributor"

let all_roles =
  [ Proxy; Resolver; Log; Storage; Ratekeeper; Sequencer; Client; Data_distributor ]

let role_rank = function
  | Proxy -> 0
  | Resolver -> 1
  | Log -> 2
  | Storage -> 3
  | Ratekeeper -> 4
  | Sequencer -> 5
  | Client -> 6
  | Data_distributor -> 7

(* The canonical order every dump uses: role (in constructor-declaration
   order, which matches [all_roles]), then process, then metric name —
   the order polymorphic compare gives [key]. *)
type key = { k_role : role; k_process : int; k_metric : string }

let compare_key a b =
  let c = Int.compare (role_rank a.k_role) (role_rank b.k_role) in
  if c <> 0 then c
  else
    let c = Int.compare a.k_process b.k_process in
    if c <> 0 then c else String.compare a.k_metric b.k_metric

module Key_map = Map.Make (struct
  type t = key

  let compare = compare_key
end)

(* (role, metric) in role order, then metric name. *)
module Group_map = Map.Make (struct
  type t = role * string

  let compare (r, m) (r', m') =
    let c = Int.compare (role_rank r) (role_rank r') in
    if c <> 0 then c else String.compare m m'
end)

type cell =
  | Counter_cell of int ref
  | Gauge_cell of float ref
  | Hist_cell of Histogram.t

(* Reads are periodic (Ratekeeper, roll-ups, status, samplers) and
   registration is rare, so registration keeps everything a read needs:
   [cells] in canonical order, each (role, metric)'s cells in ascending
   process order in [groups], and the distinct processes per role in
   [role_processes]. The two lists readers walk, [entries] and [groups],
   are cached until the next registration. *)
type t = {
  mutable cells : cell Key_map.t;
  mutable groups : (int * cell) list Group_map.t;
  role_processes : int array; (* by [role_rank] *)
  mutable entries_cache : (key * cell) list option;
  mutable groups_cache : (role * string * (int * cell) list) list option;
}

let create () =
  {
    cells = Key_map.empty;
    groups = Group_map.empty;
    role_processes = Array.make (List.length all_roles) 0;
    entries_cache = None;
    groups_cache = None;
  }

(* ---------- write-side handles ---------- *)

type counter = int ref
type gauge = float ref
type timer = Histogram.t

let rec insert_by_process p cell = function
  | (q, _) :: _ as l when p < q -> (p, cell) :: l
  | x :: rest -> x :: insert_by_process p cell rest
  | [] -> [ (p, cell) ]

let register t key cell =
  (* The first cell of (role, process) sorts first among its keys. *)
  let first_of_process =
    match Key_map.find_first_opt (fun k -> compare_key k { key with k_metric = "" } >= 0) t.cells with
    | Some (k, _) -> k.k_role <> key.k_role || k.k_process <> key.k_process
    | None -> true
  in
  if first_of_process then begin
    let r = role_rank key.k_role in
    t.role_processes.(r) <- t.role_processes.(r) + 1
  end;
  t.cells <- Key_map.add key cell t.cells;
  t.groups <-
    Group_map.update (key.k_role, key.k_metric)
      (fun g -> Some (insert_by_process key.k_process cell (Option.value ~default:[] g)))
      t.groups;
  t.entries_cache <- None;
  t.groups_cache <- None

let find_or_add t key make =
  match Key_map.find_opt key t.cells with
  | Some cell -> cell
  | None ->
      let cell = make () in
      register t key cell;
      cell

let counter t ~role ~process name : counter =
  match
    find_or_add t
      { k_role = role; k_process = process; k_metric = name }
      (fun () -> Counter_cell (ref 0))
  with
  | Counter_cell r -> r
  | _ -> invalid_arg ("Fdb_obs: metric is not a counter: " ^ name)

let gauge t ~role ~process name : gauge =
  match
    find_or_add t
      { k_role = role; k_process = process; k_metric = name }
      (fun () -> Gauge_cell (ref 0.0))
  with
  | Gauge_cell r -> r
  | _ -> invalid_arg ("Fdb_obs: metric is not a gauge: " ^ name)

let histogram t ~role ~process name : timer =
  match
    find_or_add t
      { k_role = role; k_process = process; k_metric = name }
      (fun () -> Hist_cell (Histogram.create ()))
  with
  | Hist_cell h -> h
  | _ -> invalid_arg ("Fdb_obs: metric is not a histogram: " ^ name)

let incr ?(by = 1) (c : counter) = c := !c + by
let set_gauge (g : gauge) v = g := v
let observe (h : timer) v = Histogram.add h v

(* ---------- read side ---------- *)

let counter_value t ~role ~process name =
  match Key_map.find_opt { k_role = role; k_process = process; k_metric = name } t.cells with
  | Some (Counter_cell r) -> !r
  | _ -> 0

let gauge_value t ~role ~process name =
  match Key_map.find_opt { k_role = role; k_process = process; k_metric = name } t.cells with
  | Some (Gauge_cell r) -> Some !r
  | _ -> None

(* One lookup: the group is already in ascending process order. *)
let by_process t ~role name pick =
  match Group_map.find_opt (role, name) t.groups with
  | None -> []
  | Some g -> List.filter_map (fun (p, cell) -> Option.map (fun v -> (p, v)) (pick cell)) g

let counters t ~role name =
  by_process t ~role name (function Counter_cell r -> Some !r | _ -> None)

let gauges t ~role name =
  by_process t ~role name (function Gauge_cell r -> Some !r | _ -> None)

let histograms t ~role name =
  by_process t ~role name (function Hist_cell h -> Some h | _ -> None)

let sum_counter t ~role name =
  match Group_map.find_opt (role, name) t.groups with
  | None -> 0
  | Some g ->
      List.fold_left (fun acc (_, cell) -> match cell with Counter_cell r -> acc + !r | _ -> acc) 0 g

(* All cells, in the canonical (role, process, metric) order. Histograms
   are returned by reference: readers must treat them as read-only. *)
let entries t =
  match t.entries_cache with
  | Some l -> l
  | None ->
      let l = Key_map.bindings t.cells in
      t.entries_cache <- Some l;
      l

(* Every (role, metric) with its cells in ascending process order, the
   groups in (role, metric) order: what a per-role roll-up walks. *)
let groups t =
  match t.groups_cache with
  | Some l -> l
  | None ->
      let l = List.map (fun ((role, name), g) -> (role, name, g)) (Group_map.bindings t.groups) in
      t.groups_cache <- Some l;
      l

(* Distinct processes that registered at least one cell under [role]. *)
let process_count t role = t.role_processes.(role_rank role)

(* ---------- deterministic serialization ---------- *)

let render_float f =
  if Float.is_nan f then "nan"
  else if f = Float.infinity then "inf"
  else if f = Float.neg_infinity then "-inf"
  else Printf.sprintf "%.9g" f

let render_cell = function
  | Counter_cell r -> string_of_int !r
  | Gauge_cell r -> render_float !r
  | Hist_cell h ->
      Printf.sprintf "hist(count=%d,mean=%s,p50=%s,p99=%s,max=%s)"
        (Histogram.count h)
        (render_float (Histogram.mean h))
        (render_float (Histogram.percentile h 50.0))
        (render_float (Histogram.percentile h 99.0))
        (render_float (Histogram.max_value h))

let serialize t =
  let b = Buffer.create 4096 in
  List.iter
    (fun (k, cell) ->
      Buffer.add_string b
        (Printf.sprintf "%s/%d/%s %s\n" (role_name k.k_role) k.k_process k.k_metric
           (render_cell cell)))
    (entries t);
  Buffer.contents b
