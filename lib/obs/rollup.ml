(* The roll-up: aggregate the per-process registry into a per-role
   status document in the spirit of FDB's `\xff\xff/status/json` — summed
   counters, min/max gauges, merged latency histograms with percentiles.
   The document is machine-readable (sorted keys, canonical float rendering),
   so two runs of the same seed serialize to identical bytes. It is
   computed on demand ([Cluster.status_doc]). *)

module Histogram = Fdb_util.Histogram

type lat = {
  l_count : int;
  l_mean : float;
  l_p50 : float;
  l_p99 : float;
  l_max : float;
}

type role_doc = {
  rd_role : string;
  rd_processes : int;
  rd_counters : (string * int) list; (* summed across processes *)
  rd_gauges : (string * (float * float)) list; (* (min, max) across processes *)
  rd_latencies : (string * lat) list; (* merged histograms *)
}

type doc = { d_time : float; d_roles : role_doc list }

let lat_of_hist h =
  {
    l_count = Histogram.count h;
    l_mean = Histogram.mean h;
    l_p50 = Histogram.percentile h 50.0;
    l_p99 = Histogram.percentile h 99.0;
    l_max = Histogram.max_value h;
  }

(* One (role, metric) group's cells, ascending process, folded into the
   role document's three lists (each built in reverse metric order). A
   metric name registered as more than one kind shows under each kind. *)
let add_group (counters, gauges, hists) (name, cells) =
  let sum = ref None and range = ref None and merged = ref None in
  List.iter
    (fun (_, cell) ->
      match cell with
      | Registry.Counter_cell r -> sum := Some (Option.value ~default:0 !sum + !r)
      | Registry.Gauge_cell r ->
          range :=
            Some
              (match !range with
              | Some (lo, hi) -> (Float.min lo !r, Float.max hi !r)
              | None -> (!r, !r))
      | Registry.Hist_cell h ->
          let dst =
            match !merged with
            | Some dst -> dst
            | None ->
                let dst = Histogram.create () in
                merged := Some dst;
                dst
          in
          Histogram.merge_into ~dst h)
    cells;
  let cons acc = function Some v -> (name, v) :: acc | None -> acc in
  (cons counters !sum, cons gauges !range, cons hists (Option.map lat_of_hist !merged))

let role_doc reg role groups =
  let counters, gauges, latencies = List.fold_left add_group ([], [], []) groups in
  {
    rd_role = Registry.role_name role;
    rd_processes = Registry.process_count reg role;
    rd_counters = List.rev counters;
    rd_gauges = List.rev gauges;
    rd_latencies = List.rev latencies;
  }

(* The registry's groups come in (role, metric) order, so one pass cuts
   them into per-role runs that are already sorted by metric name. *)
let snapshot ~now (reg : Registry.t) : doc =
  let rec roles acc = function
    | [] -> List.rev acc
    | (role, _, _) :: _ as l ->
        let rec take run = function
          | (r, name, cells) :: rest when r = role -> take ((name, cells) :: run) rest
          | rest -> (List.rev run, rest)
        in
        let run, rest = take [] l in
        roles (role_doc reg role run :: acc) rest
  in
  { d_time = now; d_roles = roles [] (Registry.groups reg) }

(* ---------- JSON ---------- *)

let json_float f =
  if Float.is_nan f || f = Float.infinity || f = Float.neg_infinity then "0"
  else
    let s = Printf.sprintf "%.9g" f in
    (* "%.9g" may emit "1e+06": valid JSON. Bare "1" is too. *)
    s

let buf_kv b first key value =
  if not !first then Buffer.add_char b ',';
  first := false;
  Buffer.add_string b (Printf.sprintf "\"%s\":%s" key value)

let json_of_role_doc b (rd : role_doc) =
  Buffer.add_string b (Printf.sprintf "\"%s\":{" rd.rd_role);
  let first = ref true in
  buf_kv b first "processes" (string_of_int rd.rd_processes);
  let obj items render =
    let bb = Buffer.create 128 in
    Buffer.add_char bb '{';
    let f = ref true in
    List.iter
      (fun (name, v) ->
        if not !f then Buffer.add_char bb ',';
        f := false;
        Buffer.add_string bb (Printf.sprintf "\"%s\":%s" name (render v)))
      items;
    Buffer.add_char bb '}';
    Buffer.contents bb
  in
  buf_kv b first "counters" (obj rd.rd_counters string_of_int);
  buf_kv b first "gauges"
    (obj rd.rd_gauges (fun (lo, hi) ->
         Printf.sprintf "{\"min\":%s,\"max\":%s}" (json_float lo) (json_float hi)));
  buf_kv b first "latencies"
    (obj rd.rd_latencies (fun l ->
         Printf.sprintf
           "{\"count\":%d,\"mean_ms\":%s,\"p50_ms\":%s,\"p99_ms\":%s,\"max_ms\":%s}"
           l.l_count
           (json_float (l.l_mean *. 1e3))
           (json_float (l.l_p50 *. 1e3))
           (json_float (l.l_p99 *. 1e3))
           (json_float (l.l_max *. 1e3))));
  Buffer.add_char b '}'

let json_of_doc (d : doc) =
  let b = Buffer.create 2048 in
  Buffer.add_string b (Printf.sprintf "{\"time\":%s,\"roles\":{" (json_float d.d_time));
  List.iteri
    (fun i rd ->
      if i > 0 then Buffer.add_char b ',';
      json_of_role_doc b rd)
    d.d_roles;
  Buffer.add_string b "}}";
  Buffer.contents b
