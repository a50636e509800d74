(* In-memory span recorder for the traced run. Spans are recorded only from
   the benchmark's own code, around its calls into the system, and written
   out once at the end. Recording never touches the simulation: no engine
   event, no RNG draw, so a traced run executes exactly the events of an
   untraced one. *)

type clock = Sim | Wall

type span = {
  id : int;
  parent : int;  (* 0 = root *)
  txn : int;  (* transaction id shared by a transaction's spans; -1 = none *)
  name : string;
  clock : clock;
  t0 : float;
  t1 : float;
}

type t = { enabled : bool; mutable next : int; mutable spans : span list }

let create ~enabled = { enabled; next = 1; spans = [] }

(* A fresh span id (0 when tracing is off, so callers need not branch). *)
let fresh t =
  if not t.enabled then 0
  else begin
    let id = t.next in
    t.next <- id + 1;
    id
  end

let record t ~id ?(parent = 0) ?(txn = -1) ~clock name t0 t1 =
  if t.enabled then t.spans <- { id; parent; txn; name; clock; t0; t1 } :: t.spans

let count t = List.length t.spans

(* A transaction's self time: its root span minus the time its child spans
   cover. Children of one transaction never overlap (each attempt issues
   its calls one after another), so the covered time is their sum. Returns
   one value per root span named [root]. *)
let self_times t ~root =
  let children = Hashtbl.create 1024 in
  List.iter
    (fun s ->
      if s.parent <> 0 then
        let prev = Option.value ~default:0.0 (Hashtbl.find_opt children s.parent) in
        Hashtbl.replace children s.parent (prev +. (s.t1 -. s.t0)))
    t.spans;
  List.filter_map
    (fun s ->
      if s.parent = 0 && s.name = root then
        let covered = Option.value ~default:0.0 (Hashtbl.find_opt children s.id) in
        Some (s.t1 -. s.t0 -. covered)
      else None)
    t.spans

let write t path =
  let oc = open_out path in
  List.iter
    (fun s ->
      Printf.fprintf oc
        "{\"id\":%d,\"parent\":%d,\"txn\":%d,\"name\":\"%s\",\"clock\":\"%s\",\"t0\":%.9f,\"t1\":%.9f}\n"
        s.id s.parent s.txn s.name
        (match s.clock with Sim -> "sim" | Wall -> "wall")
        s.t0 s.t1)
    (List.rev t.spans);
  close_out oc
