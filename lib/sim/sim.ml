(* All per-run simulator state, as one value.

   [Engine.run] makes a fresh [t], installs it in this domain's slot, and
   marks it finished when the run ends. Every module that keeps state for
   a run — the engine's queue and clock, the trace buffer, the buggify
   decisions, the pid counter and the promise-lifecycle sanitizer — reads
   and writes its fields here instead of keeping a global of its own, so
   nothing leaks from one run into the next and a second domain runs a
   simulation of its own. After a run the slot keeps the finished value
   (its queue and pending-promise table emptied) for the post-run readers:
   [Engine.last_run_checksum], [Engine.last_run_lifecycle], [Trace.count]
   and [Trace.events]. The module is private to this library: code outside
   reaches per-run state only through Engine, Trace, Buggify, Process and
   Future. *)

module Rng = Fdb_util.Det_rng
module Det_tbl = Fdb_util.Det_tbl

(* Re-exported with their field docs by [Process]. *)
type machine = {
  machine_id : int;
  dc : string;
  rack : string;
  mutable machine_processes : process list;
}

and process = {
  pid : int;
  name : string;
  machine : machine;
  mutable alive : bool;
  mutable incarnation : int;
  mutable cpu_busy_until : float;
  mutable cpu_used : float;
  mutable boot : unit -> unit;
  mutable reboot_hooks : (unit -> unit) list;
}

type task = {
  t_time : float;
  t_seq : int;
  t_owner : (process * int) option; (* process, incarnation at schedule time *)
  mutable t_run : unit -> unit;
  mutable t_pos : int; (* index in the heap array; -1 once popped or cancelled *)
}

(* The engine's event queue; [Engine] keeps it a binary min-heap. *)
type heap = { mutable arr : task array; mutable len : int }

(* Re-exported by [Trace]. *)
type trace_event = { te_time : float; te_name : string; te_fields : (string * string) list }

(* A labeled promise's label and its key in [lc_pending] (0 when the
   promise was made outside a run and is not tracked). *)
type tag = { tag_label : string; tag_id : int }

(* A labeled promise still pending: its creating process and incarnation,
   and whether anybody waits on it. *)
type pending = { pd_tag : tag; pd_owner : (process * int) option; pd_waited : unit -> bool }

type t = {
  mutable running : bool;
  (* engine *)
  heap : heap;
  mutable clock : float;
  mutable seq : int;
  root_rng : Rng.t;
  mutable proc_ctx : process option;
  mutable csum : int64; (* running FNV-1a over executed events and trace kinds *)
  mutable executed : int; (* tasks dispatched to a live owner and run *)
  (* trace *)
  mutable trace : trace_event list; (* newest first *)
  (* buggify *)
  buggify : bool;
  bug_rng : Rng.t;
  bug_active : (string, bool) Hashtbl.t; (* per-point activation, drawn on first use *)
  bug_fired : (string, unit) Det_tbl.t;
  (* process *)
  mutable next_pid : int;
  (* promise-lifecycle sanitizer *)
  mutable lc_created : int;
  mutable lc_resolved : int;
  mutable lc_next_id : int;
  lc_pending : (int, pending) Det_tbl.t;
  lc_doubles : (string, int) Det_tbl.t;
  lc_detach_failures : (string, int) Det_tbl.t;
  mutable lc_leaked : (string * int) list; (* settled when the run ends *)
}

(* ---- trace checksum (paper §4's nondeterminism backstop) ----
   Every executed event — each dispatched task's (time, pid, seq) and each
   Trace event kind — is folded into a running FNV-1a64. Two runs of the
   same seed must produce the same final checksum; any wall-clock read,
   unseeded RNG draw, or unordered iteration shows up as a divergence. *)

let fnv_offset = 0xcbf29ce484222325L
let fnv_prime = 0x100000001b3L

let fnv1a_byte h b =
  Int64.mul (Int64.logxor h (Int64.of_int (b land 0xff))) fnv_prime

let fnv1a_int64 h v =
  let h = ref h in
  for i = 0 to 7 do
    h := fnv1a_byte !h (Int64.to_int (Int64.shift_right_logical v (8 * i)))
  done;
  !h

let fnv1a_string h s =
  let h = ref h in
  String.iter (fun c -> h := fnv1a_byte !h (Char.code c)) s;
  !h

let create ~seed ~buggify =
  let root_rng = Rng.create seed in
  {
    running = false;
    heap = { arr = [||]; len = 0 };
    clock = 0.0;
    seq = 0;
    root_rng;
    proc_ctx = None;
    csum = fnv1a_int64 fnv_offset seed;
    executed = 0;
    trace = [];
    buggify;
    (* Split even when buggify is off, so the root stream is the same. *)
    bug_rng = Rng.split root_rng;
    bug_active = Hashtbl.create 32;
    bug_fired = Det_tbl.create ~size:32 ();
    next_pid = 0;
    lc_created = 0;
    lc_resolved = 0;
    lc_next_id = 0;
    lc_pending = Det_tbl.create ~size:64 ();
    lc_doubles = Det_tbl.create ~size:8 ();
    lc_detach_failures = Det_tbl.create ~size:8 ();
    lc_leaked = [];
  }

(* One slot per domain. Before the first run it holds a finished, empty
   value, so the post-run readers see zeroes. *)
let slot = Domain.DLS.new_key (fun () -> create ~seed:0L ~buggify:false)
let get () = Domain.DLS.get slot

let bump tbl key =
  Det_tbl.replace tbl key (1 + Option.value ~default:0 (Det_tbl.find_opt tbl key))

(* End the run. The sanitizer's verdict is settled first: a labeled
   promise still pending with waiters, whose creating process is still
   live, is a leaked wakeup. Then the queue and the pending table are
   emptied, so the finished value holds no closure of the run. *)
let finish t =
  t.running <- false;
  t.proc_ctx <- None;
  let leaks = Det_tbl.create () in
  Det_tbl.iter
    (fun _ pd ->
      let owner_live =
        match pd.pd_owner with None -> true | Some (p, inc) -> p.alive && p.incarnation = inc
      in
      if owner_live && pd.pd_waited () then bump leaks pd.pd_tag.tag_label)
    t.lc_pending;
  t.lc_leaked <- Det_tbl.to_sorted_list leaks;
  Det_tbl.reset t.lc_pending;
  t.heap.arr <- [||];
  t.heap.len <- 0
