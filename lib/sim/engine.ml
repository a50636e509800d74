exception Deadlock
exception Timed_out
exception Killed

module Rng = Fdb_util.Det_rng

type task = Sim.task = {
  t_time : float;
  t_seq : int;
  t_owner : (Process.t * int) option;
  mutable t_run : unit -> unit;
  mutable t_pos : int;
}

type timer = task

let noop () = ()

(* Indexed binary min-heap on (time, seq). seq breaks ties FIFO, which is
   what makes the whole simulation deterministic. Every task records its
   own slot, so a cancelled task is taken out at once in O(log n) and the
   heap holds only live tasks. *)
module Heap = struct
  type t = Sim.heap = { mutable arr : task array; mutable len : int }

  let dummy = { t_time = 0.0; t_seq = 0; t_owner = None; t_run = noop; t_pos = -1 }

  let less a b = a.t_time < b.t_time || (a.t_time = b.t_time && a.t_seq < b.t_seq)

  (* Settle [x] into the hole at [i], moving larger ancestors down. *)
  let sift_up h i x =
    let arr = h.arr in
    let i = ref i in
    while !i > 0 && less x arr.((!i - 1) / 2) do
      let parent = (!i - 1) / 2 in
      let p = arr.(parent) in
      arr.(!i) <- p;
      p.t_pos <- !i;
      i := parent
    done;
    arr.(!i) <- x;
    x.t_pos <- !i

  (* Settle [x] into the hole at [i], moving smaller children up. *)
  let sift_down h i x =
    let arr = h.arr and len = h.len in
    let i = ref i and continue = ref true in
    while !continue do
      let l = (2 * !i) + 1 in
      if l >= len then continue := false
      else begin
        let c = if l + 1 < len && less arr.(l + 1) arr.(l) then l + 1 else l in
        let child = arr.(c) in
        if less child x then begin
          arr.(!i) <- child;
          child.t_pos <- !i;
          i := c
        end
        else continue := false
      end
    done;
    arr.(!i) <- x;
    x.t_pos <- !i

  let push h x =
    if h.len = Array.length h.arr then begin
      let arr' = Array.make (max 1024 (2 * h.len)) dummy in
      Array.blit h.arr 0 arr' 0 h.len;
      h.arr <- arr'
    end;
    h.len <- h.len + 1;
    sift_up h (h.len - 1) x

  (* Take out the task at slot [i]: the last task fills the hole and moves
     up or down from there. *)
  let remove_at h i =
    h.arr.(i).t_pos <- -1;
    let last = h.len - 1 in
    let x = h.arr.(last) in
    h.arr.(last) <- dummy;
    h.len <- last;
    if i < last then
      if i > 0 && less x h.arr.((i - 1) / 2) then sift_up h i x else sift_down h i x

  (* The earliest task; the heap must not be empty. *)
  let pop h =
    let top = h.arr.(0) in
    remove_at h 0;
    top

  (* [task] is in this heap: a handle kept from an earlier run may carry a
     slot index that is in range here but holds another task. *)
  let holds h task =
    let i = task.t_pos in
    i >= 0 && i < h.len && h.arr.(i) == task
end

(* The running simulation's state (see [Sim]). *)
let get () =
  let s = Sim.get () in
  if s.Sim.running then s else failwith "Engine: no simulation running"

let is_running () = (Sim.get ()).Sim.running
let now () = (get ()).Sim.clock
let trace_checksum () = (get ()).Sim.csum
let last_run_checksum () = (Sim.get ()).Sim.csum

let last_run_lifecycle () =
  let s = Sim.get () in
  {
    Future.Lifecycle.lr_created = s.Sim.lc_created;
    lr_resolved = s.Sim.lc_resolved;
    lr_leaked = s.Sim.lc_leaked;
    lr_double_resolved = Fdb_util.Det_tbl.to_sorted_list s.Sim.lc_doubles;
    lr_detach_failures = Fdb_util.Det_tbl.to_sorted_list s.Sim.lc_detach_failures;
  }

let pending_tasks () = (get ()).Sim.heap.len

let events_executed () = (get ()).Sim.executed

let schedule_timer ?(after = 0.0) ?process f =
  let e = get () in
  let owner =
    match (match process with Some _ -> process | None -> e.proc_ctx) with
    | Some p -> Some (p, p.Process.incarnation)
    | None -> None
  in
  e.seq <- e.seq + 1;
  let after = if after < 0.0 then 0.0 else after in
  let task =
    { t_time = e.clock +. after; t_seq = e.seq; t_owner = owner; t_run = f; t_pos = -1 }
  in
  Heap.push e.heap task;
  task

let schedule ?after ?process f = ignore (schedule_timer ?after ?process f : timer)

(* A cancelled task leaves the heap at once, so the heap holds only live
   tasks and a dead timer costs neither a pop nor a sift. Its closure is
   dropped too, so whatever it captured is collectable now. A handle kept
   from a finished run is not in the current heap and touches nothing. *)
let cancel task =
  task.t_run <- noop;
  let s = Sim.get () in
  if Heap.holds s.Sim.heap task then Heap.remove_at s.Sim.heap task.t_pos

let with_process p f =
  let e = get () in
  let saved = e.proc_ctx in
  e.proc_ctx <- Some p;
  Fun.protect ~finally:(fun () -> e.proc_ctx <- saved) f

let sleep dt =
  let fut, promise = Future.make () in
  schedule ~after:dt (fun () -> Future.fulfill promise ());
  fut

let sleep_until t =
  let dt = t -. now () in
  sleep (if dt < 0.0 then 0.0 else dt)

let yield () = sleep 0.0

let spawn ?process name f =
  let start () =
    match f () with
    | fut ->
        Future.on_resolve fut (function
          | Ok () -> ()
          | Error e -> Trace.emit "actor_error" [ ("actor", name); ("exn", Printexc.to_string e) ])
    | exception e ->
        Trace.emit "actor_error" [ ("actor", name); ("exn", Printexc.to_string e) ]
  in
  match process with
  | Some p -> schedule ~process:p (fun () -> with_process p start)
  | None -> schedule start

let timeout dt fut =
  if Future.is_resolved fut then fut
  else begin
    let out, p = Future.make () in
    (* false = the underlying future won the race; not a lost wakeup. *)
    let timer =
      schedule_timer ~after:dt (fun () -> ignore (Future.try_break p Timed_out : bool))
    in
    Future.on_resolve fut (fun r ->
        cancel timer;
        (* false = the timeout fired first; the result is intentionally dropped. *)
        ignore
          ((match r with
           | Ok v -> Future.try_fulfill p v
           | Error e -> Future.try_break p e)
           : bool));
    out
  end

let fork_rng () = Rng.split (get ()).root_rng
let random_float b = Rng.float (get ()).root_rng b
let random_int b = Rng.int (get ()).root_rng b
let chance p = Rng.chance (get ()).root_rng p

let cpu p dt =
  let e = get () in
  let open Process in
  let start = if p.cpu_busy_until > e.clock then p.cpu_busy_until else e.clock in
  let finish = start +. dt in
  p.cpu_busy_until <- finish;
  p.cpu_used <- p.cpu_used +. dt;
  let fut, promise = Future.make () in
  schedule ~after:(finish -. e.clock) ~process:p (fun () -> Future.fulfill promise ());
  fut

let kill p =
  Trace.emit "kill" [ ("process", p.Process.name); ("pid", string_of_int p.Process.pid) ];
  Process.mark_dead p

let reboot p ?(delay = 0.5) () =
  if p.Process.alive then Process.mark_dead p;
  (* The reboot task must not be owned by the (dead) process itself. *)
  schedule ~after:delay (fun () ->
      if not p.Process.alive then begin
        Process.mark_rebooted p;
        Trace.emit "reboot"
          [ ("process", p.Process.name); ("pid", string_of_int p.Process.pid) ];
        with_process p (fun () -> p.Process.boot ())
      end)

let run ?(seed = 1L) ?(max_time = 1e7) ?(buggify = false) f =
  if is_running () then failwith "Engine.run: simulation already running";
  let e = Sim.create ~seed ~buggify in
  e.running <- true;
  Domain.DLS.set Sim.slot e;
  Fun.protect ~finally:(fun () -> Sim.finish e) @@ fun () ->
  let root = f () in
  let result = ref None in
  Future.on_resolve root (fun r -> result := Some r);
  let rec loop () =
    match !result with
    | Some r -> r
    | None ->
        if e.heap.len = 0 then raise Deadlock;
        let task = Heap.pop e.heap in
        if task.t_time > max_time then
          failwith (Printf.sprintf "Engine.run: exceeded max_time %.0fs" max_time);
        if task.t_time > e.clock then e.clock <- task.t_time;
        let live =
          match task.t_owner with
          | None -> true
          | Some (p, inc) -> Process.is_live p inc
        in
        if live then begin
          let pid = match task.t_owner with Some (p, _) -> p.Process.pid | None -> -1 in
          e.csum <-
            Sim.fnv1a_int64
              (Sim.fnv1a_int64
                 (Sim.fnv1a_int64 e.csum (Int64.bits_of_float task.t_time))
                 (Int64.of_int pid))
              (Int64.of_int task.t_seq);
          e.executed <- e.executed + 1;
          let saved = e.proc_ctx in
          e.proc_ctx <- (match task.t_owner with Some (p, _) -> Some p | None -> None);
          (try task.t_run ()
           with exn ->
             e.proc_ctx <- saved;
             raise exn);
          e.proc_ctx <- saved
        end;
        loop ()
  in
  match loop () with Ok v -> v | Error exn -> raise exn
