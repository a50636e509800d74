open Fdb_sim
open Future.Syntax

let test_time_advances () =
  let final =
    Engine.run (fun () ->
        let* () = Engine.sleep 1.5 in
        let* () = Engine.sleep 2.5 in
        Future.return (Engine.now ()))
  in
  Alcotest.(check (float 1e-9)) "virtual time" 4.0 final

let test_ordering_fifo_at_same_time () =
  let order =
    Engine.run (fun () ->
        let acc = ref [] in
        Engine.schedule (fun () -> acc := 1 :: !acc);
        Engine.schedule (fun () -> acc := 2 :: !acc);
        Engine.schedule ~after:0.0 (fun () -> acc := 3 :: !acc);
        let* () = Engine.sleep 0.1 in
        Future.return (List.rev !acc))
  in
  Alcotest.(check (list int)) "fifo ties" [ 1; 2; 3 ] order

let test_deadlock_detected () =
  Alcotest.check_raises "deadlock" Engine.Deadlock (fun () ->
      Engine.run (fun () ->
          let f, _p = Future.make () in
          f))

let test_deterministic_runs () =
  let run_once seed =
    Engine.run ~seed (fun () ->
        let acc = ref [] in
        let rec actor name n =
          if n = 0 then Future.return ()
          else
            let* () = Engine.sleep (Engine.random_float 1.0) in
            acc := (name, Engine.now ()) :: !acc;
            actor name (n - 1)
        in
        let* () = Future.all_unit [ actor "a" 20; actor "b" 20 ] in
        Future.return (List.rev !acc))
  in
  Alcotest.(check bool) "same seed same schedule" true (run_once 99L = run_once 99L);
  Alcotest.(check bool) "different seed different schedule" true
    (run_once 99L <> run_once 100L)

let test_timeout_fires () =
  let r =
    Engine.run (fun () ->
        let f, _p = Future.make () in
        Future.catch
          (fun () -> Future.map (Engine.timeout 1.0 f) (fun _ -> `Ok))
          (function Engine.Timed_out -> Future.return `Timeout | e -> raise e))
  in
  Alcotest.(check bool) "timed out" true (r = `Timeout)

let test_timeout_win () =
  let r =
    Engine.run (fun () ->
        let f, p = Future.make () in
        Engine.schedule ~after:0.5 (fun () -> Future.fulfill p 42);
        Engine.timeout 1.0 f)
  in
  Alcotest.(check int) "value before timeout" 42 r

(* A cancelled timer is popped without running: its closure never runs,
   it does not feed the checksum, and it is not counted as pending or as
   executed. A timer scheduled past the end of the run (never popped)
   gives the same checksum; an uncancelled one does not. *)
let test_cancelled_timer_never_runs () =
  let run_with ~after ~cancel =
    let fired = ref false in
    let pending_after_cancel, executed =
      Engine.run ~seed:7L (fun () ->
          let timer = Engine.schedule_timer ~after (fun () -> fired := true) in
          if cancel then Engine.cancel timer;
          let pending = Engine.pending_tasks () in
          let* () = Engine.sleep 1.0 in
          Future.return (pending, Engine.events_executed ()))
    in
    (!fired, pending_after_cancel, executed, Engine.last_run_checksum ())
  in
  let fired, pending, executed, cancelled_csum = run_with ~after:0.5 ~cancel:true in
  Alcotest.(check bool) "cancelled timer never ran" false fired;
  Alcotest.(check int) "cancelled timer not pending" 0 pending;
  Alcotest.(check int) "only the sleep executed" 1 executed;
  let _, _, _, unreached_csum = run_with ~after:5.0 ~cancel:false in
  Alcotest.(check int64) "cancelled timer not folded into the checksum" unreached_csum
    cancelled_csum;
  let fired, _, _, fired_csum = run_with ~after:0.5 ~cancel:false in
  Alcotest.(check bool) "uncancelled timer ran" true fired;
  Alcotest.(check bool) "a run timer is folded" false (Int64.equal fired_csum cancelled_csum)

let test_timeout_win_cancels_timer () =
  let pending =
    Engine.run (fun () ->
        let f, p = Future.make () in
        Engine.schedule ~after:0.5 (fun () -> Future.fulfill p 42);
        let* _ = Engine.timeout 1.0 f in
        Future.return (Engine.pending_tasks ()))
  in
  Alcotest.(check int) "losing timeout left nothing queued" 0 pending

let test_kill_drops_tasks () =
  let r =
    Engine.run (fun () ->
        let m = Process.fresh_machine 1 in
        let p = Process.create ~name:"victim" m in
        let hits = ref 0 in
        Engine.schedule ~after:1.0 ~process:p (fun () -> incr hits);
        Engine.schedule ~after:0.5 (fun () -> Engine.kill p);
        let* () = Engine.sleep 2.0 in
        Future.return !hits)
  in
  Alcotest.(check int) "task dropped after kill" 0 r

let test_reboot_runs_boot_and_invalidates () =
  let r =
    Engine.run (fun () ->
        let m = Process.fresh_machine 1 in
        let p = Process.create ~name:"victim" m in
        let boots = ref 0 in
        p.Process.boot <- (fun () -> incr boots);
        let stale = ref 0 in
        Engine.schedule ~after:2.0 ~process:p (fun () -> incr stale);
        Engine.schedule ~after:0.5 (fun () -> Engine.reboot p ~delay:0.1 ());
        let* () = Engine.sleep 5.0 in
        Future.return (!boots, !stale))
  in
  Alcotest.(check (pair int int)) "boot ran, stale dropped" (1, 0) r

let test_reboot_hooks_run () =
  let r =
    Engine.run (fun () ->
        let m = Process.fresh_machine 1 in
        let p = Process.create m in
        let cleaned = ref false in
        Process.on_reboot p (fun () -> cleaned := true);
        Engine.kill p;
        Future.return !cleaned)
  in
  Alcotest.(check bool) "hook ran" true r

let test_cpu_queueing () =
  (* Two 1-second jobs on the same core: the second finishes at t=2. *)
  let r =
    Engine.run (fun () ->
        let m = Process.fresh_machine 1 in
        let p = Process.create m in
        let t1 = ref 0.0 and t2 = ref 0.0 in
        let job t_out () =
          let* () = Engine.cpu p 1.0 in
          t_out := Engine.now ();
          Future.return ()
        in
        let f1 = job t1 () in
        let f2 = job t2 () in
        let* () = Future.all_unit [ f1; f2 ] in
        Future.return (!t1, !t2))
  in
  Alcotest.(check (pair (float 1e-9) (float 1e-9))) "fcfs queue" (1.0, 2.0) r

let test_cpu_idle_skips () =
  let r =
    Engine.run (fun () ->
        let m = Process.fresh_machine 1 in
        let p = Process.create m in
        let* () = Engine.sleep 10.0 in
        let* () = Engine.cpu p 0.5 in
        Future.return (Engine.now ()))
  in
  Alcotest.(check (float 1e-9)) "no retroactive queue" 10.5 r

let test_spawn_error_traced () =
  Engine.run (fun () ->
      Engine.spawn "bad-actor" (fun () -> Future.fail Exit);
      let* () = Engine.sleep 0.1 in
      Future.return ());
  (* trace was reset by run; rerun capturing inside *)
  let count =
    Engine.run (fun () ->
        Engine.spawn "bad-actor" (fun () -> Future.fail Exit);
        let* () = Engine.sleep 0.1 in
        Future.return (Trace.count "actor_error"))
  in
  Alcotest.(check int) "actor error traced" 1 count

let test_max_time_guard () =
  Alcotest.(check bool) "max_time raises" true
    (try
       Engine.run ~max_time:10.0 (fun () ->
           let rec loop () =
             let* () = Engine.sleep 1.0 in
             loop ()
           in
           loop ())
     with Failure _ -> true)

let test_no_nested_runs () =
  Alcotest.(check bool) "nested run rejected" true
    (Engine.run (fun () ->
         Future.return
           (try
              Engine.run (fun () -> Future.return false)
            with Failure _ -> true)))

let test_buggify_off_by_default () =
  let fired =
    Engine.run (fun () -> Future.return (Buggify.on ~p:1.0 "test_point"))
  in
  Alcotest.(check bool) "inert without buggify" false fired

let test_buggify_fires_when_enabled () =
  (* With p=1.0 per evaluation, an activated point always fires; activation
     is ~25% per run, so across seeds some run must fire. *)
  let fired_any = ref false in
  for seed = 1 to 40 do
    let fired =
      Engine.run ~seed:(Int64.of_int seed) ~buggify:true (fun () ->
          Future.return (Buggify.on ~p:1.0 "test_point"))
    in
    if fired then fired_any := true
  done;
  Alcotest.(check bool) "fires under some seed" true !fired_any

(* Back-to-back runs share nothing: each starts from a fresh [Sim.t], so a
   run sees no buggify point, pid or trace event of the one before. The
   finished run stays readable until the next one starts. *)
let test_runs_are_isolated () =
  let rec dirty_run seed =
    let fired =
      Engine.run ~seed ~buggify:true (fun () ->
          let m = Process.fresh_machine 1 in
          let (_ : Process.t) = Process.create m and (_ : Process.t) = Process.create m in
          Trace.emit "isolation_probe" [];
          Future.return (Buggify.on ~p:1.0 "isolation_point"))
    in
    if not fired then dirty_run (Int64.succ seed)
  in
  dirty_run 1L;
  Alcotest.(check (list string)) "finished run's points" [ "isolation_point" ]
    (Buggify.points_hit ());
  Alcotest.(check int) "finished run's trace" 1 (Trace.count "isolation_probe");
  let points, probes, pid =
    Engine.run (fun () ->
        let points = Buggify.points_hit () and probes = Trace.count "isolation_probe" in
        let p = Process.create (Process.fresh_machine 1) in
        Future.return (points, probes, p.Process.pid))
  in
  Alcotest.(check (list string)) "no points carried over" [] points;
  Alcotest.(check int) "no trace carried over" 0 probes;
  Alcotest.(check int) "pids restart at 1" 1 pid

let test_outside_a_run () =
  Alcotest.(check bool) "buggify inert" false (Buggify.on ~p:1.0 "test_point");
  let before = Trace.events () in
  Trace.emit "outside_probe" [];
  Alcotest.(check int) "emit is a no-op" (List.length before) (List.length (Trace.events ()));
  Alcotest.(check bool) "process creation fails" true
    (match Process.create (Process.fresh_machine 1) with
    | (_ : Process.t) -> false
    | exception Failure _ -> true)

(* ---------- the indexed heap against a sorted reference model ----------

   One op program is interpreted twice: on the engine, and on a reference
   scheduler that keeps its queue as a plain list and always runs the
   least (time, seq) task. The program schedules plain tasks and timers,
   cancels handles (again, after they ran, and from inside running
   tasks), and advances time by scheduling its own continuation. Both
   runs must execute the same tasks at the same times in the same order,
   and report the same number of pending tasks after every op. *)

type heap_op =
  | Sched of int (* Engine.schedule after d *)
  | Timer of int (* Engine.schedule_timer after d; keeps the handle *)
  | Cancel of int (* cancel handle k mod #handles *)
  | Cancel_in_task of int * int (* a timer after d that cancels handle k when it runs *)
  | Advance of int (* the program resumes d seconds later *)

let pp_heap_op = function
  | Sched d -> Printf.sprintf "Sched %d" d
  | Timer d -> Printf.sprintf "Timer %d" d
  | Cancel k -> Printf.sprintf "Cancel %d" k
  | Cancel_in_task (d, k) -> Printf.sprintf "Cancel_in_task (%d, %d)" d k
  | Advance d -> Printf.sprintf "Advance %d" d

type 'h sched = {
  now : unit -> float;
  timer : float -> (unit -> unit) -> 'h;
  fire : float -> (unit -> unit) -> unit;
  cancel : 'h -> unit;
  pending : unit -> int;
}

(* Runs [ops] on [s]; returns the (time, id) log of test tasks in run
   order and the pending count after every op. [finish] runs once every
   test task is due. *)
let interpret s ops ~finish =
  let log = ref [] and pendings = ref [] and next_id = ref 0 in
  let handles = Hashtbl.create 16 in
  let nth_handle k =
    let n = Hashtbl.length handles in
    if n = 0 then None else Hashtbl.find_opt handles (k mod n)
  in
  let task body =
    let id = !next_id in
    incr next_id;
    fun () ->
      log := (s.now (), id) :: !log;
      body ()
  in
  let keep h = Hashtbl.replace handles (Hashtbl.length handles) h in
  let rec drive = function
    | [] -> s.fire 10.0 finish
    | op :: rest -> (
        (match op with
        | Sched d -> s.fire (float d) (task ignore)
        | Timer d -> keep (s.timer (float d) (task ignore))
        | Cancel k -> Option.iter s.cancel (nth_handle k)
        | Cancel_in_task (d, k) ->
            keep (s.timer (float d) (task (fun () -> Option.iter s.cancel (nth_handle k))))
        | Advance _ -> ());
        pendings := s.pending () :: !pendings;
        match op with Advance d -> s.fire (float d) (fun () -> drive rest) | _ -> drive rest)
  in
  drive ops;
  (log, pendings)

let engine_run ops =
  let log, pendings =
    Engine.run ~seed:5L (fun () ->
        let fut, p = Future.make () in
        let s =
          {
            now = Engine.now;
            timer = (fun d f -> Engine.schedule_timer ~after:d f);
            fire = (fun d f -> Engine.schedule ~after:d f);
            cancel = Engine.cancel;
            pending = Engine.pending_tasks;
          }
        in
        let log, pendings = interpret s ops ~finish:(fun () -> Future.fulfill p ()) in
        Future.map fut (fun () -> (log, pendings)))
  in
  (List.rev !log, List.rev !pendings)

type model_task = { m_time : float; m_seq : int; m_run : unit -> unit }

let model_run ops =
  let clock = ref 0.0 and seq = ref 0 and queue = ref [] and finished = ref false in
  let timer after f =
    incr seq;
    let t = { m_time = !clock +. after; m_seq = !seq; m_run = f } in
    queue := t :: !queue;
    t
  in
  let s =
    {
      now = (fun () -> !clock);
      timer;
      fire = (fun d f -> ignore (timer d f : model_task));
      cancel = (fun t -> queue := List.filter (fun x -> x != t) !queue);
      pending = (fun () -> List.length !queue);
    }
  in
  let log, pendings = interpret s ops ~finish:(fun () -> finished := true) in
  let before a b = a.m_time < b.m_time || (a.m_time = b.m_time && a.m_seq < b.m_seq) in
  while not !finished do
    let next =
      List.fold_left (fun m t -> if before t m then t else m) (List.hd !queue) !queue
    in
    queue := List.filter (fun x -> x != next) !queue;
    if next.m_time > !clock then clock := next.m_time;
    next.m_run ()
  done;
  (List.rev !log, List.rev !pendings)

let qcheck_heap_model =
  let op_gen =
    QCheck.Gen.(
      frequency
        [
          (3, map (fun d -> Sched d) (int_range 0 5));
          (4, map (fun d -> Timer d) (int_range 0 5));
          (3, map (fun k -> Cancel k) (int_range 0 20));
          (2, map2 (fun d k -> Cancel_in_task (d, k)) (int_range 0 5) (int_range 0 20));
          (2, map (fun d -> Advance d) (int_range 0 3));
        ])
  in
  QCheck.Test.make ~name:"indexed heap matches sorted reference model" ~count:300
    (QCheck.make
       ~print:(fun ops -> String.concat "; " (List.map pp_heap_op ops))
       QCheck.Gen.(list_size (int_range 0 80) op_gen))
    (fun ops ->
      let ((log, pendings) as engine) = engine_run ops in
      if engine <> model_run ops then QCheck.Test.fail_report "engine and model diverge";
      (* The model's own order is (time, creation), and ids are creation order. *)
      if List.sort compare log <> log then QCheck.Test.fail_report "log not in (time, seq) order";
      List.length pendings = List.length ops)

(* A handle kept from a finished run still records the heap slot it had
   there. Cancelling it during a later run must not take out whichever of
   the later run's tasks now sits in that slot. *)
let test_stale_handle_cancel () =
  let stale =
    Engine.run ~seed:3L (fun () ->
        let ran = Engine.schedule_timer ~after:0.5 ignore in
        let unreached = List.init 16 (fun i -> Engine.schedule_timer ~after:(100.0 +. float i) ignore) in
        let* () = Engine.sleep 1.0 in
        Future.return (ran :: unreached))
  in
  let later ~cancel_stale =
    let ran = ref 0 in
    let before, after =
      Engine.run ~seed:4L (fun () ->
          for i = 0 to 31 do
            Engine.schedule ~after:(float i) (fun () -> incr ran)
          done;
          let before = Engine.pending_tasks () in
          if cancel_stale then List.iter Engine.cancel stale;
          let after = Engine.pending_tasks () in
          let* () = Engine.sleep 40.0 in
          Future.return (before, after))
    in
    (before, after, !ran, Engine.last_run_checksum ())
  in
  let before, after, ran, csum = later ~cancel_stale:true in
  Alcotest.(check int) "queue unchanged by stale cancels" before after;
  Alcotest.(check int) "every later task ran" 32 ran;
  let _, _, _, clean_csum = later ~cancel_stale:false in
  Alcotest.(check int64) "checksum unchanged by stale cancels" clean_csum csum

let suite =
  [
    Alcotest.test_case "time advances" `Quick test_time_advances;
    Alcotest.test_case "fifo ties" `Quick test_ordering_fifo_at_same_time;
    Alcotest.test_case "deadlock detected" `Quick test_deadlock_detected;
    Alcotest.test_case "deterministic runs" `Quick test_deterministic_runs;
    Alcotest.test_case "timeout fires" `Quick test_timeout_fires;
    Alcotest.test_case "timeout win" `Quick test_timeout_win;
    Alcotest.test_case "cancelled timer never runs" `Quick test_cancelled_timer_never_runs;
    Alcotest.test_case "timeout win cancels its timer" `Quick test_timeout_win_cancels_timer;
    QCheck_alcotest.to_alcotest qcheck_heap_model;
    Alcotest.test_case "stale handle cancel leaves a later run alone" `Quick
      test_stale_handle_cancel;
    Alcotest.test_case "kill drops tasks" `Quick test_kill_drops_tasks;
    Alcotest.test_case "reboot boots and invalidates" `Quick test_reboot_runs_boot_and_invalidates;
    Alcotest.test_case "reboot hooks" `Quick test_reboot_hooks_run;
    Alcotest.test_case "cpu queueing" `Quick test_cpu_queueing;
    Alcotest.test_case "cpu idle skips" `Quick test_cpu_idle_skips;
    Alcotest.test_case "spawn error traced" `Quick test_spawn_error_traced;
    Alcotest.test_case "max_time guard" `Quick test_max_time_guard;
    Alcotest.test_case "no nested runs" `Quick test_no_nested_runs;
    Alcotest.test_case "buggify off by default" `Quick test_buggify_off_by_default;
    Alcotest.test_case "buggify fires when enabled" `Quick test_buggify_fires_when_enabled;
    Alcotest.test_case "runs are isolated" `Quick test_runs_are_isolated;
    Alcotest.test_case "outside a run" `Quick test_outside_a_run;
  ]
