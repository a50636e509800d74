(* Client watches (paper §1's "watch" primitive): version-carrying
   long-polls against the storage servers. Fires exactly once per
   triggering commit, stays silent on idle keys across poll-timeout
   re-registrations, survives shard moves of the watched key, is
   cancelled (not leaked) when the arming transaction aborts or the
   client process dies. *)

open Fdb_sim
open Fdb_core
open Future.Syntax

let with_cluster ?(seed = 71L) body =
  Engine.run ~seed ~max_time:1e5 (fun () ->
      let cluster = Cluster.create ~config:Config.test_small () in
      let* () = Cluster.wait_ready cluster in
      body cluster)

let write db k v =
  Client.run db (fun tx ->
      Client.set tx k v;
      Future.return ())

(* Arm a watch inside a committed transaction and return it. *)
let arm db k =
  Client.run db (fun tx ->
      let* _ = Client.get tx k in
      Future.return (Client.watch tx k))

let await_fire ?(timeout = 60.0) w =
  Future.catch
    (fun () ->
      let* () = Engine.timeout timeout (Client.watch_future w) in
      Future.return true)
    (function Engine.Timed_out -> Future.return false | e -> Future.fail e)

(* ---------- silence on idle keys, a fire per triggering commit ------- *)

let test_fires_once_not_spuriously () =
  let fired_while_idle, fired_after_write =
    with_cluster (fun cluster ->
        let db = Cluster.client cluster ~name:"watcher" in
        let wdb = Cluster.client cluster ~name:"writer" in
        let* () = write wdb "watch/k" "v0" in
        let* w = arm db "watch/k" in
        (* Long idle stretch: several watch-poll timeouts elapse, so the
           client re-registers repeatedly; none of that may fire it. *)
        let* () = Engine.sleep 12.0 in
        let fired_while_idle = Future.is_resolved (Client.watch_future w) in
        let* () = write wdb "watch/k" "v1" in
        let* fired_after_write = await_fire w in
        Future.return (fired_while_idle, fired_after_write))
  in
  Alcotest.(check bool) "silent over 12 idle seconds" false fired_while_idle;
  Alcotest.(check bool) "fires after the triggering commit" true fired_after_write

(* ---------- the arming transaction's own write does not self-fire ---- *)

let test_own_commit_does_not_self_trigger () =
  let self_fired, later_fired =
    with_cluster (fun cluster ->
        let db = Cluster.client cluster ~name:"watcher" in
        let wdb = Cluster.client cluster ~name:"writer" in
        let* w =
          Client.run db (fun tx ->
              Client.set tx "watch/self" "mine";
              Future.return (Client.watch tx "watch/self"))
        in
        let* () = Engine.sleep 8.0 in
        let self_fired = Future.is_resolved (Client.watch_future w) in
        let* () = write wdb "watch/self" "theirs" in
        let* later_fired = await_fire w in
        Future.return (self_fired, later_fired))
  in
  Alcotest.(check bool) "own commit is the watch's base version" false self_fired;
  Alcotest.(check bool) "a later commit fires it" true later_fired

(* ---------- abort cancels; cancel resolves; nothing leaks ------------ *)

let test_aborted_tx_cancels_watch () =
  let cancelled =
    with_cluster (fun cluster ->
        let db = Cluster.client cluster ~name:"watcher" in
        let wdb = Cluster.client cluster ~name:"rival" in
        let* () = write wdb "watch/c" "v0" in
        (* Raw transaction so the conflict is not retried away. *)
        let tx = Client.begin_tx db in
        let* _ = Client.get tx "watch/c" in
        let w = Client.watch tx "watch/c" in
        let* () = write wdb "watch/c" "rival" in
        Client.set tx "watch/c" "mine";
        let* commit_failed =
          Future.catch
            (fun () ->
              let* _ = Client.commit tx in
              Future.return false)
            (function Error.Fdb _ -> Future.return true | e -> Future.fail e)
        in
        let* cancelled =
          Future.catch
            (fun () ->
              let* () = Client.watch_future w in
              Future.return false)
            (function
              | Future.Cancelled _ -> Future.return true
              | _ -> Future.return false)
        in
        Future.return (commit_failed && cancelled))
  in
  Alcotest.(check bool) "conflicted commit breaks the watch" true cancelled;
  Alcotest.(check int) "no leaked promises" 0
    (Future.Lifecycle.total_leaks (Engine.last_run_lifecycle ()))

let test_cancel_watch () =
  let outcome =
    with_cluster (fun cluster ->
        let db = Cluster.client cluster ~name:"watcher" in
        let wdb = Cluster.client cluster ~name:"writer" in
        let* () = write wdb "watch/x" "v0" in
        let* w = arm db "watch/x" in
        let* () = Engine.sleep 0.5 in
        Client.cancel_watch w;
        let* cancelled =
          Future.catch
            (fun () ->
              let* () = Client.watch_future w in
              Future.return false)
            (function
              | Future.Cancelled _ -> Future.return true
              | _ -> Future.return false)
        in
        (* Give the long-poll fiber time to observe the cancel and wind
           down before the run ends. *)
        let* () = Engine.sleep (Params.watch_poll_timeout +. 2.0) in
        Future.return cancelled)
  in
  Alcotest.(check bool) "cancel breaks the watch future" true outcome;
  Alcotest.(check int) "no leaked promises" 0
    (Future.Lifecycle.total_leaks (Engine.last_run_lifecycle ()))

(* ---------- the client process dies mid-watch ------------------------ *)

let test_client_death_leaks_nothing () =
  let armed =
    with_cluster (fun cluster ->
        let setup = Cluster.client cluster ~name:"setup" in
        let* () = write setup "watch/d" "v0" in
        let machine = Process.fresh_machine ~dc:"dc1" 920_000 in
        let proc = Process.create ~name:"doomed-watcher" machine in
        let db = Client.create_db (Cluster.context cluster) proc in
        (* Arm from a fiber on the doomed process and only report through
           refs: awaiting its future directly would leave this test's
           continuation owned by the process we are about to kill. *)
        let armed = ref false in
        let ready = ref false in
        Engine.spawn ~process:proc "doomed-watch-arm" (fun () ->
            let* w = arm db "watch/d" in
            armed := not (Future.is_resolved (Client.watch_future w));
            ready := true;
            Future.return ());
        let rec wait n =
          if !ready || n = 0 then Future.return ()
          else
            let* () = Engine.sleep 0.5 in
            wait (n - 1)
        in
        let* () = wait 120 in
        Engine.kill proc;
        (* Long enough for the server-side registration to time out and be
           reaped after the client is gone. *)
        let* () = Engine.sleep (Params.watch_poll_timeout +. 5.0) in
        Future.return !armed)
  in
  Alcotest.(check bool) "watch was armed before the kill" true armed;
  Alcotest.(check int) "no leaked promises after client death" 0
    (Future.Lifecycle.total_leaks (Engine.last_run_lifecycle ()))

(* ---------- the watched key's shard moves under the watch ------------ *)

let test_watch_survives_shard_move () =
  let team_changed, fired =
    with_cluster ~seed:73L (fun cluster ->
        let db = Cluster.client cluster ~name:"watcher" in
        let wdb = Cluster.client cluster ~name:"writer" in
        let mdb = Cluster.client cluster ~name:"mover" in
        let key = "mv/watched" in
        let* () = write wdb key "v0" in
        let* w = arm db key in
        let ctx = Cluster.context cluster in
        let sm = ctx.Context.shard_map in
        let lo, _ = Shard_map.shard_range_for_key sm key in
        let src = Shard_map.team_for_key sm key in
        let n_ss = Array.length ctx.Context.storage_eps in
        let missing =
          List.filter (fun s -> not (List.mem s src)) (List.init n_ss Fun.id)
        in
        let dst = List.sort compare (List.hd missing :: List.tl src) in
        let machine = Process.fresh_machine ~dc:"dc1" 920_001 in
        let proc = Process.create ~name:"watch-mover" machine in
        let* res = Data_distributor.move_shard ctx ~proc ~db:mdb ~lo ~dst in
        (match res with
        | Ok () -> ()
        | Error m -> failwith ("move failed: " ^ m));
        let team_changed = Shard_map.team_for_key sm key = dst in
        (* Let the watch re-resolve onto the new team, then trigger it. *)
        let* () = Engine.sleep (Params.watch_poll_timeout +. 1.0) in
        let* () = write wdb key "v1" in
        let* fired = await_fire w in
        Future.return (team_changed, fired))
  in
  Alcotest.(check bool) "shard actually moved" true team_changed;
  Alcotest.(check bool) "watch fires across the move" true fired

let suite =
  [
    Alcotest.test_case "silent when idle, fires on commit" `Quick
      test_fires_once_not_spuriously;
    Alcotest.test_case "own commit does not self-trigger" `Quick
      test_own_commit_does_not_self_trigger;
    Alcotest.test_case "aborted transaction cancels watch" `Quick
      test_aborted_tx_cancels_watch;
    Alcotest.test_case "cancel_watch resolves and reaps" `Quick test_cancel_watch;
    Alcotest.test_case "client death leaks nothing" `Quick
      test_client_death_leaks_nothing;
    Alcotest.test_case "watch survives shard move" `Quick
      test_watch_survives_shard_move;
  ]
