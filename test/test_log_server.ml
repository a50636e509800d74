(* Direct LogServer unit tests: chain ordering, out-of-order pushes,
   duplicate deliveries, peek/pop, locking, GC + resurrection. *)

open Fdb_sim
open Fdb_core
open Future.Syntax
module Mutation = Fdb_kv.Mutation

let mini_ctx () =
  let net : Message.t Network.t = Network.create () in
  {
    Context.net;
    config = Config.test_small;
    shard_map = Shard_map.build Config.test_small;
    coordinator_eps = [];
    worker_eps = [||];
    storage_eps = [||];
    metrics = Fdb_obs.Registry.create ();
    dd_policy = Context.idle_dd_policy;
  }

let entry ~lsn ~prev ?(kcv = 0L) payload =
  { Message.le_lsn = lsn; le_prev = prev; le_kcv = kcv; le_payload = payload }

let setup () =
  let ctx = mini_ctx () in
  let machine = Process.fresh_machine 1 in
  let proc = Process.create ~name:"tlog-test" machine in
  let client = Process.create ~name:"pusher" machine in
  let disk = Disk.create ~name:"tlog-disk" () in
  let _, ep = Log_server.create ctx proc ~disk ~epoch:1 ~id:0 ~start_lsn:0L in
  let push lsn prev payload =
    Context.rpc ctx ~timeout:5.0 ~from:client ep
      (Message.Log_push { lp_epoch = 1; lp_entry = entry ~lsn ~prev payload })
  in
  let peek tag from_version =
    let* reply =
      Context.rpc ctx ~timeout:5.0 ~from:client ep
        (Message.Log_peek { tag; from_version })
    in
    match reply with
    | Message.Log_peek_reply { pk_entries; pk_end; _ } -> Future.return (pk_entries, pk_end)
    | _ -> Future.fail Exit
  in
  (ctx, ep, client, proc, push, peek)

let test_in_order_push_and_peek () =
  let r =
    Engine.run (fun () ->
        let _, _, _, _, push, peek = setup () in
        let* a1 = push 5L 0L [ (0, [ Mutation.Set ("a", "1") ]) ] in
        let* a2 = push 9L 5L [ (0, [ Mutation.Set ("b", "2") ]) ] in
        let dv1 = match a1 with Message.Log_push_ack { durable_version } -> durable_version | _ -> -1L in
        let dv2 = match a2 with Message.Log_push_ack { durable_version } -> durable_version | _ -> -1L in
        let* entries, pk_end = peek 0 1L in
        Future.return (dv1, dv2, List.map fst entries, pk_end))
  in
  let dv1, dv2, versions, pk_end = r in
  Alcotest.(check bool) "first ack durable" true (dv1 >= 5L);
  Alcotest.(check bool) "second ack durable" true (dv2 >= 9L);
  Alcotest.(check (list int64)) "peek in order" [ 5L; 9L ] versions;
  Alcotest.(check int64) "caught up" 9L pk_end

let test_out_of_order_pushes_ack_in_chain_order () =
  let r =
    Engine.run (fun () ->
        let _, _, _, _, push, _ = setup () in
        (* Deliver lsn 9 (prev 5) before lsn 5: the ack for 9 must wait for
           the chain, and its durable version must cover 9 only once 5 is
           durable too. *)
        let late = push 9L 5L [ (0, [ Mutation.Set ("b", "2") ]) ] in
        let* () = Engine.sleep 0.01 in
        Alcotest.(check bool) "9 not acked before 5 arrives" true (Future.is_pending late);
        let* _ = push 5L 0L [ (0, [ Mutation.Set ("a", "1") ]) ] in
        let* a9 = late in
        match a9 with
        | Message.Log_push_ack { durable_version } -> Future.return durable_version
        | _ -> Future.fail Exit)
  in
  Alcotest.(check bool) "chain-contiguous durability" true (r >= 9L)

let test_duplicate_push_idempotent () =
  let r =
    Engine.run (fun () ->
        let _, _, _, _, push, peek = setup () in
        let* _ = push 5L 0L [ (0, [ Mutation.Set ("a", "1") ]) ] in
        let* _ = push 5L 0L [ (0, [ Mutation.Set ("a", "1") ]) ] in
        let* entries, _ = peek 0 1L in
        Future.return (List.length entries))
  in
  Alcotest.(check int) "no duplicate entries" 1 r

let test_pop_discards () =
  let r =
    Engine.run (fun () ->
        let ctx, ep, client, _, push, peek = setup () in
        let* _ = push 5L 0L [ (0, [ Mutation.Set ("a", "1") ]) ] in
        let* _ = push 9L 5L [ (0, [ Mutation.Set ("b", "2") ]) ] in
        let* _ =
          Context.rpc ctx ~timeout:5.0 ~from:client ep
            (Message.Log_pop { tag = 0; up_to = 5L })
        in
        let* entries, _ = peek 0 1L in
        Future.return (List.map fst entries))
  in
  Alcotest.(check (list int64)) "popped prefix gone" [ 9L ] r

let test_lock_stops_pushes_and_reports () =
  let r =
    Engine.run (fun () ->
        let ctx, ep, client, _, push, _ = setup () in
        let* _ = push 5L 0L [ (0, [ Mutation.Set ("a", "1") ]) ] in
        let* reply =
          Context.rpc ctx ~timeout:5.0 ~from:client ep (Message.Log_lock { ll_epoch = 2 })
        in
        let dv, n_entries =
          match reply with
          | Message.Log_lock_reply { lk_dv; lk_entries; _ } -> (lk_dv, List.length lk_entries)
          | _ -> (-1L, -1)
        in
        let* rejected =
          Future.catch
            (fun () ->
              let* _ = push 9L 5L [ (0, [ Mutation.Set ("b", "2") ]) ] in
              Future.return false)
            (function Error.Fdb Error.Wrong_epoch -> Future.return true | e -> raise e)
        in
        Future.return (dv, n_entries, rejected))
  in
  let dv, n, rejected = r in
  Alcotest.(check bool) "dv covers durable" true (dv >= 5L);
  Alcotest.(check int) "unpopped entries handed over" 1 n;
  Alcotest.(check bool) "post-lock push rejected" true rejected

let test_resurrect_after_prune () =
  (* The seed-502 regression at unit level: push, pop, wait for GC, crash,
     resurrect — the lock reply must still report the true durable version. *)
  let r =
    Engine.run (fun () ->
        let ctx, ep, client, proc, push, _ = setup () in
        let* _ = push 5L 0L [ (0, [ Mutation.Set ("a", "1") ]) ] in
        let* _ = push 9L 5L [ (0, [ Mutation.Set ("b", "2") ]) ] in
        let* _ =
          Context.rpc ctx ~timeout:5.0 ~from:client ep
            (Message.Log_pop { tag = 0; up_to = 9L })
        in
        (* GC runs every 2 s. *)
        let* () = Engine.sleep 5.0 in
        Engine.reboot proc ~delay:0.2 ();
        let* () = Engine.sleep 1.0 in
        let* reply =
          Context.rpc ctx ~timeout:5.0 ~from:client ep (Message.Log_lock { ll_epoch = 2 })
        in
        match reply with
        | Message.Log_lock_reply { lk_dv; _ } -> Future.return lk_dv
        | _ -> Future.return (-1L))
  in
  Alcotest.(check bool) "durable version survives prune + crash" true (r >= 9L)

(* ---------- long-poll peeks ---------- *)

let tag0 v = [ (0, [ Mutation.Set ("k", v) ]) ]

let test_peek_held_until_push () =
  let held_at_100ms, entries, pk_end, waited =
    Engine.run (fun () ->
        let _, _, _, _, push, peek = setup () in
        let* _ = push 5L 0L (tag0 "1") in
        let t0 = Engine.now () in
        let pending = peek 0 6L in
        let* () = Engine.sleep 0.1 in
        let held = Future.is_pending pending in
        let* _ = push 9L 5L (tag0 "2") in
        let* entries, pk_end = pending in
        Future.return (held, List.map fst entries, pk_end, Engine.now () -. t0))
  in
  Alcotest.(check bool) "peek above rcv is held" true held_at_100ms;
  Alcotest.(check (list int64)) "woken with the new entry" [ 9L ] entries;
  Alcotest.(check int64) "reply carries the new rcv" 9L pk_end;
  Alcotest.(check bool) "woken by the push, not the poll timeout" true
    (waited < Params.log_peek_poll_timeout)

let test_lock_breaks_held_peek () =
  let outcome, waited =
    Engine.run (fun () ->
        let ctx, ep, client, _, push, peek = setup () in
        let* _ = push 5L 0L (tag0 "1") in
        let t0 = Engine.now () in
        let held = peek 0 6L in
        let* () = Engine.sleep 0.05 in
        let* _ =
          Context.rpc ctx ~timeout:5.0 ~from:client ep (Message.Log_lock { ll_epoch = 2 })
        in
        let* outcome =
          Future.catch
            (fun () -> Future.map held (fun _ -> `Reply))
            (function Error.Fdb Error.Wrong_epoch -> Future.return `Wrong_epoch | e -> raise e)
        in
        Future.return (outcome, Engine.now () -. t0))
  in
  Alcotest.(check bool) "held peek answered Wrong_epoch" true (outcome = `Wrong_epoch);
  Alcotest.(check bool) "answered at the lock, not the poll timeout" true
    (waited < Params.log_peek_poll_timeout)

let test_poll_timeout_replies_empty () =
  let entries, pk_end, waited =
    Engine.run (fun () ->
        let _, _, _, _, push, peek = setup () in
        let* _ = push 5L 0L (tag0 "1") in
        let t0 = Engine.now () in
        let* entries, pk_end = peek 0 6L in
        Future.return (entries, pk_end, Engine.now () -. t0))
  in
  Alcotest.(check int) "empty reply" 0 (List.length entries);
  Alcotest.(check int64) "carries the current rcv" 5L pk_end;
  Alcotest.(check bool) "after the poll timeout" true
    (waited >= Params.log_peek_poll_timeout && waited < Params.log_peek_poll_timeout +. 0.05)

(* A storage server long-polling a log that dies must not wait on it: the
   held peek times out after the 1 s peek RPC timeout and the next peek
   goes to the other replica of its tag. *)
let test_storage_fails_over_to_replica () =
  let before_kill, after_timeout =
    Engine.run (fun () ->
        let ctx0 = mini_ctx () in
        let net = ctx0.Context.net in
        (* One empty coordinator: the storage server's generation lookup
           before it learns its logs finds nothing and returns. *)
        let coordinator = Network.fresh_endpoint net in
        let ctx =
          { ctx0 with
            Context.storage_eps = [| Network.fresh_endpoint net |];
            coordinator_eps = [ coordinator ] }
        in
        Coordinator.start ctx
          (Process.create ~name:"coordinator" (Process.fresh_machine 40))
          ~disk:(Disk.create ~name:"coord-disk" ()) ~endpoint:coordinator;
        let logs =
          List.map
            (fun id ->
              let proc = Process.create ~name:(Printf.sprintf "tlog-%d" id) (Process.fresh_machine (10 + id)) in
              let disk = Disk.create ~name:(Printf.sprintf "tlog-disk-%d" id) () in
              let _, ep = Log_server.create ctx proc ~disk ~epoch:1 ~id ~start_lsn:0L in
              (proc, ep))
            [ 0; 1 ]
        in
        let pusher = Process.create ~name:"pusher" (Process.fresh_machine 20) in
        let push logs lsn prev =
          Future.all
            (List.map
               (fun (_, ep) ->
                 Context.rpc ctx ~timeout:5.0 ~from:pusher ep
                   (Message.Log_push { lp_epoch = 1; lp_entry = entry ~lsn ~prev (tag0 "v") }))
               logs)
        in
        let ss_proc = Process.create ~name:"storage-0" (Process.fresh_machine 30) in
        let* ss =
          Engine.with_process ss_proc (fun () ->
              Storage_server.create ctx ss_proc ~id:0 ~disk:(Disk.create ~name:"ss-disk" ()))
        in
        let* _ =
          Context.rpc ctx ~timeout:5.0 ~from:pusher ctx.Context.storage_eps.(0)
            (Message.Ss_recover
               { sr_epoch = 1; sr_rv = 0L; sr_history = [];
                 sr_logs = List.mapi (fun i (_, ep) -> (i, ep)) logs })
        in
        let* _ = push logs 5L 0L in
        (* Long enough for the coordinator to come up and answer the
           lookup, and for a few poll timeouts to pass. *)
        let* () = Engine.sleep 3.0 in
        let before_kill = Storage_server.version ss in
        (* The storage server's peek is now held by its preferred log. *)
        Engine.kill (fst (List.hd logs));
        let* _ = push (List.tl logs) 9L 5L in
        (* The held peek was sent before the kill, so it times out within
           1 s; then one failure backoff and one round trip. *)
        let* () = Engine.sleep 1.1 in
        Future.return (before_kill, Storage_server.version ss))
  in
  Alcotest.(check int64) "caught up before the kill" 5L before_kill;
  Alcotest.(check int64) "pulled from the replica within the peek timeout" 9L after_timeout

(* ---------- resurrection's chain walk against the old fold (qcheck) ---------- *)

(* The walk [resurrect] used before [Log_server.chain_from], kept as the
   reference: per link, one key-sorted fold over the remaining records,
   whose head is the largest LSN naming [v] as predecessor. *)
let reference_chain ~floor records =
  let scratch = Fdb_util.Det_tbl.create () in
  List.iter
    (fun (e : Message.log_entry) ->
      if e.le_lsn > floor then Fdb_util.Det_tbl.replace scratch e.le_lsn e)
    records;
  let rec chain v acc =
    let candidates =
      Fdb_util.Det_tbl.fold
        (fun lsn (e : Message.log_entry) acc -> if e.le_prev = v then (lsn, e) :: acc else acc)
        scratch []
    in
    match candidates with
    | (lsn, e) :: _ ->
        Fdb_util.Det_tbl.remove scratch lsn;
        chain lsn (e :: acc)
    | [] -> List.rev acc
  in
  chain floor []

(* Small LSNs so that LSNs repeat, predecessors are shared, chains have
   gaps, and some records sit at or below the floor. [kcv] tells records
   with the same LSN apart. *)
let gen_wal =
  QCheck.Gen.(
    let record =
      int_range 0 40 >>= fun lsn ->
      frequency [ (3, map (fun d -> max 0 (lsn - d)) (int_range 1 3)); (1, int_range 0 40) ]
      >>= fun prev ->
      int_range 0 999 >|= fun kcv ->
      entry ~lsn:(Int64.of_int lsn) ~prev:(Int64.of_int prev) ~kcv:(Int64.of_int kcv) []
    in
    pair (map Int64.of_int (int_range 0 8)) (list_size (int_range 0 60) record))

let print_wal (floor, records) =
  Printf.sprintf "floor=%Ld [%s]" floor
    (String.concat "; "
       (List.map
          (fun (e : Message.log_entry) ->
            Printf.sprintf "%Ld<-%Ld kcv=%Ld" e.le_lsn e.le_prev e.le_kcv)
          records))

let qcheck_chain_from =
  QCheck.Test.make ~name:"chain_from matches the per-link fold" ~count:500
    (QCheck.make ~print:print_wal gen_wal)
    (fun (floor, records) ->
      Log_server.chain_from ~floor records = reference_chain ~floor records)

let suite =
  [
    Alcotest.test_case "in-order push/peek" `Quick test_in_order_push_and_peek;
    Alcotest.test_case "out-of-order chain acks" `Quick test_out_of_order_pushes_ack_in_chain_order;
    Alcotest.test_case "duplicate push idempotent" `Quick test_duplicate_push_idempotent;
    Alcotest.test_case "pop discards" `Quick test_pop_discards;
    Alcotest.test_case "lock stops pushes" `Quick test_lock_stops_pushes_and_reports;
    Alcotest.test_case "resurrect after prune" `Quick test_resurrect_after_prune;
    QCheck_alcotest.to_alcotest qcheck_chain_from;
    Alcotest.test_case "peek held until push" `Quick test_peek_held_until_push;
    Alcotest.test_case "lock breaks held peek" `Quick test_lock_breaks_held_peek;
    Alcotest.test_case "poll timeout replies empty" `Quick test_poll_timeout_replies_empty;
    Alcotest.test_case "storage fails over to replica" `Quick test_storage_fails_over_to_replica;
  ]
