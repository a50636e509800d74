open Fdb_sim
open Future.Syntax

let test_append_read_back () =
  let r =
    Engine.run (fun () ->
        let d = Disk.create ~name:"d0" () in
        let* () = Disk.append d "log" "a" in
        let* () = Disk.append d "log" "b" in
        let* recs = Disk.read_all d "log" in
        Future.return recs)
  in
  Alcotest.(check (list string)) "append order" [ "a"; "b" ] r

let test_unsynced_lost_on_crash () =
  let r =
    Engine.run (fun () ->
        let d = Disk.create ~name:"d0" () in
        let* () = Disk.append d "log" "a" in
        let* () = Disk.sync d "log" in
        let* () = Disk.append d "log" "b" in
        Disk.crash d;
        let* recs = Disk.read_all d "log" in
        Future.return recs)
  in
  Alcotest.(check (list string)) "only synced survives" [ "a" ] r

let test_synced_survives_crash () =
  let r =
    Engine.run (fun () ->
        let d = Disk.create ~name:"d0" () in
        let* () = Disk.append d "log" "a" in
        let* () = Disk.append d "log" "b" in
        let* () = Disk.sync d "log" in
        Disk.crash d;
        Disk.crash d;
        let* recs = Disk.read_all d "log" in
        Future.return recs)
  in
  Alcotest.(check (list string)) "all synced survive double crash" [ "a"; "b" ] r

let test_write_file_read_file () =
  let r =
    Engine.run (fun () ->
        let d = Disk.create ~name:"d0" () in
        let* () = Disk.write_file d "state" "v1" in
        let* () = Disk.write_file d "state" "v2" in
        let* v = Disk.read_file d "state" in
        Future.return v)
  in
  Alcotest.(check (option string)) "last write wins" (Some "v2") r

let test_unsynced_file_lost () =
  let r =
    Engine.run (fun () ->
        let d = Disk.create ~name:"d0" () in
        let* () = Disk.write_file d "state" "v1" in
        let* () = Disk.sync d "state" in
        let* () = Disk.write_file d "state" "v2" in
        Disk.crash d;
        let* v = Disk.read_file d "state" in
        Future.return v)
  in
  (* write_file truncates, so after the crash the unsynced truncate+write is
     rolled back to... nothing durable. The caller must sync before relying
     on replacement; losing both versions is a legal outcome of our model. *)
  Alcotest.(check (option string)) "unsynced replacement lost" None r

let test_missing_file () =
  let r =
    Engine.run (fun () ->
        let d = Disk.create ~name:"d0" () in
        let* recs = Disk.read_all d "nope" in
        let* v = Disk.read_file d "nope" in
        Future.return (recs, v))
  in
  Alcotest.(check (pair (list string) (option string))) "missing" ([], None) r

let test_attach_crashes_on_kill () =
  let r =
    Engine.run (fun () ->
        let m = Process.fresh_machine 1 in
        let p = Process.create m in
        let d = Disk.create ~name:"d0" () in
        Disk.attach d p;
        let* () = Disk.append d "log" "a" in
        Engine.kill p;
        let* recs = Disk.read_all d "log" in
        Future.return recs)
  in
  Alcotest.(check (list string)) "dropped via hook" [] r

let test_disk_op_takes_time () =
  let r =
    Engine.run (fun () ->
        let d = Disk.create ~name:"d0" ~seek:0.001 ~bytes_per_sec:1000.0 () in
        let t0 = Engine.now () in
        let* () = Disk.append d "log" (String.make 1000 'x') in
        Future.return (Engine.now () -. t0))
  in
  Alcotest.(check bool) "seek + transfer" true (r >= 1.0)

let test_disk_queueing () =
  let r =
    Engine.run (fun () ->
        let d = Disk.create ~name:"d0" ~seek:1.0 ~bytes_per_sec:1e12 () in
        let done1 = ref 0.0 and done2 = ref 0.0 in
        let j out () =
          let* () = Disk.append d "log" "x" in
          out := Engine.now ();
          Future.return ()
        in
        let f1 = j done1 () in
        let f2 = j done2 () in
        let* () = Future.all_unit [ f1; f2 ] in
        Future.return (!done1, !done2))
  in
  Alcotest.(check (pair (float 0.01) (float 0.01))) "fcfs" (1.0, 2.0) r

let test_delete () =
  let r =
    Engine.run (fun () ->
        let d = Disk.create ~name:"d0" () in
        let* () = Disk.append d "log" "a" in
        let* () = Disk.delete d "log" in
        let* recs = Disk.read_all d "log" in
        Future.return recs)
  in
  Alcotest.(check (list string)) "deleted" [] r

(* ---------- the record count against a list model ----------

   Random sequences of disk operations over two files, checked after every
   step against a model of each file's records and durable prefix. The
   stored count must equal the length of what read_all returns, and a sync
   must make durable exactly the records appended before it was issued,
   even when more are appended while it is in flight. Under buggify a
   crash may keep a random ordered subset of the unsynced records
   (disk_partial_write); the model then checks that the durable prefix
   survived and adopts what the disk kept. *)

type disk_op =
  | Append of int
  | Write_file of int
  | Sync of int
  | Sync_then_append of int * int (* issue a sync, append n more, then await all *)
  | Drop_prefix of int * int
  | Delete of int
  | Crash

let pp_disk_op = function
  | Append f -> Printf.sprintf "Append %d" f
  | Write_file f -> Printf.sprintf "Write_file %d" f
  | Sync f -> Printf.sprintf "Sync %d" f
  | Sync_then_append (f, n) -> Printf.sprintf "Sync_then_append (%d, %d)" f n
  | Drop_prefix (f, n) -> Printf.sprintf "Drop_prefix (%d, %d)" f n
  | Delete f -> Printf.sprintf "Delete %d" f
  | Crash -> "Crash"

let file_name f = if f = 0 then "wal" else "snap"

let rec is_subsequence sub l =
  match (sub, l) with
  | [], _ -> true
  | _, [] -> false
  | x :: sub', y :: l' -> if x = y then is_subsequence sub' l' else is_subsequence sub l'

let rec split_at n l =
  if n = 0 then ([], l)
  else match l with [] -> ([], []) | x :: tl -> let a, b = split_at (n - 1) tl in (x :: a, b)

(* Runs [ops] and checks every step; returns how many crashes kept an
   unsynced record (the partial-write branch). *)
let check_disk_ops ~seed ~buggify ops =
  Engine.run ~seed ~buggify (fun () ->
      let d = Disk.create ~name:"d0" () in
      (* file -> (records oldest first, durable count) *)
      let model = Array.make 2 ([], 0) in
      let next = ref 0 and partial_crashes = ref 0 in
      let fresh () =
        incr next;
        Printf.sprintf "r%d" !next
      in
      let fail fmt = Printf.ksprintf failwith fmt in
      let check () =
        let rec go f =
          if f = 2 then Future.return ()
          else
            let name = file_name f in
            let* recs = Disk.read_all d name in
            let want, durable = model.(f) in
            if Disk.record_count d name <> List.length recs then
              fail "%s: count %d but read_all has %d" name (Disk.record_count d name)
                (List.length recs);
            if recs <> want then fail "%s: records differ from the model" name;
            if Disk.durable_count d name <> durable then
              fail "%s: durable %d, model %d" name (Disk.durable_count d name) durable;
            go (f + 1)
        in
        go 0
      in
      let append f =
        let r = fresh () in
        let recs, durable = model.(f) in
        model.(f) <- (recs @ [ r ], durable);
        Disk.append d (file_name f) r
      in
      let synced f issued =
        let recs, durable = model.(f) in
        model.(f) <- (recs, max durable issued)
      in
      let step op =
        match op with
        | Append f -> append f
        | Write_file f ->
            let r = fresh () in
            model.(f) <- ([ r ], 0);
            Disk.write_file d (file_name f) r
        | Sync f ->
            let issued = List.length (fst model.(f)) in
            let+ () = Disk.sync d (file_name f) in
            synced f issued
        | Sync_then_append (f, n) ->
            let issued = List.length (fst model.(f)) in
            let sync = Disk.sync d (file_name f) in
            let appends = List.init n (fun _ -> append f) in
            let* () = sync in
            synced f issued;
            Future.all_unit appends
        | Drop_prefix (f, n) ->
            let recs, durable = model.(f) in
            let n = min n (List.length recs) in
            model.(f) <- (snd (split_at n recs), max 0 (durable - n));
            Disk.drop_prefix d (file_name f) n;
            Future.return ()
        | Delete f ->
            model.(f) <- ([], 0);
            Disk.delete d (file_name f)
        | Crash ->
            Disk.crash d;
            let rec settle f =
              if f = 2 then Future.return ()
              else
                let* got = Disk.read_all d (file_name f) in
                let recs, durable = model.(f) in
                let kept, unsynced = split_at durable recs in
                let got_kept, got_extra = split_at durable got in
                if got_kept <> kept then fail "crash lost a durable record";
                if got_extra <> [] then begin
                  if not buggify then fail "crash kept an unsynced record without buggify";
                  if not (is_subsequence got_extra unsynced) then
                    fail "crash kept records out of order or invented some";
                  incr partial_crashes
                end;
                model.(f) <- (got, min durable (List.length got));
                settle (f + 1)
            in
            settle 0
      in
      let rec go = function
        | [] -> Future.return !partial_crashes
        | op :: rest ->
            let* () = step op in
            let* () = check () in
            go rest
      in
      go ops)

let disk_op_gen =
  QCheck.Gen.(
    let file = int_range 0 1 in
    frequency
      [
        (5, map (fun f -> Append f) file);
        (1, map (fun f -> Write_file f) file);
        (2, map (fun f -> Sync f) file);
        (2, map2 (fun f n -> Sync_then_append (f, n)) file (int_range 0 3));
        (1, map2 (fun f n -> Drop_prefix (f, n)) file (int_range 0 4));
        (1, map (fun f -> Delete f) file);
        (2, return Crash);
      ])

let qcheck_disk_count =
  QCheck.Test.make ~name:"record count and sync match the model" ~count:200
    (QCheck.make
       ~print:(fun (seed, buggify, ops) ->
         Printf.sprintf "seed %d buggify %b: %s" seed buggify
           (String.concat "; " (List.map pp_disk_op ops)))
       QCheck.Gen.(triple (int_range 1 10_000) bool (list_size (int_range 0 40) disk_op_gen)))
    (fun (seed, buggify, ops) ->
      ignore (check_disk_ops ~seed:(Int64.of_int seed) ~buggify ops : int);
      true)

(* The partial-write branch must actually run under the model: over a few
   buggified seeds some crash keeps an unsynced record. *)
let test_partial_write_branch_checked () =
  let ops = [ Append 0; Sync 0; Append 0; Append 0; Append 1; Append 0; Crash ] in
  let partial =
    List.fold_left
      (fun acc seed -> acc + check_disk_ops ~seed:(Int64.of_int seed) ~buggify:true ops)
      0 (List.init 64 (fun i -> i + 1))
  in
  Alcotest.(check bool) "some crash kept an unsynced record" true (partial > 0)

let suite =
  [
    Alcotest.test_case "append/read back" `Quick test_append_read_back;
    Alcotest.test_case "unsynced lost on crash" `Quick test_unsynced_lost_on_crash;
    Alcotest.test_case "synced survives crash" `Quick test_synced_survives_crash;
    Alcotest.test_case "write_file/read_file" `Quick test_write_file_read_file;
    Alcotest.test_case "unsynced file lost" `Quick test_unsynced_file_lost;
    Alcotest.test_case "missing file" `Quick test_missing_file;
    Alcotest.test_case "attach crash hook" `Quick test_attach_crashes_on_kill;
    Alcotest.test_case "ops take time" `Quick test_disk_op_takes_time;
    Alcotest.test_case "fcfs queueing" `Quick test_disk_queueing;
    Alcotest.test_case "delete" `Quick test_delete;
    QCheck_alcotest.to_alcotest qcheck_disk_count;
    Alcotest.test_case "partial-write crashes checked" `Quick test_partial_write_branch_checked;
  ]
