open Fdb_sim
open Fdb_core
open Future.Syntax
module Rng = Fdb_util.Det_rng

type stats = {
  transfers_committed : int;
  conflicts : int;
  unknown_results : int;
  errors : int;
}

let account_key i = Printf.sprintf "bank/%06d" i

let setup db ~accounts ~initial =
  let rec batch i =
    if i >= accounts then Future.return ()
    else begin
      let hi = min accounts (i + 100) in
      let* _ =
        Client.run db (fun tx ->
            for j = i to hi - 1 do
              Client.set tx (account_key j) (string_of_int initial)
            done;
            Future.return ())
      in
      batch hi
    end
  in
  batch 0

let parse_balance = function Some s -> int_of_string s | None -> 0

let transfer db ~accounts ~rng =
  let a = Rng.int rng accounts in
  let b = (a + 1 + Rng.int rng (accounts - 1)) mod accounts in
  let amount = 1 + Rng.int rng 10 in
  Client.run db ~max_attempts:8 (fun tx ->
      let* va = Client.get tx (account_key a) in
      let* vb = Client.get tx (account_key b) in
      let ba = parse_balance va and bb = parse_balance vb in
      if ba < amount then Future.return `Overdraft
      else begin
        Client.set tx (account_key a) (string_of_int (ba - amount));
        Client.set tx (account_key b) (string_of_int (bb + amount));
        Future.return `Transferred
      end)

let transfer_loop db ~accounts ~until ~rng =
  let stats = ref { transfers_committed = 0; conflicts = 0; unknown_results = 0; errors = 0 } in
  let rec loop () =
    if Engine.now () >= until then Future.return !stats
    else
      let* () = Engine.sleep (Rng.float rng 0.05) in
      let* () =
        Future.catch
          (fun () ->
            let* outcome = transfer db ~accounts ~rng in
            (match outcome with
            | `Transferred ->
                stats := { !stats with transfers_committed = !stats.transfers_committed + 1 }
            | `Overdraft -> ());
            Future.return ())
          (function
            | Error.Fdb Error.Not_committed ->
                stats := { !stats with conflicts = !stats.conflicts + 1 };
                Future.return ()
            | Error.Fdb Error.Commit_unknown_result ->
                stats := { !stats with unknown_results = !stats.unknown_results + 1 };
                Future.return ()
            | Error.Fdb _ ->
                stats := { !stats with errors = !stats.errors + 1 };
                Future.return ()
            | e -> Future.fail e)
      in
      loop ()
  in
  loop ()

let check db ~accounts ~expected_total =
  Future.catch
    (fun () ->
      let* balances =
        Client.run db (fun tx ->
            Client.range_all tx
              (Range_query.keys ~limit:(accounts + 10) ~from:"bank/" ~until:"bank0" ()))
      in
      let total = List.fold_left (fun acc (_, v) -> acc + int_of_string v) 0 balances in
      let negative = List.exists (fun (_, v) -> int_of_string v < 0) balances in
      if List.length balances <> accounts then
        Future.return
          (Error (Printf.sprintf "expected %d accounts, found %d" accounts (List.length balances)))
      else if total <> expected_total then
        Future.return
          (Error (Printf.sprintf "total %d <> expected %d: atomicity violated" total expected_total))
      else if negative then Future.return (Error "negative balance: isolation violated")
      else Future.return (Ok ()))
    (fun e -> Future.return (Error ("check failed: " ^ Printexc.to_string e)))
