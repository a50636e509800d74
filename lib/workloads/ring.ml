open Fdb_sim
open Fdb_core
open Future.Syntax
module Rng = Fdb_util.Det_rng

type stats = { rotations : int; conflicts : int; failures : int }

let node_key i = Printf.sprintf "ring/%06d" i

let setup db ~n =
  let rec batch i =
    if i >= n then Future.return ()
    else begin
      let hi = min n (i + 100) in
      let* _ =
        Client.run db (fun tx ->
            for j = i to hi - 1 do
              Client.set tx (node_key j) (string_of_int ((j + 1) mod n))
            done;
            Future.return ())
      in
      batch hi
    end
  in
  batch 0

(* Rotate three consecutive nodes x -> y -> z -> w into x -> z -> y -> w. *)
let rotate db ~n ~rng =
  let x = Rng.int rng n in
  Client.run db ~max_attempts:8 (fun tx ->
      let* sy = Client.get tx (node_key x) in
      let y = int_of_string (Option.get sy) in
      let* sz = Client.get tx (node_key y) in
      let z = int_of_string (Option.get sz) in
      let* sw = Client.get tx (node_key z) in
      let w = int_of_string (Option.get sw) in
      if y = x || z = x || z = y then Future.return ()
      else begin
        Client.set tx (node_key x) (string_of_int z);
        Client.set tx (node_key z) (string_of_int y);
        Client.set tx (node_key y) (string_of_int w);
        Future.return ()
      end)

let rotate_loop db ~n ~until ~rng =
  let stats = ref { rotations = 0; conflicts = 0; failures = 0 } in
  let rec loop () =
    if Engine.now () >= until then Future.return !stats
    else
      let* () = Engine.sleep (Rng.float rng 0.05) in
      let* () =
        Future.catch
          (fun () ->
            let* () = rotate db ~n ~rng in
            stats := { !stats with rotations = !stats.rotations + 1 };
            Future.return ())
          (function
            | Error.Fdb Error.Not_committed ->
                stats := { !stats with conflicts = !stats.conflicts + 1 };
                Future.return ()
            | Error.Fdb _ ->
                stats := { !stats with failures = !stats.failures + 1 };
                Future.return ()
            | e -> Future.fail e)
      in
      loop ()
  in
  loop ()

let check db ~n =
  Future.catch
    (fun () ->
      let* entries =
        Client.run db (fun tx ->
            (* Stream the whole ring in bounded batches, stitching the
               explicit continuations — the check never holds more than a
               batch of wire data in flight at once. *)
            let rec scan ?continuation acc seen =
              if seen > n + 10 then Future.return (List.rev acc)
              else
                let* b =
                  Client.range tx
                    (Range_query.keys ~limit:max_int ~mode:`Iterator
                       ?continuation ~from:"ring/" ~until:"ring0" ())
                in
                let acc = List.rev_append b.Client.batch_rows acc in
                match b.Client.batch_continuation with
                | Some c -> scan ~continuation:c acc (seen + List.length b.Client.batch_rows)
                | None -> Future.return (List.rev acc)
            in
            scan [] 0)
      in
      if List.length entries <> n then
        Future.return (Error (Printf.sprintf "expected %d nodes, found %d" n (List.length entries)))
      else begin
        let succ = Array.make n (-1) in
        List.iter
          (fun (k, v) ->
            let i = int_of_string (String.sub k 5 6) in
            succ.(i) <- int_of_string v)
          entries;
        let visited = Array.make n false in
        let rec walk node steps =
          if steps = n then
            if node = 0 then Ok () else Error "cycle does not close after n steps"
          else if node < 0 || node >= n then Error "pointer out of range"
          else if visited.(node) then Error "cycle shorter than n: ring split"
          else begin
            visited.(node) <- true;
            walk succ.(node) (steps + 1)
          end
        in
        Future.return (walk 0 0)
      end)
    (fun e -> Future.return (Error ("check failed: " ^ Printexc.to_string e)))
