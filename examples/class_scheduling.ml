(* Class scheduling — FoundationDB's canonical tutorial, built on the bare
   key-value API: class listings with limited seats, students signing up
   and dropping, capacity enforced transactionally.

   Data model (ordered keys make the "available classes" query a range
   scan):
     attends/<student>/<class> = ""
     class/<class>             = remaining seats

     dune exec examples/class_scheduling.exe *)

open Fdb_sim
open Fdb_core
open Future.Syntax

let class_key c = "class/" ^ c
let attends_key s c = Printf.sprintf "attends/%s/%s" s c
let attends_range s = Types.range_of_prefix (Printf.sprintf "attends/%s/" s)

let seats_of v = int_of_string v

let available_classes tx =
  let from, until = Types.range_of_prefix "class/" in
  let* all = Client.range_all tx (Range_query.keys ~from ~until ()) in
  Future.return
    (List.filter_map
       (fun (k, v) ->
         if seats_of v > 0 then Some (String.sub k 6 (String.length k - 6)) else None)
       all)

let signup db student cls =
  Client.run db (fun tx ->
      let* already = Client.get tx (attends_key student cls) in
      if already <> None then Future.return `Already_signed_up
      else
        let* seats = Client.get tx (class_key cls) in
        match seats with
        | None -> Future.return `No_such_class
        | Some v when seats_of v <= 0 -> Future.return `Class_full
        | Some v ->
            (* A student may attend at most 5 classes. *)
            let from, until = attends_range student in
            let* attending = Client.range_all tx (Range_query.keys ~from ~until ()) in
            if List.length attending >= 5 then Future.return `Too_many_classes
            else begin
              Client.set tx (class_key cls) (string_of_int (seats_of v - 1));
              Client.set tx (attends_key student cls) "";
              Future.return `Signed_up
            end)

let drop db student cls =
  Client.run db (fun tx ->
      let* attending = Client.get tx (attends_key student cls) in
      if attending = None then Future.return ()
      else
        let* seats = Client.get tx (class_key cls) in
        Client.set tx (class_key cls)
          (string_of_int (seats_of (Option.get seats) + 1));
        Client.clear tx (attends_key student cls);
        Future.return ())

let () =
  Engine.run (fun () ->
      let cluster = Cluster.create () in
      let* () = Cluster.wait_ready cluster in
      let db = Cluster.client cluster ~name:"registrar" in
      let classes = [ "alg101"; "bio201"; "chem301"; "db401" ] in
      let* _ =
        Client.run db (fun tx ->
            List.iter (fun c -> Client.set tx (class_key c) "2") classes;
            Future.return ())
      in
      Printf.printf "opened %d classes with 2 seats each\n" (List.length classes);

      (* Five students race for the 8 seats; capacity must hold exactly. *)
      let students = [ "alice"; "bob"; "carol"; "dave"; "eve" ] in
      let rng = Engine.fork_rng () in
      let enroll s =
        let rec try_classes = function
          | [] -> Future.return ()
          | c :: rest ->
              let* () = Engine.sleep (Fdb_util.Det_rng.float rng 0.05) in
              let* outcome = signup db s c in
              (match outcome with
              | `Signed_up -> Printf.printf "%-6s signed up for %s\n" s c
              | `Class_full -> Printf.printf "%-6s found %s full\n" s c
              | _ -> ());
              try_classes rest
        in
        try_classes classes
      in
      let* () = Future.all_unit (List.map enroll students) in

      (* Verify: per-class enrolment matches the seat counters. *)
      let* ok =
        Client.run db (fun tx ->
            let* rows =
              Client.range_all tx (Range_query.keys ~from:"attends/" ~until:"attends0" ())
            in
            let enrolled c =
              List.length
                (List.filter
                   (fun (k, _) ->
                     String.length k > String.length c
                     && String.sub k (String.length k - String.length c) (String.length c) = c)
                   rows)
            in
            let* counts =
              Future.all
                (List.map
                   (fun c -> Future.map (Client.get tx (class_key c)) (fun v -> (c, v)))
                   classes)
            in
            Future.return
              (List.for_all
                 (fun (c, v) -> seats_of (Option.get v) + enrolled c = 2)
                 counts))
      in
      Printf.printf "capacity invariant: %s\n" (if ok then "holds" else "VIOLATED");
      if not ok then exit 1;

      (* Drop and re-check availability. *)
      let* () = drop db "alice" "alg101" in
      let* avail = Client.run db (fun tx -> available_classes tx) in
      Printf.printf "classes with open seats after alice drops alg101: %s\n"
        (String.concat ", " avail);
      Future.return ())
