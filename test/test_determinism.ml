(* The dynamic half of the determinism contract: the engine folds every
   executed event into an FNV-1a checksum, and running the same seed twice
   must produce the same stream bit-for-bit (paper §4 — this is the oracle
   that catches whatever the static lint cannot see). *)

module Swarm = Fdb_workloads.Swarm

let test_double_run_identical () =
  List.iter
    (fun seed ->
      match Swarm.check_determinism ~buggify:true ~duration:5.0 ~seed () with
      | Ok r ->
          Alcotest.(check bool)
            (Printf.sprintf "seed %Ld checksum nonzero" seed)
            true
            (not (Int64.equal r.Swarm.trace_checksum 0L))
      | Error (a, b) ->
          Alcotest.failf "seed %Ld diverged: %016Lx <> %016Lx" seed a b)
    [ 7L; 11L; 23L; 31L; 42L; 57L; 88L; 101L ]

(* Same oracle with active data distribution: the rebalancer plus the
   swarm's mover job fire splits, merges and fetch-then-cutover moves all
   through the chaos, and the double run must agree on the event-stream
   checksum AND the shard-map history checksum — a diverging shard-move
   schedule fails the seed even if the event streams happened to match. *)
let test_double_run_identical_with_movement () =
  List.iter
    (fun seed ->
      match
        Swarm.check_determinism ~buggify:true ~duration:4.0 ~dd_movement:true ~seed ()
      with
      | Ok r ->
          Alcotest.(check bool)
            (Printf.sprintf "seed %Ld shard checksum nonzero" seed)
            true
            (not (Int64.equal r.Swarm.shard_checksum 0L))
      | Error (a, b) ->
          Alcotest.failf "seed %Ld diverged under movement: %016Lx <> %016Lx" seed a b)
    [ 7L; 11L; 23L; 31L; 42L; 57L; 88L; 101L ]

let test_distinct_seeds_distinct_streams () =
  let csum seed =
    (Swarm.run_one ~buggify:false ~duration:2.0 ~seed ()).Swarm.trace_checksum
  in
  Alcotest.(check bool)
    "different seeds exercise different event streams" true
    (not (Int64.equal (csum 3L) (csum 4L)))

(* Golden trace checksums: two short buggified swarm seeds must replay to
   exactly these values, so a change meant to leave scheduling alone (a
   refactor, a deleted code path) cannot move a single event unnoticed.
   A change that alters timing on purpose re-baselines by pasting the csum=
   values printed by `dune exec bin/fdb_sim.exe -- swarm --seeds 2
   --duration 10` below, and says so in its description. *)
let golden_checksums = [ (1L, 0x2241bb3cd30de855L); (2L, 0x4606021ebb7f7068L) ]

let test_golden_checksums () =
  List.iter
    (fun (seed, golden) ->
      let r = Swarm.run_one ~buggify:true ~duration:10.0 ~seed () in
      Alcotest.(check string)
        (Printf.sprintf "seed %Ld trace checksum" seed)
        (Printf.sprintf "%016Lx" golden)
        (Printf.sprintf "%016Lx" r.Swarm.trace_checksum))
    golden_checksums

(* The layer read path — Directory's reverse limit-1 reads, Index's range
   scans — pinned the same way: swarm seed 1 with the layer soak on.
   Re-baseline from `dune exec bin/fdb_sim.exe -- swarm --seeds 1
   --duration 10 --layers`. *)
let golden_layers_checksum = (1L, 0x1e35e75b53b38d71L)

let test_golden_layers_checksum () =
  let seed, golden = golden_layers_checksum in
  let r = Swarm.run_one ~buggify:true ~layers:true ~duration:10.0 ~seed () in
  Alcotest.(check string)
    (Printf.sprintf "seed %Ld layers trace checksum" seed)
    (Printf.sprintf "%016Lx" golden)
    (Printf.sprintf "%016Lx" r.Swarm.trace_checksum)

(* Per-run state belongs to the domain running it, so the golden seeds
   can run side by side on two domains and must still replay exactly. *)
let test_golden_checksums_on_domains () =
  let spawned =
    List.map
      (fun (seed, golden) ->
        ( seed,
          golden,
          Domain.spawn (fun () ->
              (Swarm.run_one ~buggify:true ~duration:10.0 ~seed ()).Swarm.trace_checksum) ))
      golden_checksums
  in
  List.iter
    (fun (seed, golden, d) ->
      Alcotest.(check string)
        (Printf.sprintf "seed %Ld trace checksum on its own domain" seed)
        (Printf.sprintf "%016Lx" golden)
        (Printf.sprintf "%016Lx" (Domain.join d)))
    spawned

let test_checksum_sensitive_to_trace_kinds () =
  (* Same scheduling skeleton, different Trace.emit kinds — emit must
     fold the kind into the checksum. *)
  let open Fdb_sim in
  let run kind =
    let () =
      Engine.run ~seed:99L (fun () ->
          Trace.emit kind [];
          Future.return ())
    in
    Engine.last_run_checksum ()
  in
  Alcotest.(check bool)
    "trace kind feeds the checksum" true
    (not (Int64.equal (run "alpha") (run "beta")))

let suite =
  [
    Alcotest.test_case "double run identical checksum" `Slow test_double_run_identical;
    Alcotest.test_case "double run identical with movement" `Slow
      test_double_run_identical_with_movement;
    Alcotest.test_case "golden swarm checksums" `Quick test_golden_checksums;
    Alcotest.test_case "golden layers checksum" `Quick test_golden_layers_checksum;
    Alcotest.test_case "golden checksums on two domains" `Quick
      test_golden_checksums_on_domains;
    Alcotest.test_case "distinct seeds distinct streams" `Quick
      test_distinct_seeds_distinct_streams;
    Alcotest.test_case "trace kinds feed checksum" `Quick
      test_checksum_sensitive_to_trace_kinds;
  ]
