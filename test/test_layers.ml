(* The layer ecosystem (paper §1): subspaces, the directory layer with
   its high-contention allocator, transactional secondary indexes with
   the recompute-and-diff oracle, and old-vs-new range API equivalence. *)

open Fdb_sim
open Fdb_core
open Future.Syntax
module Subspace = Fdb_layers.Subspace
module Directory = Fdb_layers.Directory
module Index = Fdb_layers.Index
module T = Tuple

let with_cluster ?(seed = 81L) body =
  Engine.run ~seed ~max_time:1e5 (fun () ->
      let cluster = Cluster.create ~config:Config.test_small () in
      let* () = Cluster.wait_ready cluster in
      body cluster)

(* ---------- subspace (pure) ---------- *)

let test_subspace_roundtrip () =
  let ss = Subspace.create [ T.String "app"; T.Int 7L ] in
  let items =
    [
      [ T.Null ];
      [ T.Int (-42L); T.String "x" ];
      [ T.Bytes "\x00\xff"; T.Nested [ T.Bool true ] ];
    ]
  in
  List.iter
    (fun t ->
      let k = Subspace.pack ss t in
      Alcotest.(check bool) "inside" true (Subspace.contains ss k);
      if T.compare_elements t (Subspace.unpack ss k) <> 0 then
        Alcotest.failf "roundtrip mismatch for %a" T.pp t)
    items;
  let nested = Subspace.sub ss [ T.String "inner" ] in
  let k = Subspace.pack nested [ T.Int 1L ] in
  Alcotest.(check bool) "nested key inside parent" true (Subspace.contains ss k);
  Alcotest.(check bool) "parent key outside sibling" false
    (Subspace.contains nested (Subspace.pack ss [ T.Int 1L ]))

let test_subspace_range_covers_packed_keys () =
  let ss = Subspace.create [ T.String "r" ] in
  let lo, hi = Subspace.range ss in
  let inside = Subspace.pack ss [ T.Int 5L; T.String "a" ] in
  Alcotest.(check bool) "packed key in range" true (lo <= inside && inside < hi);
  Alcotest.(check bool) "bare prefix below range" true (Subspace.prefix ss < lo);
  Alcotest.(check bool) "unpack rejects outsiders" true
    (match Subspace.unpack ss "zzz" with
    | exception Invalid_argument _ -> true
    | _ -> false)

(* ---------- directory ---------- *)

let test_directory_reopen_same_prefix () =
  let same, exists_after, missing_before =
    with_cluster (fun cluster ->
        let db = Cluster.client cluster ~name:"dir" in
        let* missing_before =
          Client.run db (fun tx -> Directory.exists tx [ "app"; "users" ])
        in
        let* d1 =
          Client.run db (fun tx -> Directory.create_or_open tx [ "app"; "users" ])
        in
        let* d2 =
          Client.run db (fun tx -> Directory.create_or_open tx [ "app"; "users" ])
        in
        let* exists_after =
          Client.run db (fun tx -> Directory.exists tx [ "app"; "users" ])
        in
        Future.return
          (Subspace.prefix d1 = Subspace.prefix d2, exists_after, missing_before))
  in
  Alcotest.(check bool) "absent before create" false missing_before;
  Alcotest.(check bool) "reopen returns the same prefix" true same;
  Alcotest.(check bool) "exists after create" true exists_after

let test_directory_list_and_remove () =
  let children, removed, gone, content_cleared =
    with_cluster (fun cluster ->
        let db = Cluster.client cluster ~name:"dir" in
        let* d =
          Client.run db (fun tx -> Directory.create_or_open tx [ "app"; "a" ])
        in
        let* _ =
          Client.run db (fun tx -> Directory.create_or_open tx [ "app"; "b" ])
        in
        let* _ =
          Client.run db (fun tx -> Directory.create_or_open tx [ "app"; "a"; "x" ])
        in
        let probe = Subspace.pack d [ T.String "payload" ] in
        let* _ =
          Client.run db (fun tx ->
              Client.set tx probe "v";
              Future.return ())
        in
        let* children = Client.run db (fun tx -> Directory.list tx [ "app" ]) in
        let* removed = Client.run db (fun tx -> Directory.remove tx [ "app"; "a" ]) in
        let* gone =
          Client.run db (fun tx ->
              let* a = Directory.exists tx [ "app"; "a" ] in
              let* x = Directory.exists tx [ "app"; "a"; "x" ] in
              Future.return (not a && not x))
        in
        let* v = Client.run db (fun tx -> Client.get tx probe) in
        Future.return (children, removed, gone, v = None))
  in
  Alcotest.(check (list string)) "children listed in order" [ "a"; "b" ] children;
  Alcotest.(check bool) "remove reports success" true removed;
  Alcotest.(check bool) "directory and child gone" true gone;
  Alcotest.(check bool) "content cleared" true content_cleared

let test_allocator_concurrent_distinct () =
  let ids =
    with_cluster (fun cluster ->
        let alloc i =
          let db = Cluster.client cluster ~name:(Printf.sprintf "alloc-%d" i) in
          Client.run db (fun tx -> Directory.allocate tx)
        in
        (* Start all allocations before awaiting any: genuinely concurrent
           transactions contending on the allocator's window. *)
        let jobs = List.init 12 alloc in
        let rec gather acc = function
          | [] -> Future.return (List.rev acc)
          | j :: rest ->
              let* id = j in
              gather (id :: acc) rest
        in
        gather [] jobs)
  in
  Alcotest.(check int) "twelve allocations" 12 (List.length ids);
  Alcotest.(check int) "all distinct" 12
    (List.length (List.sort_uniq compare ids));
  List.iter
    (fun id ->
      let p = Directory.prefix_of_id id in
      Alcotest.(check bool) "short prefix" true (String.length p <= 10))
    ids

(* ---------- the index layer ---------- *)

(* Values look like "name,city"; the index key is the city. *)
let city_of value =
  match String.index_opt value ',' with
  | Some i -> String.sub value (i + 1) (String.length value - i - 1)
  | None -> value

let defs =
  [
    Index.Value
      {
        name = "city";
        extract = (fun ~pkey:_ ~value -> [ [ T.String (city_of value) ] ]);
      };
    Index.Counter
      { name = "city"; group = (fun ~pkey:_ ~value -> [ T.String (city_of value) ]) };
    Index.Versionstamp { name = "log" };
  ]

let with_store body =
  with_cluster (fun cluster ->
      let db = Cluster.client cluster ~name:"index" in
      let* dir =
        Client.run db (fun tx -> Directory.create_or_open tx [ "test"; "idx" ])
      in
      body db (Index.create dir defs))

let test_index_maintenance () =
  let in_london, counts, after_move, issues, changes =
    with_store (fun db store ->
        let put id v = Client.run db (fun tx -> Index.set store tx id v) in
        let* () = put "u1" "ada,london" in
        let* () = put "u2" "grace,nyc" in
        let* () = put "u3" "edsger,london" in
        let* in_london =
          Client.run db (fun tx ->
              Index.lookup store tx ~index:"city" ~entry:[ T.String "london" ])
        in
        let* counts =
          Client.run db (fun tx ->
              let* l =
                Index.counter_value store tx ~index:"city"
                  ~group:[ T.String "london" ]
              in
              let* n =
                Index.counter_value store tx ~index:"city" ~group:[ T.String "nyc" ]
              in
              Future.return (l, n))
        in
        (* Move u1 to nyc, delete u2: old entries must vanish. *)
        let* () = put "u1" "ada,nyc" in
        let* () = Client.run db (fun tx -> Index.clear store tx "u2") in
        let* after_move =
          Client.run db (fun tx ->
              let* l =
                Index.lookup store tx ~index:"city" ~entry:[ T.String "london" ]
              in
              let* n =
                Index.lookup store tx ~index:"city" ~entry:[ T.String "nyc" ]
              in
              Future.return (l, n))
        in
        let* issues = Client.run db (fun tx -> Index.verify store tx) in
        let* changes = Client.run db (fun tx -> Index.changes store tx ~index:"log") in
        Future.return (in_london, counts, after_move, issues, changes))
  in
  Alcotest.(check (list string)) "value index lookup" [ "u1"; "u3" ] in_london;
  Alcotest.(check (pair int64 int64)) "counter aggregates" (2L, 1L) counts;
  Alcotest.(check (pair (list string) (list string)))
    "entries follow the writes" ([ "u3" ], [ "u1" ]) after_move;
  Alcotest.(check (list string)) "oracle green" [] issues;
  (* Four successful writes ran through the changelog; stamps are
     commit-version ordered, so the pkey sequence is the write order. *)
  Alcotest.(check (list string)) "changelog in commit order"
    [ "u1"; "u2"; "u3"; "u1" ]
    (List.map snd changes)

let test_verify_catches_corruption () =
  let clean, stale, missing, counter =
    with_store (fun db store ->
        let* () = Client.run db (fun tx -> Index.set store tx "u1" "ada,london") in
        let* clean = Client.run db (fun tx -> Index.verify store tx) in
        let ss = Index.subspace store in
        let stale_key =
          Subspace.pack ss
            [ T.String "i"; T.String "city"; T.String "ghost"; T.Bytes "u9" ]
        in
        let real_key =
          Subspace.pack ss
            [ T.String "i"; T.String "city"; T.String "london"; T.Bytes "u1" ]
        in
        let counter_key =
          Subspace.pack ss [ T.String "c"; T.String "city"; T.String "london" ]
        in
        (* Corrupt the indexes behind the layer's back. *)
        let* _ =
          Client.run db (fun tx ->
              Client.set tx stale_key "";
              Client.clear tx real_key;
              Client.set tx counter_key (Index.le64 7L);
              Future.return ())
        in
        let* issues = Client.run db (fun tx -> Index.verify store tx) in
        let contains_sub s sub =
          let n = String.length s and m = String.length sub in
          let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
          m = 0 || go 0
        in
        let has what = List.exists (fun m -> contains_sub m what) issues in
        Future.return
          (clean, has "stale entry", has "missing entry", has "holds 7"))
  in
  Alcotest.(check (list string)) "green before corruption" [] clean;
  Alcotest.(check bool) "stale entry reported" true stale;
  Alcotest.(check bool) "missing entry reported" true missing;
  Alcotest.(check bool) "counter drift reported" true counter

(* ---------- unified range API: every query form agrees with the data ---- *)

let test_range_api_equivalence () =
  let pairs_eq =
    Alcotest.(check (list (pair string string)))
  in
  let row i = (Printf.sprintf "rq/%03d" i, string_of_int i) in
  let rows lo hi = List.init (hi - lo) (fun i -> row (lo + i)) in
  let fwd, rev, sel, (streamed, whole) =
    with_cluster (fun cluster ->
        let db = Cluster.client cluster ~name:"range" in
        let* _ =
          Client.run db (fun tx ->
              for i = 0 to 39 do
                let k, v = row i in
                Client.set tx k v
              done;
              Future.return ())
        in
        Client.run db (fun tx ->
            let* fwd =
              Client.range_all tx
                (Range_query.keys ~limit:10 ~from:"rq/" ~until:"rq0" ())
            in
            let* rev =
              Client.range_all tx
                (Range_query.keys ~reverse:true ~limit:7 ~from:"rq/" ~until:"rq0" ())
            in
            let* sel =
              Client.range_all tx
                (Range_query.create
                   ~begin_:(Client.Key_selector.first_greater_than "rq/004")
                   ~end_:(Client.Key_selector.first_greater_or_equal "rq/011")
                   ())
            in
            (* Streamed batches stitched by continuation must equal the
               one-shot read. *)
            let rec stream ?continuation acc =
              let* b =
                Client.range tx
                  (Range_query.keys ?continuation ~mode:(`Exact 6) ~from:"rq/"
                     ~until:"rq0" ())
              in
              let acc = acc @ b.Client.batch_rows in
              match b.Client.batch_continuation with
              | Some c -> stream ~continuation:c acc
              | None -> Future.return acc
            in
            let* streamed = stream [] in
            let* whole =
              Client.range_all tx (Range_query.keys ~from:"rq/" ~until:"rq0" ())
            in
            Future.return (fwd, rev, sel, (streamed, whole))))
  in
  pairs_eq "forward+limit" (rows 0 10) fwd;
  pairs_eq "reverse+limit" (List.rev (rows 33 40)) rev;
  pairs_eq "selector endpoints" (rows 5 11) sel;
  pairs_eq "one-shot read" (rows 0 40) whole;
  pairs_eq "stitched stream equals one-shot" whole streamed

let suite =
  [
    Alcotest.test_case "subspace roundtrip & nesting" `Quick test_subspace_roundtrip;
    Alcotest.test_case "subspace range" `Quick test_subspace_range_covers_packed_keys;
    Alcotest.test_case "directory reopen stable" `Quick
      test_directory_reopen_same_prefix;
    Alcotest.test_case "directory list/remove" `Quick test_directory_list_and_remove;
    Alcotest.test_case "allocator: concurrent ids distinct" `Quick
      test_allocator_concurrent_distinct;
    Alcotest.test_case "index maintenance" `Quick test_index_maintenance;
    Alcotest.test_case "verify catches corruption" `Quick
      test_verify_catches_corruption;
    Alcotest.test_case "range API equivalence" `Quick test_range_api_equivalence;
  ]
