(* Config.validate: the stock configurations pass, and every rule rejects
   the configuration that breaks it. *)

open Fdb_core

let test_validate () =
  let d = Config.default in
  let check name want c = Alcotest.(check (result unit string)) name want (Config.validate c) in
  List.iter (fun (name, c) -> check name (Ok ()) c)
    [ ("default", d); ("test_small", Config.test_small); ("scaled", Config.scaled ~machines:8) ];
  List.iter
    (fun (c, msg) -> check msg (Error msg) c)
    [
      ({ d with machines = 0 }, "need at least one machine");
      ({ d with coordinators = 6 }, "more coordinators than machines");
      ({ d with coordinators = 0 }, "need a coordinator");
      ({ d with log_replication = 4 }, "log replication exceeds log servers");
      ({ d with storage_replication = 11 }, "storage replication exceeds storage servers");
      ({ d with proxies = 0 }, "need at least one proxy, resolver and log server");
      ({ d with resolvers = 0 }, "need at least one proxy, resolver and log server");
      ({ d with max_commit_batch = 0 }, "commit batch size and pipeline depth must be at least 1");
      ({ d with commit_pipeline_depth = 0 }, "commit batch size and pipeline depth must be at least 1");
    ]

let suite = [ Alcotest.test_case "validate" `Quick test_validate ]
