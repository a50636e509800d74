open Fdb_sim
open Future.Syntax

type t = {
  from : string;
  until : string;
  prefix : string;
  mutable counter : int; (* uniquifier: stamps collide within one txn *)
}

let create ~prefix =
  let from, until = Types.range_of_prefix (prefix ^ "/task/") in
  { from; until; prefix; counter = 0 }

let add tx t ~payload =
  (* All versionstamped keys of one transaction receive the same stamp
     (8-byte version + 2-byte batch index), exactly as in FDB — so the key
     carries a trailing uniquifier to keep same-transaction tasks distinct.
     Ordering is still stamp-first, i.e. commit order. *)
  t.counter <- t.counter + 1;
  let head = t.prefix ^ "/task/" in
  let template =
    head ^ Client.versionstamp_placeholder ^ Printf.sprintf "%08d" t.counter
  in
  Client.set_versionstamped_key tx ~template ~offset:(String.length head)
    ~value:payload

let head tx t =
  Client.range_all tx (Range_query.keys ~limit:1 ~from:t.from ~until:t.until ())

let is_empty tx t =
  let* head = head tx t in
  Future.return (head = [])

let run_one db t ~f =
  Client.run db (fun tx ->
      let* head = head tx t in
      match head with
      | [] -> Future.return false
      | (key, payload) :: _ ->
          (* Claim = read (conflict range via the range read) + clear; racing
             executors conflict here and retry onto the next task. *)
          Client.clear tx key;
          let* followups = f tx payload in
          List.iter (fun p -> add tx t ~payload:p) followups;
          Future.return true)

let drain db t ~f =
  let rec go n =
    let* ran = run_one db t ~f in
    if ran then go (n + 1) else Future.return n
  in
  go 0
