type 'a state =
  | Pending of (('a, exn) result -> unit) list (* callbacks, reversed *)
  | Resolved of ('a, exn) result

(* [tag] carries the creation-site label ("" when unlabeled) and the
   promise's key in the run's pending table; every unlabeled future shares
   [untagged], so it costs no more than a bare label. Labeled promises are
   the unit of the lifecycle sanitizer below. *)
type 'a t = { mutable state : 'a state; tag : Sim.tag }
type 'a promise = 'a t

exception Cancelled of string

let is_resolved t = match t.state with Resolved _ -> true | Pending _ -> false
let is_pending t = not (is_resolved t)
let has_waiters t = match t.state with Pending (_ :: _) -> true | _ -> false
let label t = t.tag.Sim.tag_label

(* ---- promise-lifecycle sanitizer ----
   The static rule R6 keeps futures from being silently dropped; this is
   the runtime residue-catcher. During a run every [make] is counted, and
   every labeled promise is entered in the run's pending table with its
   creating process until it resolves. When the run ends, the labeled
   promises still pending with waiters on a live process are leaked
   wakeups — an actor is blocked on a signal that can no longer arrive.
   Double [try_fulfill]s and detached-future failures are tallied the
   same way. Pure bookkeeping: no trace events, no scheduling, so it
   never perturbs a run's trace checksum. The tallies live in [Sim.t];
   [Engine.last_run_lifecycle] reports them. *)
module Lifecycle = struct
  type report = {
    lr_created : int;  (* promises created via [make] *)
    lr_resolved : int;  (* promises resolved (either way) *)
    lr_leaked : (string * int) list;  (* label -> still pending, with waiters, owner live *)
    lr_double_resolved : (string * int) list;  (* label -> try_* on an already-resolved future *)
    lr_detach_failures : (string * int) list;  (* detach name -> failures routed to Trace *)
  }

  let empty =
    {
      lr_created = 0;
      lr_resolved = 0;
      lr_leaked = [];
      lr_double_resolved = [];
      lr_detach_failures = [];
    }

  let total_leaks r = List.fold_left (fun acc (_, n) -> acc + n) 0 r.lr_leaked
end

let untagged = { Sim.tag_label = ""; tag_id = 0 }

let make ?(label = "") () =
  let s = Sim.get () in
  let tracked = s.Sim.running && label <> "" in
  if s.Sim.running then s.Sim.lc_created <- s.Sim.lc_created + 1;
  if tracked then s.Sim.lc_next_id <- s.Sim.lc_next_id + 1;
  let tag =
    if label = "" then untagged
    else { Sim.tag_label = label; tag_id = (if tracked then s.Sim.lc_next_id else 0) }
  in
  let f = { state = Pending []; tag } in
  if tracked then
    Fdb_util.Det_tbl.replace s.Sim.lc_pending tag.Sim.tag_id
      {
        Sim.pd_tag = tag;
        pd_owner = Option.map (fun p -> (p, p.Sim.incarnation)) s.Sim.proc_ctx;
        pd_waited = (fun () -> has_waiters f);
      };
  (f, f)

let return v = { state = Resolved (Ok v); tag = untagged }
let fail e = { state = Resolved (Error e); tag = untagged }

let resolve_with t r =
  match t.state with
  | Resolved _ -> invalid_arg "Future: already resolved"
  | Pending cbs ->
      t.state <- Resolved r;
      let s = Sim.get () in
      if s.Sim.running then begin
        s.Sim.lc_resolved <- s.Sim.lc_resolved + 1;
        (* The physical check skips a promise left over from an earlier
           run, whose key may name another promise in this one. *)
        let id = t.tag.Sim.tag_id in
        if id <> 0 then
          match Fdb_util.Det_tbl.find_opt s.Sim.lc_pending id with
          | Some pd when pd.Sim.pd_tag == t.tag -> Fdb_util.Det_tbl.remove s.Sim.lc_pending id
          | _ -> ()
      end;
      List.iter (fun cb -> cb r) (List.rev cbs)

let fulfill p v = resolve_with p (Ok v)
let break p e = resolve_with p (Error e)

let try_resolve_with t r =
  match t.state with
  | Resolved _ ->
      let s = Sim.get () in
      if s.Sim.running && label t <> "" then Sim.bump s.Sim.lc_doubles (label t);
      false
  | Pending _ ->
      resolve_with t r;
      true

let try_fulfill p v = try_resolve_with p (Ok v)
let try_break p e = try_resolve_with p (Error e)

let peek t = match t.state with Resolved (Ok v) -> Some v | _ -> None

let on_resolve t cb =
  match t.state with
  | Resolved r -> cb r
  | Pending cbs -> t.state <- Pending (cb :: cbs)

let bind t f =
  match t.state with
  | Resolved (Ok v) -> f v
  | Resolved (Error e) -> fail e
  | Pending _ ->
      let out, p = make () in
      on_resolve t (function
        | Error e -> break p e
        | Ok v -> (
            match f v with
            | exception e -> break p e
            | t' -> on_resolve t' (resolve_with p)));
      out

let map t f =
  match t.state with
  | Resolved (Ok v) -> ( match f v with exception e -> fail e | v' -> return v')
  | Resolved (Error e) -> fail e
  | Pending _ ->
      let out, p = make () in
      on_resolve t (function
        | Error e -> break p e
        | Ok v -> ( match f v with exception e -> break p e | v' -> fulfill p v'));
      out

let catch f h =
  match f () with
  | exception e -> h e
  | t -> (
      match t.state with
      | Resolved (Ok _) -> t
      | Resolved (Error e) -> h e
      | Pending _ ->
          let out, p = make () in
          on_resolve t (function
            | Ok v -> fulfill p v
            | Error e -> (
                match h e with
                | exception e' -> break p e'
                | t' -> on_resolve t' (resolve_with p)));
          out)

let protect ~finally f =
  let t = try f () with e -> fail e in
  match t.state with
  | Resolved _ ->
      finally ();
      t
  | Pending _ ->
      let out, p = make () in
      on_resolve t (fun r ->
          finally ();
          resolve_with p r);
      out

let all ts =
  match ts with
  | [] -> return []
  | _ ->
      let n = List.length ts in
      let results = Array.make n None in
      let remaining = ref n in
      let out, p = make () in
      List.iteri
        (fun i t ->
          on_resolve t (function
            | Error e -> ignore (try_break p e : bool)
            | Ok v ->
                results.(i) <- Some v;
                decr remaining;
                if !remaining = 0 then
                  ignore
                    (try_fulfill p
                       (Array.to_list results
                       |> List.map (function Some v -> v | None -> assert false))
                     : bool)))
        ts;
      out

let all_unit ts = map (all ts) (fun _ -> ())

let join2 a b =
  bind a (fun va -> map b (fun vb -> (va, vb)))

exception Any_empty

let race_loser_exn = Cancelled "future.race loser"

(* The winner's resolution cancels every still-pending loser with
   [Cancelled] (traced, not raised): a loser left pending forever is a
   leaked wakeup — anyone blocked on it stalls silently, and the lifecycle
   sanitizer would report it at simulation end. Cancellation is delivered
   as an ordinary [Error] resolution, so downstream combinators see a
   normal failure, never an exception on the canceller's stack. *)
let race ts =
  match ts with
  | [] -> fail Any_empty
  | _ ->
      let out, p = make () in
      let cancel_losers () =
        List.iter
          (fun t ->
            if is_pending t then begin
              Trace.emit "future_race_loser_cancelled"
                [ ("label", if label t = "" then "<unlabeled>" else label t) ];
              ignore (try_break t race_loser_exn : bool)
            end)
          ts
      in
      List.iter
        (fun t ->
          on_resolve t (fun r ->
              if try_resolve_with p r then cancel_losers ()))
        ts;
      out

let ignore_result (_ : 'a t) = ()

(* The approved detach idiom (lint rule R6): fire-and-forget a future
   WITHOUT swallowing its error side-channel. Failures are routed to a
   [future_detached_error] trace event (and tallied for the lifecycle
   report); successes are dropped. *)
let detach ~name t =
  let on_error e =
    let s = Sim.get () in
    if s.Sim.running then Sim.bump s.Sim.lc_detach_failures name;
    Trace.emit "future_detached_error"
      [ ("actor", name); ("exn", Printexc.to_string e) ]
  in
  match t.state with
  | Resolved (Ok _) -> ()
  | Resolved (Error e) -> on_error e
  | Pending _ ->
      on_resolve t (function Ok _ -> () | Error e -> on_error e)

module Syntax = struct
  let ( let* ) = bind
  let ( let+ ) = map
  let ( and* ) = join2
end
