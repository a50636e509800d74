(** One description of a range read — the unified surface the layer
    ecosystem programs against.

    A query names its two endpoints as key selectors (paper §2.2), a row
    limit, a streaming mode (how storage round-trips are budgeted), a
    direction, snapshot-ness, and an optional continuation cursor. The
    client exposes two evaluators, its only range reads: {!Client.range}
    runs one bounded batch and returns a continuation, {!Client.range_all}
    drains the query. *)

type mode = [ `Want_all | `Iterator | `Exact of int ]
(** [`Want_all] drains with large batches, [`Iterator] uses modest row/byte
    budgets per round-trip, [`Exact n] sizes batches for exactly [n] rows. *)

type t = {
  rq_begin : Message.key_selector;
  rq_end : Message.key_selector;
  rq_limit : int;  (** max rows returned (whole query, not per batch) *)
  rq_mode : mode;
  rq_reverse : bool;
  rq_snapshot : bool;  (** [true]: add no read conflict ranges *)
  rq_continuation : string option;
      (** resume cursor from a previous {!Client.range} batch *)
}

val create :
  ?limit:int ->
  ?mode:mode ->
  ?reverse:bool ->
  ?snapshot:bool ->
  ?continuation:string ->
  begin_:Message.key_selector ->
  end_:Message.key_selector ->
  unit ->
  t
(** General form: both endpoints are key selectors, resolved by the
    client against the transaction's snapshot. Defaults:
    [limit = 1000], [mode = `Want_all], forward, non-snapshot. *)

val keys :
  ?limit:int ->
  ?mode:mode ->
  ?reverse:bool ->
  ?snapshot:bool ->
  ?continuation:string ->
  from:string ->
  until:string ->
  unit ->
  t
(** [\[from, until)] as plain keys (firstGreaterOrEqual bounds) — the fast
    path, no selector-resolution round-trips. *)

val prefix :
  ?limit:int ->
  ?mode:mode ->
  ?reverse:bool ->
  ?snapshot:bool ->
  ?continuation:string ->
  string ->
  unit ->
  t
(** Every key starting with the given byte prefix. *)

val trivial_bounds : t -> (string * string) option
(** [Some (from, until)] when both endpoints are plain
    firstGreaterOrEqual/no-offset selectors (resolution is the identity). *)

val with_continuation : t -> string -> t
(** The same query resumed from a batch cursor. *)
