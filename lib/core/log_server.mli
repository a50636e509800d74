(** The LogServer: a replicated, sharded, persistent queue of the redo log
    (paper §2.4.3, Figure 2).

    Pushes from Proxies carry (LSN, previous LSN, KCV) plus the payload for
    the tags this server replicates (possibly empty). Records are persisted
    strictly in LSN-chain order and acknowledged only once durable, so the
    Durable Version (DV) is always chain-contiguous — the property the
    recovery's [RV = min DV] rule depends on. StorageServers peek their
    tag's stream (including not-yet-durable entries, §2.4.3 "aggressively
    fetch") and pop what they have persisted.

    After a crash the server is resurrected from disk in {e stopped} mode:
    it can serve [Log_lock] for recovery and peeks for stragglers, but
    accepts no new pushes — its epoch is over. *)

type t

val create :
  Context.t ->
  Fdb_sim.Process.t ->
  disk:Fdb_sim.Disk.t ->
  epoch:Types.epoch ->
  id:int ->
  start_lsn:Types.version ->
  t * int
(** Fresh LogServer for a new generation; registers and returns its
    endpoint, and installs a boot thunk that resurrects it from disk in
    stopped mode after a crash. *)

val chain_from : floor:Types.version -> Message.log_entry list -> Message.log_entry list
(** The records a resurrected server keeps from its WAL: the contiguous
    chain starting at [floor] (the first record's [le_prev] is [floor],
    each next one's is the previous LSN), in chain order. Records at or
    below [floor] are ignored. Where several records name the same
    predecessor, the one with the largest LSN is taken. Costs one sort of
    the records, then one lookup per link. *)

val durable_version : t -> Types.version
val known_committed : t -> Types.version
val unpopped_bytes : t -> int
(** Backlog size (Ratekeeper / diagnostics). *)
