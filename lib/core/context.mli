(** Static deployment context threaded through every role.

    Plays the part of FDB's cluster file plus compile-time knowledge: the
    network handle, the configuration, and the well-known endpoints that
    survive reboots (coordinators, worker agents, storage servers). Role
    endpoints that change each epoch (proxies, resolvers, log servers) are
    NOT here — they travel through recruitment messages and the
    coordinated state, as in the paper. *)

type dd_thresholds = {
  split_bytes : int;  (** split a shard whose persistent size exceeds this *)
  split_bandwidth : float;  (** ... or whose read+write traffic exceeds this (bytes/s) *)
  merge_bytes : int;  (** merge adjacent same-team shards both smaller than this *)
  imbalance_ratio : float;  (** move a shard off a server this many times hotter than the coldest *)
}

type dd_policy = {
  interval : float;  (** how often the DataDistributor's rebalance loop wakes *)
  thresholds : dd_thresholds option;  (** [None]: no splits, merges or moves *)
}

type t = {
  net : Message.t Fdb_sim.Network.t;
  config : Config.t;
  shard_map : Shard_map.t;
  coordinator_eps : int list;  (** the "cluster file" *)
  worker_eps : int array;  (** worker agent endpoint, by machine index *)
  storage_eps : int array;  (** storage server endpoint, by server id *)
  metrics : Fdb_obs.Registry.t;
      (** cluster-wide metrics plane: every role publishes here *)
  mutable dd_policy : dd_policy;
      (** shared by every DataDistributor incarnation; see {!set_dd_policy} *)
}

val idle_dd_policy : dd_policy
(** Where every cluster starts: wake every 1 s, movement off — runs that
    do not opt in keep byte-identical schedules and checksums. *)

val set_dd_policy : t -> dd_policy -> unit
(** The one way to change a cluster's data-distribution policy, right
    after [Cluster.create] or mid-run; the rebalance loop reads it on its
    next wakeup. *)

val rpc :
  t ->
  ?timeout:float ->
  ?bytes:int ->
  from:Fdb_sim.Process.t ->
  int ->
  Message.t ->
  Message.t Fdb_sim.Future.t
(** {!Fdb_sim.Network.call} specialized to the cluster message type; a
    [Reject e] reply is raised as [Error.Fdb e] so callers pattern-match
    only success shapes. *)

val window_start_version : t -> Types.version
(** The version simulated time had reached one MVCC window ago (versions
    track simulated time at {!Types.versions_per_second}). Work parked on
    a predecessor versioned below it can never be unparked: every RPC that
    could still carry that predecessor has long timed out. *)

val paxos_transport : t -> from:Fdb_sim.Process.t -> Fdb_paxos.Wire.transport
(** Coordinator transport for Paxos clients running on [from]. *)

val proposer_id : Fdb_sim.Process.t -> int
(** Unique Paxos proposer identity for a process. *)
