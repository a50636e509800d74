(** Deterministic structured event trace.

    Roles emit trace events (like FDB's TraceEvent); tests compare traces
    across runs to assert determinism, and the CLI can dump them for
    debugging a failing seed. The buffer belongs to the current {!Engine.run}
    and stays readable after it ends, until the next run starts. *)

type event = Sim.trace_event = {
  te_time : float;
  te_name : string;
  te_fields : (string * string) list;
}

val emit : string -> (string * string) list -> unit
(** Record one event at the current virtual time and fold its name into
    {!Engine.trace_checksum}. Does nothing outside a run. *)

val events : unit -> event list
(** All events of the current or last run, in emission order. *)

val dump : Format.formatter -> unit -> unit
(** Pretty-print the whole trace. *)

val count : string -> int
(** Number of events with the given name — used by tests as the paper's
    conditional-coverage macros ("did this rare path run?"). *)
