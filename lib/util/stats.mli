(** Small numeric helpers shared by benches and workloads. *)

type series = float list

val mean : series -> float
(** Arithmetic mean; 0 for the empty series. *)

val stddev : series -> float
(** Population standard deviation; 0 for series shorter than 2. *)

val median : series -> float
(** Median (lower of the two middle elements for even lengths). *)

val percentile : series -> float -> float
(** [percentile xs p] is the nearest-rank p-th percentile, [p] in [\[0,100\]]. *)

val minimum : series -> float
val maximum : series -> float

type counter = { mutable n : int; mutable sum : float }
(** A running total, for throughput accounting. *)

val counter : unit -> counter
val tick : counter -> float -> unit
val rate : counter -> duration:float -> float
(** [rate c ~duration] is [c.sum / duration] (0 when duration <= 0). *)
