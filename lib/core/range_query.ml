type mode = [ `Want_all | `Iterator | `Exact of int ]

type t = {
  rq_begin : Message.key_selector;
  rq_end : Message.key_selector;
  rq_limit : int;
  rq_mode : mode;
  rq_reverse : bool;
  rq_snapshot : bool;
  rq_continuation : string option;
}

let first_greater_or_equal key =
  { Message.sel_key = key; sel_or_equal = false; sel_offset = 1 }

let create ?(limit = 1000) ?(mode = `Want_all) ?(reverse = false)
    ?(snapshot = false) ?continuation ~begin_ ~end_ () =
  {
    rq_begin = begin_;
    rq_end = end_;
    rq_limit = limit;
    rq_mode = mode;
    rq_reverse = reverse;
    rq_snapshot = snapshot;
    rq_continuation = continuation;
  }

let keys ?limit ?mode ?reverse ?snapshot ?continuation ~from ~until () =
  create ?limit ?mode ?reverse ?snapshot ?continuation
    ~begin_:(first_greater_or_equal from) ~end_:(first_greater_or_equal until) ()

let prefix ?limit ?mode ?reverse ?snapshot ?continuation p () =
  let from, until = Types.range_of_prefix p in
  keys ?limit ?mode ?reverse ?snapshot ?continuation ~from ~until ()

(* A firstGreaterOrEqual selector with no offset IS its key as a range
   bound: both bounds trivial means the query needs no selector-resolution
   round-trips at all (the fast path every plain-key read takes). *)
let trivial (sel : Message.key_selector) =
  (not sel.Message.sel_or_equal) && sel.Message.sel_offset = 1

let trivial_bounds q =
  if trivial q.rq_begin && trivial q.rq_end then
    Some (q.rq_begin.Message.sel_key, q.rq_end.Message.sel_key)
  else None

let with_continuation q c = { q with rq_continuation = Some c }
