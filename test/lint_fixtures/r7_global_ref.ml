(* Fixture: R7 — top-level mutable state, at any module depth. *)
let knob = ref 4
let pair = (Stdlib.ref 0, 1)

module Inner = struct
  let counter = ref 0
end

(* Clean: a ref made per call is local state, and a constant is a constant. *)
let fresh () = ref 0
let limit = 512
let bump = function r -> incr r
