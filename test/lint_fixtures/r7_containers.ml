(* Fixture: R7 — mutable containers built at module initialisation. *)
let table : (string, bool) Hashtbl.t = Hashtbl.create 32
let fired = Fdb_util.Det_tbl.create ~size:32 ()
let slots = Array.make 8 0

module Inner = struct
  let scratch = (Bytes.create 16, Buffer.create 64)
end

(* Clean: containers made per call, and immutable values built at init. *)
let fresh () = Hashtbl.create 8
let buffer_of s = let b = Buffer.create 16 in Buffer.add_string b s; b
let squares = Array.to_list (Array.init 4 (fun i -> i * i))
let greeting = Bytes.to_string (Bytes.of_string "hi")
