(* Host-side clocks and allocation counters.  [start_ns] is taken when the
   benchmark program initialises, which is what "process start" means in
   every end-to-end metric. *)

let now_ns () = Int64.to_int (Monotonic_clock.now ())

let start_ns = now_ns ()

(* Words allocated so far: minor + major - promoted, so a promoted block is
   counted once. *)
let words () =
  let s = Gc.quick_stat () in
  s.minor_words +. s.major_words -. s.promoted_words
