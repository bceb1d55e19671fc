(* Monotonic time in seconds, nanosecond resolution (CLOCK_MONOTONIC via
   bechamel's stub): every latency, span and phase boundary uses it. *)
let now () = Int64.to_float (Monotonic_clock.now ()) *. 1e-9

(* [f ()] with its duration in seconds. *)
let time f =
  let t0 = now () in
  let r = f () in
  (r, now () -. t0)
