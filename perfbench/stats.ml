(* Order statistics, the reported metric, and the traced run's
   reconciliation check. *)

(* One reported figure; [n] is its sample count. *)
type metric = { name : string; value : float; unit_ : string; n : int }

(* Samples that must lie strictly beyond a reported percentile: below this
   the percentile is one or two lucky (or unlucky) samples, not a figure. *)
let min_tail = 10

(* Nearest-rank percentile of [samples] at [q] (0 < q < 100), or [None]
   when fewer than [min_tail] samples lie beyond the rank.  Infinite
   samples (failed requests) sort last, so they count as missing every
   limit. *)
let percentile ~q samples =
  let n = Array.length samples in
  let rank = int_of_float (Float.ceil (q /. 100. *. float_of_int n)) in
  if n = 0 || n - rank < min_tail then None
  else begin
    let sorted = Array.copy samples in
    Array.sort Float.compare sorted;
    Some sorted.(max 0 (rank - 1))
  end

(* Median without the tail requirement, for small summaries (set-up
   repeats, per-layer medians).  [nan] on no samples. *)
let median samples =
  let n = Array.length samples in
  if n = 0 then Float.nan
  else begin
    let sorted = Array.copy samples in
    Array.sort Float.compare sorted;
    if n mod 2 = 1 then sorted.(n / 2)
    else (sorted.((n / 2) - 1) +. sorted.(n / 2)) /. 2.
  end

let sum samples = Array.fold_left ( +. ) 0. samples

let mean samples =
  if Array.length samples = 0 then Float.nan
  else sum samples /. float_of_int (Array.length samples)

(* Reconciliation of one traced request: the root span's duration must be
   covered by layer spans.  [children_self_us] are the self times of the
   layer spans below the root; what remains, the root's own time and that
   of wrapper spans such as [service.handle], is unattributed.  It may be
   at most [tol_abs_us] plus [tol_rel] of the root's duration. *)
let tol_abs_us = 50.
let tol_rel = 0.05

let unattributed_us ~root_us ~children_self_us =
  root_us -. List.fold_left ( +. ) 0. children_self_us

let reconciles ~root_us ~children_self_us =
  let gap = unattributed_us ~root_us ~children_self_us in
  gap >= -.tol_abs_us && gap <= tol_abs_us +. (tol_rel *. root_us)

(* The run's verdict.  A GC pause that falls between two spans lands in no
   layer span, so up to [max_outlier_share] of the requests may miss the
   per-request tolerance; the unattributed time summed over all requests
   must still stay within [tol_rel] of the roots' summed duration. *)
let max_outlier_share = 0.01

let run_reconciles ~failures ~requests ~unattributed_share =
  float_of_int failures <= max_outlier_share *. float_of_int requests
  && unattributed_share <= tol_rel
