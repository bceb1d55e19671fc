(* Tests of the benchmark's own helpers: the percentile rule and the traced
   run's reconciliation check.  Run with [dune test perfbench]. *)

let failures = ref 0

let check name cond =
  if not cond then begin
    incr failures;
    Printf.printf "FAIL %s\n" name
  end

let ramp n = Array.init n (fun i -> float_of_int (i + 1))

let () =
  (* p95 needs 10 samples beyond its rank: 200 samples is the minimum *)
  check "p95 of 199 withheld" (Stats.percentile ~q:95. (ramp 199) = None);
  check "p95 of 200 reported" (Stats.percentile ~q:95. (ramp 200) = Some 190.);
  check "p50 of 19 withheld" (Stats.percentile ~q:50. (ramp 19) = None);
  check "p50 of 20 reported" (Stats.percentile ~q:50. (ramp 20) = Some 10.);
  check "empty withheld" (Stats.percentile ~q:50. [||] = None);
  (* nearest rank, independent of input order *)
  let shuffled = Array.of_list (List.rev (Array.to_list (ramp 1000))) in
  check "p95 nearest rank" (Stats.percentile ~q:95. shuffled = Some 950.);
  check "input not sorted in place" (shuffled.(0) = 1000.);
  (* a failed request (infinite latency) misses every limit *)
  let with_failures = Array.append (ramp 190) (Array.make 10 Float.infinity) in
  check "failures sort last" (Stats.percentile ~q:95. with_failures = Some 190.);
  let many_failures = Array.append (ramp 180) (Array.make 20 Float.infinity) in
  check "failures reach p95"
    (Stats.percentile ~q:95. many_failures = Some Float.infinity);
  check "median odd" (Stats.median [| 3.; 1.; 2. |] = 2.);
  check "median even" (Stats.median [| 4.; 1.; 2.; 3. |] = 2.5);
  (* reconciliation: children must cover the root within 50 us + 5% *)
  let rec_ root children =
    Stats.reconciles ~root_us:root ~children_self_us:children
  in
  check "exact cover" (rec_ 1000. [ 600.; 400. ]);
  check "gap within tolerance" (rec_ 1000. [ 600.; 300. ]);
  check "gap beyond tolerance" (not (rec_ 1000. [ 500.; 300. ]));
  check "small request, absolute slack" (rec_ 60. [ 20. ]);
  check "children exceed root" (not (rec_ 1000. [ 900.; 200. ]));
  check "unattributed" (Stats.unattributed_us ~root_us:10. ~children_self_us:[ 3.; 4. ] = 3.);
  (* the run verdict: at most 1 % outliers, summed gap within 5 % *)
  check "run: no outliers"
    (Stats.run_reconciles ~failures:0 ~requests:10 ~unattributed_share:0.01);
  check "run: 1 % outliers"
    (Stats.run_reconciles ~failures:2 ~requests:200 ~unattributed_share:0.01);
  check "run: too many outliers"
    (not (Stats.run_reconciles ~failures:3 ~requests:200 ~unattributed_share:0.01));
  check "run: summed gap too large"
    (not (Stats.run_reconciles ~failures:0 ~requests:200 ~unattributed_share:0.06));
  (* self times from a recorded tree *)
  Spans.reset ();
  Spans.enabled := true;
  Spans.request ~req:7 "root" (fun () ->
      Spans.span "a" (fun () -> Spans.span "b" (fun () -> Unix.sleepf 0.002));
      Spans.span "c" (fun () -> ()));
  Spans.enabled := false;
  let spans = Spans.all () in
  check "four spans" (List.length spans = 4);
  check "one request" (List.for_all (fun s -> s.Spans.req = 7) spans);
  let selfs = Spans.self_times spans in
  let root, root_self = List.find (fun (s, _) -> s.Spans.parent < 0) selfs in
  let below = List.filter_map (fun (s, t) -> if s.Spans.parent >= 0 then Some t else None) selfs in
  check "self times sum to the root"
    (Float.abs (List.fold_left ( +. ) root_self below -. Spans.duration root) < 1e-6);
  check "tree reconciles"
    (Stats.reconciles ~root_us:(Spans.duration root) ~children_self_us:below);
  (* time a wrapper span spends outside its layer children is unattributed,
     so a layer call left without a span fails the check *)
  Spans.reset ();
  Spans.enabled := true;
  Spans.request ~req:8 "root" (fun () ->
      Spans.span "wrap" (fun () ->
          Spans.span "layer" (fun () -> ());
          Unix.sleepf 0.002));
  Spans.enabled := false;
  (match Spans.per_request ~wrappers:[ "wrap" ] (Spans.all ()) with
  | [ (root_us, children_self_us) ] ->
      check "wrapper self time unattributed"
        (not (Stats.reconciles ~root_us ~children_self_us));
      check "wrapper counted as a layer would hide it"
        (match Spans.per_request ~wrappers:[] (Spans.all ()) with
        | [ (r, c) ] -> Stats.reconciles ~root_us:r ~children_self_us:c
        | _ -> false)
  | _ -> check "one request per root" false);
  Spans.enabled := false;
  check "disabled records nothing"
    (Spans.reset ();
     Spans.span "x" (fun () -> ());
     Spans.all () = []);
  if !failures > 0 then exit 1 else print_endline "perfbench tests: ok"
