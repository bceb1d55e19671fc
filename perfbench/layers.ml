(* The per-layer metrics of a traced run (--trace 1): the socket run's
   warm-up and the first [trace_requests] timed requests replayed in
   process, in send order, four times over fresh registries. *)

module D = Driver
module W = Workloads

let median_or_zero a = if Array.length a = 0 then 0. else Stats.median a
let ratio a b = if b = 0. then 0. else a /. b
let sum_list l = List.fold_left ( +. ) 0. l

let measure ~w ~wdir ~seed ~(socket_timed : D.sample list) ~warm ~post ~stats0
    ~stats1 =
  let cache_bytes = Option.map (fun mb -> mb * 1024 * 1024) w.W.cache_mb in
  let prefix = List.filteri (fun i _ -> i < w.W.trace_requests) socket_timed in
  let replay ?post mode =
    Traced.replay ?cache_bytes ?post mode ~warm ~timed:prefix
  in
  (* the in-process latency through the real service; then untraced, traced
     and untraced again, so warm-up favours neither side of the overhead
     ratio *)
  let svc = replay Traced.Service in
  let unt = replay ~post Traced.Untraced in
  let persistence =
    Traced.persistence ?cache_bytes unt.Traced.registry
      ~dir:(Filename.concat wdir "trace-store")
  in
  Spans.reset ();
  let trc = replay Traced.Traced in
  let unt2 = replay Traced.Untraced in
  let spans = Spans.all () in
  Spans.write_jsonl
    (Filename.concat wdir (Printf.sprintf "spans-%d.jsonl" seed))
    spans;
  (* spans of the timed prefix, by request kind *)
  let kind = Hashtbl.create 1024 in
  List.iter
    (fun (s : D.sample) -> Hashtbl.replace kind s.D.seq (W.kind_of s.D.req))
    prefix;
  let spans = List.filter (fun s -> Hashtbl.mem kind s.Spans.req) spans in
  let span_p50 ?only name =
    List.filter_map
      (fun s ->
        if
          s.Spans.name = name
          && Option.fold ~none:true
               ~some:(fun k -> Hashtbl.find kind s.Spans.req = k)
               only
        then Some (Spans.duration s)
        else None)
      spans
    |> Array.of_list |> median_or_zero
  in
  (* reconciliation, per request and for the run *)
  let trees = Spans.per_request ~wrappers:Traced.wrappers spans in
  let failures =
    List.length
      (List.filter
         (fun (root_us, children_self_us) ->
           not (Stats.reconciles ~root_us ~children_self_us))
         trees)
  in
  let root_total = sum_list (List.map fst trees) in
  let unattributed =
    ratio
      (sum_list
         (List.map
            (fun (root_us, children_self_us) ->
              Stats.unattributed_us ~root_us ~children_self_us)
            trees))
      root_total
  in
  let reconciled =
    List.length trees = List.length prefix
    && Stats.run_reconciles ~failures ~requests:(List.length trees)
         ~unattributed_share:unattributed
  in
  if not reconciled then
    Printf.eprintf
      "perfbench: the traced run fails reconciliation (%d of %d requests)\n%!"
      failures (List.length trees);
  let mismatches =
    List.fold_left (fun acc p -> acc + p.Traced.mismatches) 0 [ svc; unt; trc; unt2 ]
  in
  if mismatches > 0 then
    Printf.eprintf
      "perfbench: %d in-process replies differ from the socket run\n%!"
      mismatches;
  (* in-process latencies, and the socket-side figures they pair with *)
  let latencies p =
    List.filter_map
      (fun (s : D.sample) -> Hashtbl.find_opt p.Traced.latency_us s.D.seq)
      prefix
  in
  let untraced_total = (sum_list (latencies unt) +. sum_list (latencies unt2)) /. 2. in
  let loop_overhead =
    List.filter_map
      (fun (s : D.sample) ->
        Option.map
          (fun inproc -> ((s.D.t_recv -. s.D.t_send) *. 1e6) -. inproc)
          (Hashtbl.find_opt svc.Traced.latency_us s.D.seq))
      prefix
  in
  let socket_wall_us =
    match prefix with
    | [] -> 0.
    | first :: _ ->
        (List.fold_left (fun acc (s : D.sample) -> Float.max acc s.D.t_recv) 0. prefix
        -. first.D.t_send)
        *. 1e6
  in
  let stat_delta k =
    let get kv = Option.value ~default:0. (List.assoc_opt k kv) in
    get stats1 -. get stats0
  in
  let dispatched = stat_delta "server.workers.dispatched" in
  (* Obs counter deltas of the traced replay's prefix *)
  let ctr k =
    float_of_int (Option.value ~default:0 (List.assoc_opt k trc.Traced.counters))
  in
  let hit_ratio tier =
    let hits = ctr ("cache." ^ tier ^ ".hits") in
    ratio hits (hits +. ctr ("cache." ^ tier ^ ".misses"))
  in
  (* merge and diff: the stream's own, else the probe's *)
  let stream_or ~probe name =
    let p = span_p50 name in
    if p > 0. then p else probe
  in
  let p = persistence in
  let n = List.length prefix in
  let m name value unit_ = { Stats.name; value; unit_; n } in
  let metrics =
    [
      m "loop.overhead_us_p50" (median_or_zero (Array.of_list loop_overhead)) "us";
      m "protocol.decode_us" (span_p50 "protocol.decode") "us";
      m "protocol.encode_us" (span_p50 "protocol.encode") "us";
      m "protocol.reply_bytes"
        (Stats.mean
           (Array.of_list
              (List.map (fun (s : D.sample) -> float_of_int s.D.reply_bytes) socket_timed)))
        "bytes";
      m "service.handle_us_p50" (span_p50 "service.handle") "us";
      m "service.handle_read_us_p50" (span_p50 ~only:W.Read "service.handle") "us";
      m "service.handle_write_us_p50" (span_p50 ~only:W.Write "service.handle") "us";
      m "workers.wait_ms_per_req" (ratio (stat_delta "server.workers.wait_ms") dispatched) "ms";
      m "workers.dispatched" dispatched "count";
      m "workers.concurrency" (ratio (sum_list (latencies svc)) socket_wall_us) "ratio";
      m "version.commit_us_p50" (span_p50 "version.commit") "us";
      m "version.merge_us" (stream_or ~probe:p.Traced.probe_merge_us "version.merge") "us";
      m "version.diff_us" (stream_or ~probe:p.Traced.probe_diff_us "version.diff") "us";
      m "version.commits" (ctr "version.commits") "count";
      m "version.save_s" p.Traced.save_s "s";
      m "version.load_s" p.Traced.load_s "s";
      m "version.snapshot_bytes" (float_of_int p.Traced.snapshot_bytes) "bytes";
      m "version.commits_replayed" (float_of_int p.Traced.commits_replayed) "count";
      m "registry.persist_s" p.Traced.persist_s "s";
      m "registry.restore_s" p.Traced.restore_s "s";
      m "registry.open_us" (span_p50 "registry.open") "us";
      m "core.target_view_us" (span_p50 "core.target_view") "us";
      m "walk.alternatives" (ctr "walk.alternatives") "count";
      m "illustration.candidates_considered" (ctr "illustration.candidates_considered")
        "count";
      m "engine.dg_us" (span_p50 "engine.dg") "us";
      m "engine.fj_us" (span_p50 "engine.fj") "us";
      m "engine.fj_hit_ratio" (hit_ratio "fj") "ratio";
      m "engine.dg_hit_ratio" (hit_ratio "dg") "ratio";
      m "engine.evictions" (ctr "cache.fj.evictions" +. ctr "cache.dg.evictions") "count";
      m "engine.promotions"
        (ctr "cache.promote.fj.free" +. ctr "cache.promote.fj.repaired"
        +. ctr "cache.promote.dg.free" +. ctr "cache.promote.dg.repaired")
        "count";
      m "engine.bytes_resident"
        (float_of_int
           (Option.fold ~none:0 ~some:Engine.Eval_cache.bytes_resident
              (Server.Registry.cache trc.Traced.registry)))
        "bytes";
      m "fulldisj.subsumption_checks" (ctr "fulldisj.subsumption_checks") "count";
      m "fulldisj.assoc_kept_ratio"
        (ratio (ctr "fulldisj.assoc_kept") (ctr "fulldisj.assoc_considered"))
        "ratio";
      m "relational.render_us" (span_p50 "relational.render") "us";
      m "value_pool.count" (float_of_int (Relational.Value_pool.count ())) "count";
      m "value_pool.bytes" (float_of_int (Relational.Value_pool.footprint_bytes ())) "bytes";
      m "gc.minor_words_per_req" (ratio unt.Traced.minor_words (float_of_int n)) "words";
      m "gc.major_collections" (float_of_int unt.Traced.major_collections) "count";
      m "trace.overhead_ratio" (ratio root_total untraced_total) "ratio";
      m "trace.unattributed_share" unattributed "ratio";
      m "trace.reconcile_failures" (float_of_int failures) "count";
    ]
  in
  (metrics, mismatches = 0 && reconciled)
