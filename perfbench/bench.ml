(* The repo benchmark: one workload, one seed, one run.

     bench.exe --workload NAME --seed N --seconds S --trace 0|1
               --server PATH [--commit ID]

   Spawns a fresh [clio_serve serve] per set-up, drives it over its Unix
   socket with the workload's seeded closed-loop streams, verifies every
   reply, measures a drain-persist-reboot restart, and (with --trace 1)
   replays the streams in process with spans around each layer.  Prints a
   human report, then one JSON result as the last line of stdout.  Exits 1
   when any check fails (the result then carries no metrics). *)

module P = Server.Protocol
module W = Workloads
module D = Driver

let workload = ref ""
let seed = ref 1
let seconds = ref 10.
let trace = ref 0
let server = ref ""

(* Scratch output, relative to the source tree the run is started in; the
   server's socket lives here too, which keeps its path short. *)
let work = ".perfbench_work"
let commit = ref "unknown"

(* Set-ups and restarts repeat: at least [min_reps] times, then more while
   their total stays under the budget, at most [max_reps] times; the
   median is reported. *)
let min_reps = 5
let max_reps = 41
let setup_budget_s = 2.
let restart_budget_s = 4.

let more ~count ~spent ~budget =
  count < min_reps || (count < max_reps && spent < budget)

let args =
  [
    ("--workload", Arg.Set_string workload, "NAME workload to run");
    ("--seed", Arg.Set_int seed, "N seed of the inputs");
    ("--seconds", Arg.Set_float seconds, "S length of the timed phase");
    ("--trace", Arg.Set_int trace, "0|1 end-to-end (0) or per-layer (1) metrics");
    ("--server", Arg.Set_string server, "PATH clio_serve executable");
    ("--commit", Arg.Set_string commit, "ID source revision, for provenance");
  ]

let fail fmt =
  Printf.ksprintf
    (fun msg ->
      prerr_endline ("perfbench: " ^ msg);
      exit 2)
    fmt

(* --- results ----------------------------------------------------------- *)

open Stats
module J = Obs.Json

(* A failed request's infinite latency has no JSON literal: it is written
   as 1e12 ms, beyond any limit. *)
let num v = J.Num (Float.min v 1e12)

let metrics_json ms =
  J.Obj
    (List.map
       (fun m -> (m.name, J.Obj [ ("value", num m.value); ("unit", J.Str m.unit_) ]))
       ms)

let print_metric m =
  Printf.printf "  %-36s %14.4f %-6s (n=%d)\n" m.name m.value m.unit_ m.n

(* --- checks over the recorded samples ----------------------------------- *)

type checks = {
  mutable echo_failures : int;
  mutable mismatches : int;
  mutable unanswered : int;
}

let check_samples samples =
  let c = { echo_failures = 0; mismatches = 0; unanswered = 0 } in
  List.iter
    (fun (s : D.sample) ->
      match s.D.reply with
      | None -> c.unanswered <- c.unanswered + 1
      | Some r -> (
          if r.D.echoed <> Some s.D.trace then
            c.echo_failures <- c.echo_failures + 1;
          (match r.D.error with
          | Some (code, msg) ->
              Printf.eprintf "perfbench: error reply to %s (client %d): %s %s\n%!"
                (Server.Service.verb_name s.D.req) s.D.client
                (P.error_code_name code) msg
          | None -> ());
          (* an error reply where the model predicted a digest is a
             mismatch too: the streams are valid by construction *)
          match (s.D.expect, r.D.digest) with
          | W.Digest d, got when got <> Some d ->
              c.mismatches <- c.mismatches + 1;
              Printf.eprintf "perfbench: digest mismatch on %s (client %d)\n%!"
                s.D.line s.D.client
          | _ -> ()))
    samples;
  c

let ok_reply (s : D.sample) =
  match s.D.reply with Some { D.error = None; _ } -> true | _ -> false

(* Latency in ms; a failed request misses every limit. *)
let latency_ms (s : D.sample) =
  if ok_reply s then (s.D.t_recv -. s.D.t_send) *. 1000. else Float.infinity

let percentile_metric name q samples =
  let values = Array.of_list (List.map latency_ms samples) in
  match Stats.percentile ~q values with
  | Some v -> { name; value = v; unit_ = "ms"; n = Array.length values }
  | None ->
      fail "%s: %d samples leave fewer than %d beyond the percentile" name
        (Array.length values) Stats.min_tail

(* --- server helpers ----------------------------------------------------- *)

let stats_of conn =
  match
    Sock.call conn { P.id = 0; session = None; request = P.Stats; trace_id = None }
  with
  | { P.result = Ok (P.Stats_report kv); _ } -> kv
  | _ -> fail "stats request failed"

let rec mkdir_p d =
  if not (Sys.file_exists d) then begin
    mkdir_p (Filename.dirname d);
    Unix.mkdir d 0o755
  end

let evaluate_on conn sid what =
  match
    Sock.call conn
      {
        P.id = 1;
        session = Some sid;
        request = P.Evaluate { what; limit = None };
        trace_id = None;
      }
  with
  | { P.result = Ok (P.Evaluated e); _ } -> Some e.P.digest
  | _ -> None

(* --- the run ------------------------------------------------------------- *)

let run () =
  Arg.parse args (fun a -> fail "unexpected argument %S" a) "bench.exe [options]";
  let w =
    match W.find !workload with
    | Some w -> w
    | None -> fail "unknown workload %S" !workload
  in
  if !trace <> 0 && !trace <> 1 then fail "--trace must be 0 or 1";
  if not (Sys.file_exists !server) then fail "no server executable at %S" !server;
  let wdir = Filename.concat work w.W.name in
  mkdir_p wdir;
  let specs = w.W.specs in
  let scripts, generate_s = Clock.time (fun () -> W.scripts w ~seed:!seed) in
  let nproc = Domain.recommended_domain_count () in
  let workers = max 1 (min nproc W.clients) in
  let socket = Filename.concat wdir "s.sock" in
  let store = Filename.concat wdir "store" in
  let argv =
    [ "serve"; "--socket"; socket; "--workers"; string_of_int workers; "--store-dir"; store ]
    @ match w.W.cache_mb with Some mb -> [ "--cache-mb"; string_of_int mb ] | None -> []
  in
  let log = Filename.concat wdir "server.log" in
  let servers = ref [] in
  let spawn () =
    let srv = Sock.spawn ~exe:!server ~argv ~socket ~log in
    servers := srv :: !servers;
    srv
  in
  at_exit (fun () -> List.iter Sock.kill_hard !servers);
  let stop srv =
    servers := List.filter (fun s -> s != srv) !servers;
    match Sock.stop srv with
    | Some (Unix.WEXITED (0 | 143)) -> ()
    | _ -> fail "server %d did not drain and exit cleanly" srv.Sock.pid
  in
  (* set-ups: all but the last are stopped; the last serves the timed
     phase *)
  let all_samples = ref [] in
  let setup () =
    Traced.rm_rf store;
    let t0 = Clock.now () in
    let srv = spawn () in
    let control = Sock.wait_ready srv in
    let conns =
      Array.init W.clients (fun _ ->
          match Sock.connect socket with Some c -> c | None -> fail "cannot connect")
    in
    let d = D.create conns specs scripts in
    D.warmup d;
    (srv, control, conns, d, Clock.now () -. t0)
  in
  let rec setups_loop times =
    let ((srv, control, conns, d, dt) as r) = setup () in
    let times = dt :: times in
    if
      not
        (more ~count:(List.length times) ~spent:(Stats.sum (Array.of_list times))
           ~budget:setup_budget_s)
    then (r, times)
    else begin
      all_samples := D.samples d @ !all_samples;
      Array.iter Sock.close conns;
      Sock.close control;
      stop srv;
      setups_loop times
    end
  in
  let (srv, control, conns, d, _), setup_times = setups_loop [] in
  let setup_s = Stats.median (Array.of_list setup_times) in
  let stats0 = stats_of control in
  let cpu0 = Sock.cpu_ms srv.Sock.pid in
  let t_start = Clock.now () in
  D.timed d ~deadline:(t_start +. !seconds);
  let t_end = Clock.now () in
  let cpu1 = Sock.cpu_ms srv.Sock.pid in
  let hwm_kb = Sock.status_kb srv.Sock.pid "VmHWM" in
  let stats1 = stats_of control in
  D.settle d;
  let samples = D.samples d in
  all_samples := samples @ !all_samples;
  (* the final evaluations [settle] ended each kept session with; one
     that got no digest fails every restart check *)
  let before =
    List.filter_map
      (fun (s : D.sample) ->
        match (s.D.final, s.D.sid, s.D.req) with
        | true, Some sid, P.Evaluate { what; _ } ->
            Some (sid, what, Option.bind s.D.reply (fun r -> r.D.digest))
        | _ -> None)
      samples
  in
  let first_sid, first_what =
    match before with (sid, what, _) :: _ -> (sid, what) | [] -> fail "no session kept open"
  in
  Array.iter Sock.close conns;
  (* restarts: drained exit that persists, fresh boot that restores, first
     reply on a restored session; then every kept session's final digests
     are compared with those before. *)
  let restart_ok = ref true in
  let restart srv =
    let t0 = Clock.now () in
    stop srv;
    let t1 = Clock.now () in
    let srv = spawn () in
    let conn = Sock.wait_ready srv in
    let t2 = Clock.now () in
    let first = evaluate_on conn first_sid first_what in
    let t3 = Clock.now () in
    List.iteri
      (fun i (sid, what, digest) ->
        let after = if i = 0 then first else evaluate_on conn sid what in
        if digest = None || after <> digest then begin
          restart_ok := false;
          Printf.eprintf "perfbench: %s of session %s differs after a restart\n%!"
            (P.what_name what) sid
        end)
      before;
    Sock.close conn;
    (srv, (t3 -. t0, (t1 -. t0, t2 -. t1, t3 -. t2)))
  in
  Sock.close control;
  let rec restarts srv acc =
    let srv, r = restart srv in
    let acc = r :: acc in
    if
      more ~count:(List.length acc)
        ~spent:(Stats.sum (Array.of_list (List.map fst acc)))
        ~budget:restart_budget_s
    then restarts srv acc
    else (srv, acc)
  in
  let last, restart_runs = restarts srv [] in
  stop last;
  let restart_times = List.map fst restart_runs in
  let restart_s = Stats.median (Array.of_list restart_times) in
  let part f = Stats.median (Array.of_list (List.map (fun (_, p) -> f p) restart_runs)) in
  (* checks and end-to-end metrics *)
  let checks = check_samples !all_samples in
  let timed = List.filter (fun (s : D.sample) -> s.D.phase = D.Timed) samples in
  let attempted = List.length timed in
  let ok = List.length (List.filter ok_reply timed) in
  let failed = attempted - ok in
  let elapsed = t_end -. t_start in
  let of_kind k = List.filter (fun (s : D.sample) -> W.kind_of s.D.req = k) timed in
  let half_ok lo hi =
    List.length
      (List.filter
         (fun (s : D.sample) -> ok_reply s && s.D.t_recv >= lo && s.D.t_recv < hi)
         timed)
  in
  let mid = t_start +. (elapsed /. 2.) in
  let first_half = float_of_int (half_ok t_start mid) /. (elapsed /. 2.) in
  let second_half = float_of_int (half_ok mid (t_end +. 1.)) /. (elapsed /. 2.) in
  let end_to_end =
    [
      { name = "throughput_ops_s"; value = float_of_int ok /. elapsed; unit_ = "1/s"; n = ok };
      percentile_metric "p50_ms" 50. timed;
      percentile_metric "p95_ms" 95. timed;
      percentile_metric "read_p50_ms" 50. (of_kind W.Read);
      percentile_metric "read_p95_ms" 95. (of_kind W.Read);
      percentile_metric "write_p50_ms" 50. (of_kind W.Write);
      percentile_metric "write_p95_ms" 95. (of_kind W.Write);
      { name = "setup_s"; value = setup_s; unit_ = "s"; n = List.length setup_times };
      { name = "restart_s"; value = restart_s; unit_ = "s"; n = List.length restart_times };
      { name = "peak_rss_mb"; value = hwm_kb /. 1024.; unit_ = "MB"; n = 1 };
      {
        name = "server_cpu_ms_per_op";
        value = (cpu1 -. cpu0) /. float_of_int (max 1 ok);
        unit_ = "ms";
        n = ok;
      };
    ]
  in
  let error_rate =
    {
      name = "error_rate";
      value = float_of_int failed /. float_of_int (max 1 attempted);
      unit_ = "ratio";
      n = attempted;
    }
  in
  let layers, layers_ok =
    if !trace = 1 then
      Layers.measure ~w ~wdir ~seed:!seed ~socket_timed:timed
        ~warm:(List.filter (fun (s : D.sample) -> s.D.phase = D.Warmup) samples)
        ~post:(List.filter (fun (s : D.sample) -> s.D.phase = D.Post) samples)
        ~stats0 ~stats1
    else ([], true)
  in
  let correct =
    checks.echo_failures = 0 && checks.mismatches = 0 && checks.unanswered = 0
    && !restart_ok && layers_ok
  in
  (* report *)
  Printf.printf "perfbench %s  seed %d  %.0f s  trace %d\n" w.W.name !seed !seconds !trace;
  Printf.printf "  server: clio_serve %s\n" (String.concat " " argv);
  Printf.printf "  nproc %d  ocaml %s  commit %s  streams generated in %.2f s\n" nproc
    Sys.ocaml_version !commit generate_s;
  Printf.printf
    "  requests %d  ok %d  errors %d  trace-echo failures %d  digest \
     mismatches %d  restart %s\n"
    attempted ok failed checks.echo_failures checks.mismatches
    (if !restart_ok then "ok" else "FAILED");
  Printf.printf "  throughput first half %.1f/s  second half %.1f/s\n" first_half second_half;
  Printf.printf
    "  restart medians: drain+persist %.4f s  boot+restore %.4f s  first reply %.4f s\n"
    (part (fun (a, _, _) -> a)) (part (fun (_, b, _) -> b)) (part (fun (_, _, c) -> c));
  List.iter print_metric (end_to_end @ [ error_rate ]);
  List.iter print_metric layers;
  let reported = if !trace = 1 then layers else end_to_end in
  let result =
    J.to_string
      (J.Obj
         [
           ("correct", J.Bool correct);
           ("attempted", J.Num (float_of_int attempted));
           ("failed", J.Num (float_of_int failed));
           ("metrics", metrics_json (if correct then reported else []));
         ])
  in
  (* the full record, with provenance *)
  let oc =
    open_out
      (Filename.concat wdir
         (Printf.sprintf "result-seed%d-trace%d.json" !seed !trace))
  in
  output_string oc
    (J.to_string_pretty
       (J.Obj
          [
            ("workload", J.Str w.W.name);
            ("seed", J.Num (float_of_int !seed));
            ("seconds", J.Num !seconds);
            ("trace", J.Num (float_of_int !trace));
            ("nproc", J.Num (float_of_int nproc));
            ("clients", J.Num (float_of_int W.clients));
            ("server_argv", J.Arr (List.map (fun a -> J.Str a) ("clio_serve" :: argv)));
            ("ocaml", J.Str Sys.ocaml_version);
            ("commit", J.Str !commit);
            ("setup_runs_s", J.Arr (List.rev_map num setup_times));
            ("restart_runs_s", J.Arr (List.rev_map num restart_times));
            ("throughput_halves", J.Arr [ num first_half; num second_half ]);
            ("correct", J.Bool correct);
            ("metrics", metrics_json (end_to_end @ [ error_rate ] @ layers));
          ]));
  close_out oc;
  print_endline result;
  if not correct then exit 1

let () = try run () with Failure msg -> fail "%s" msg
