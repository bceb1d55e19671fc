(* The traced run: the socket run's requests replayed in one process, in
   their send order, through the layers' public functions.

   [Service.handle] and [Store.commit] cannot be opened from outside, so
   [handle] performs the service's dispatch itself through the same public
   calls ([Registry], [Version.Store], [Mapping_eval], [Eval_ctx],
   [Workspace], render, [Protocol]) with a span around each.  Its replies
   must carry the digests the socket run got. *)

open Relational
module P = Server.Protocol
module R = Server.Registry
module D = Driver

let span = Spans.span

(* Spans that group layer calls without being a layer: the time they spend
   outside their children counts as unattributed in reconciliation. *)
let wrappers = [ "service.handle" ]

(* --- the dispatch, one span per layer call ------------------------------ *)

let entry_infos ?scores ws =
  let active = (Clio.Workspace.active ws).Clio.Workspace.id in
  List.map
    (fun (e : Clio.Workspace.entry) ->
      {
        P.entry = e.id;
        label = e.label;
        graph = Querygraph.Qgraph.to_string e.mapping.Clio.Mapping.graph;
        active = e.id = active;
        score = Option.bind scores (fun tbl -> Hashtbl.find_opt tbl e.id);
      })
    (Clio.Workspace.entries ws)

let rows_of rel = function
  | None -> None
  | Some k ->
      let rows = ref [] and taken = ref 0 in
      (try
         Relation.iter
           (fun t ->
             if !taken >= k then raise Exit;
             incr taken;
             rows := Array.to_list (Array.map Value.to_string t) :: !rows)
           rel
       with Exit -> ());
      Some (List.rev !rows)

let render what rel limit =
  P.Evaluated
    {
      what;
      count = Relation.cardinality rel;
      scheme =
        Array.to_list
          (Array.map Attr.to_string (Schema.attrs (Relation.schema rel)));
      digest = Workloads.digest_of rel;
      rows = rows_of rel limit;
    }

let db_version ws = Database.version (Clio.Workspace.db ws)
let ws s = span "registry.ws" (fun () -> R.ws s)

let commit s op =
  let ws =
    span "version.commit" (fun () ->
        Version.Store.commit s.R.store ~branch:s.R.branch op)
  in
  P.Entries (span "core.entries" (fun () -> entry_infos ws))

let evaluate s what limit =
  let w = ws s in
  let mapping = (Clio.Workspace.active w).Clio.Workspace.mapping in
  let rel =
    match what with
    | P.Target -> span "core.target_view" (fun () -> Clio.Workspace.target_view w)
    | P.Dg ->
        span "engine.dg" (fun () ->
            Fulldisj.Full_disjunction.to_relation
              (Clio.Mapping_eval.data_associations (Clio.Workspace.ctx w) mapping))
    | P.Fj ->
        span "engine.fj" (fun () ->
            Clio.Eval_ctx.full_associations (Clio.Workspace.ctx w)
              mapping.Clio.Mapping.graph)
  in
  span "relational.render" (fun () -> render what rel limit)

let rank s =
  let w = ws s in
  span "core.rank" (fun () ->
      let kb = Clio.Workspace.kb w in
      let old = (Clio.Workspace.active w).Clio.Workspace.mapping.Clio.Mapping.graph in
      let scores = Hashtbl.create 8 in
      List.iter
        (fun (e : Clio.Workspace.entry) ->
          Hashtbl.replace scores e.id
            (Schemakb.Rank.total
               (Schemakb.Rank.score ~kb ~old e.mapping.Clio.Mapping.graph)))
        (Clio.Workspace.entries w);
      P.Entries (entry_infos ~scores w))

let session_verb registry s = function
  | P.Close_session ->
      span "registry.close" (fun () -> ignore (R.close_session registry s.R.sid));
      P.Closed
  | P.Evaluate { what; limit } -> evaluate s what limit
  | P.Offer { start; goal; max_len } ->
      commit s (Version.Op.Offer { start; goal; max_len })
  | P.Rotate -> commit s Version.Op.Rotate
  | P.Select { entry } -> commit s (Version.Op.Select { entry })
  | P.Delete { entry } -> commit s (Version.Op.Delete { entry })
  | P.Confirm -> commit s Version.Op.Confirm
  | P.Insert { relation; rows } ->
      let before = db_version (ws s) in
      let w =
        span "version.commit" (fun () ->
            Version.Store.commit s.R.store ~branch:s.R.branch
              (Version.Op.Insert { relation; rows }))
      in
      P.Inserted { fresh = db_version w <> before; version = db_version w }
  | P.Rank -> rank s
  | P.Branch { name } ->
      let w =
        span "version.branch" (fun () ->
            Version.Store.branch s.R.store ~from:s.R.branch name)
      in
      s.R.branch <- name;
      P.Branched { branch = name; version = db_version w }
  | P.Checkout { name } ->
      let w = span "version.checkout" (fun () -> Version.Store.checkout s.R.store name) in
      s.R.branch <- name;
      P.Checked_out { branch = name; version = db_version w }
  | P.Merge { from_ } ->
      let rows =
        span "version.merge" (fun () ->
            Version.Store.merge s.R.store ~into:s.R.branch ~from:from_)
      in
      P.Merged { branch = s.R.branch; rows; version = db_version (ws s) }
  | P.Diff { other } ->
      P.Stats_report
        (span "version.diff" (fun () ->
             Version.Store.diff s.R.store ~a:s.R.branch ~b:other))
  | P.Branches ->
      P.Branch_list
        {
          current = s.R.branch;
          branches =
            span "version.branches" (fun () -> Version.Store.branches s.R.store);
        }
  | _ -> invalid_arg "not a session verb of the workloads"

let dispatch registry (env : P.envelope) =
  let id = env.id in
  let reply =
    match env.request with
    | P.Open_session spec ->
        let s = span "registry.open" (fun () -> R.open_session registry spec) in
        let db = Clio.Workspace.db (ws s) in
        P.ok id
          (P.Opened
             {
               session = s.R.sid;
               relations = Database.relation_names db;
               version = Database.version db;
             })
    | request -> (
        match
          span "registry.find" (fun () ->
              Option.bind env.session (R.find registry))
        with
        | None -> P.error (Some id) P.Unknown_session "no such session"
        | Some s -> (
            match session_verb registry s request with
            | result -> P.ok id result
            | exception Invalid_argument msg -> P.error (Some id) P.Bad_request msg
            | exception Not_found -> P.error (Some id) P.Bad_request "unknown entry"))
  in
  { reply with P.trace_id = env.trace_id }

let handle registry ~req line =
  Spans.request ~req "request" (fun () ->
      match span "protocol.decode" (fun () -> P.parse_request line) with
      | Error (id, code, msg) ->
          span "protocol.encode" (fun () -> P.encode_response (P.error id code msg))
      | Ok env ->
          let reply = span "service.handle" (fun () -> dispatch registry env) in
          span "protocol.encode" (fun () -> P.encode_response reply))

(* --- replay ------------------------------------------------------------ *)

type mode = Service | Untraced | Traced

type pass = {
  registry : R.t;
  latency_us : (int, float) Hashtbl.t;  (** by request seq, timed prefix only *)
  mutable mismatches : int;
  mutable counters : (string * int) list;  (** Obs deltas over the prefix *)
  mutable minor_words : float;
  mutable major_collections : int;
}

(* Replay [warm] (unmeasured), then [timed] (measured), then [post]
   (unmeasured, after closing every session the prefix left open). *)
let replay ?cache_bytes ?(post = []) mode ~warm ~timed =
  let registry = R.create ?cache_bytes () in
  let service = Server.Service.create registry in
  let p =
    {
      registry;
      latency_us = Hashtbl.create 1024;
      mismatches = 0;
      counters = [];
      minor_words = 0.;
      major_collections = 0;
    }
  in
  let sids = Hashtbl.create 64 in
  (* A request on a session this replay never opened (one the timed phase
     opened after the prefix, closed in [post]) is left out. *)
  let run ~measure (s : D.sample) =
    match P.parse_request s.D.line with
    | Error _ -> ()
    | Ok env -> (
        let session = Option.map (Hashtbl.find_opt sids) env.P.session in
        match session with
        | Some None -> ()
        | _ ->
            let line = P.encode_request { env with P.session = Option.join session } in
            (* the GC figures cover the handling only, not this client's own
               parsing and checking *)
            let majors0 = (Gc.quick_stat ()).Gc.major_collections in
            let words0 = Gc.minor_words () in
            let t0 = Clock.now () in
            let reply =
              match mode with
              | Service -> Server.Service.handle_frame service line
              | Untraced | Traced -> handle registry ~req:s.D.seq line
            in
            let dt = (Clock.now () -. t0) *. 1e6 in
            let words1 = Gc.minor_words () in
            let majors1 = (Gc.quick_stat ()).Gc.major_collections in
            if measure then begin
              Hashtbl.replace p.latency_us s.D.seq dt;
              p.minor_words <- p.minor_words +. (words1 -. words0);
              p.major_collections <- p.major_collections + (majors1 - majors0)
            end;
            let mine =
              Result.to_option (Result.map D.answer_of (P.parse_response reply))
            in
            let field f r = Option.bind r f in
            let opened a = a.D.opened and digest a = a.D.digest in
            (match (field opened s.D.reply, field opened mine) with
            | Some sock, Some mine -> Hashtbl.replace sids sock mine
            | _ -> ());
            if field digest s.D.reply <> field digest mine then
              p.mismatches <- p.mismatches + 1)
  in
  List.iter (run ~measure:false) warm;
  Spans.enabled := mode = Traced;
  let counters0 =
    if mode = Traced then begin
      Obs.enable ();
      Some (Obs.Counter.snapshot ())
    end
    else None
  in
  List.iter (run ~measure:true) timed;
  Option.iter (fun c -> p.counters <- Obs.Counter.deltas_since c) counters0;
  Obs.disable ();
  Spans.enabled := false;
  List.iter (fun sid -> ignore (R.close_session registry sid)) (R.session_ids registry);
  List.iter (run ~measure:false) post;
  p

(* --- persistence, measured from outside the server ----------------------- *)

let rec rm_rf path =
  match Sys.is_directory path with
  | true ->
      Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
      Sys.rmdir path
  | false -> Sys.remove path
  | exception Sys_error _ -> ()

let rec bytes_under path =
  if Sys.is_directory path then
    Array.fold_left
      (fun acc f -> acc + bytes_under (Filename.concat path f))
      0 (Sys.readdir path)
  else (Unix.stat path).Unix.st_size

type persistence = {
  save_s : float;
  load_s : float;
  snapshot_bytes : int;
  persist_s : float;
  restore_s : float;
  commits_replayed : int;
  probe_merge_us : float;
  probe_diff_us : float;
}

(* The stores of the sessions [registry] holds open, each once. *)
let stores registry =
  List.fold_left
    (fun acc sid ->
      match R.find registry sid with
      | Some s when not (List.memq s.R.store acc) -> s.R.store :: acc
      | _ -> acc)
    [] (R.session_ids registry)
  |> List.rev

let persistence ?cache_bytes registry ~dir =
  rm_rf dir;
  Unix.mkdir dir 0o755;
  let vdir = Filename.concat dir "stores"
  and rdir = Filename.concat dir "registry" in
  let store_dirs =
    List.mapi
      (fun i st -> (st, Filename.concat vdir (Printf.sprintf "store-%d" i)))
      (stores registry)
  in
  let save_s =
    List.fold_left
      (fun acc (st, d) ->
        acc +. snd (Clock.time (fun () -> Version.Store.save st ~dir:d)))
      0. store_dirs
  in
  let snapshot_bytes =
    List.fold_left (fun acc (_, d) -> acc + bytes_under d) 0 store_dirs
  in
  let (), persist_s = Clock.time (fun () -> R.persist registry ~dir:rdir) in
  let resolve spec =
    let db, kb, mapping = Server.Scenario.resolve spec in
    Clio.Workspace.create
      (Clio.Eval_ctx.create
         ~cache:(Engine.Eval_cache.create ?byte_budget:cache_bytes ())
         ~kb db)
      mapping
  in
  let load_s =
    List.fold_left
      (fun acc (_, d) ->
        let load () = ignore (Version.Store.load ~resolve ~dir:d ()) in
        acc +. snd (Clock.time load))
      0. store_dirs
  in
  let restored = R.create ?cache_bytes () in
  Obs.enable ();
  let before = Obs.Counter.snapshot () in
  let _, restore_s = Clock.time (fun () -> R.restore restored ~dir:rdir) in
  let commits_replayed =
    Option.value ~default:0
      (List.assoc_opt "version.snapshot.commits_replayed"
         (Obs.Counter.deltas_since before))
  in
  Obs.disable ();
  (* One merge and one diff per restored store against a fresh branch: the
     version layer's merge and diff cost on workloads whose streams never
     merge or diff. *)
  let merges = ref [] and diffs = ref [] in
  List.iter
    (fun sid ->
      match R.find restored sid with
      | None -> ()
      | Some s ->
          let probe = "probe-" ^ sid in
          ignore (Version.Store.branch s.R.store ~from:s.R.branch probe);
          let _, m =
            Clock.time (fun () ->
                Version.Store.merge s.R.store ~into:s.R.branch ~from:probe)
          in
          let _, d =
            Clock.time (fun () -> Version.Store.diff s.R.store ~a:s.R.branch ~b:probe)
          in
          merges := (m *. 1e6) :: !merges;
          diffs := (d *. 1e6) :: !diffs)
    (R.session_ids restored);
  {
    save_s;
    load_s;
    snapshot_bytes;
    persist_s;
    restore_s;
    commits_replayed;
    probe_merge_us = Stats.median (Array.of_list !merges);
    probe_diff_us = Stats.median (Array.of_list !diffs);
  }
