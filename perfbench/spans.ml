(* The traced run's span recorder: one root span per request, nested child
   spans around the layers' public calls.  Spans are kept in memory and
   written out once at the end, so recording costs two clock reads and one
   allocation per span.  When [enabled] is false, [span] only runs [f]. *)

type span = {
  id : int;
  name : string;
  parent : int;  (** -1 for a root *)
  req : int;  (** request id of the root this span belongs to *)
  start_us : float;
  mutable end_us : float;
}

let enabled = ref false
let recorded : span list ref = ref []
let next_id = ref 0
let stack : span list ref = ref []
let current_req = ref (-1)
let now_us () = Clock.now () *. 1e6

let reset () =
  recorded := [];
  next_id := 0;
  stack := []

let span name f =
  if not !enabled then f ()
  else begin
    let parent = match !stack with s :: _ -> s.id | [] -> -1 in
    let s =
      {
        id = !next_id;
        name;
        parent;
        req = !current_req;
        start_us = now_us ();
        end_us = Float.nan;
      }
    in
    incr next_id;
    stack := s :: !stack;
    Fun.protect
      ~finally:(fun () ->
        s.end_us <- now_us ();
        stack := List.tl !stack;
        recorded := s :: !recorded)
      f
  end

(* A request's root span. *)
let request ~req name f =
  current_req := req;
  span name f

let all () = List.rev !recorded
let duration s = s.end_us -. s.start_us

(* Self time of every span: its duration minus the time its direct
   children cover. *)
let self_times spans =
  let child_time = Hashtbl.create 1024 in
  List.iter
    (fun s ->
      if s.parent >= 0 then
        Hashtbl.replace child_time s.parent
          (duration s
          +. Option.value ~default:0. (Hashtbl.find_opt child_time s.parent)))
    spans;
  List.map
    (fun s ->
      ( s,
        duration s
        -. Option.value ~default:0. (Hashtbl.find_opt child_time s.id) ))
    spans

(* Per request: the root span's duration and the self times of the spans
   below it that belong to a layer.  [wrappers] name spans that only group
   layer calls; their self time, like the root's, is left unattributed. *)
let per_request ~wrappers spans =
  let below = Hashtbl.create 1024 in
  let roots = ref [] in
  List.iter
    (fun (s, self) ->
      if s.parent < 0 then roots := s :: !roots
      else if not (List.mem s.name wrappers) then
        Hashtbl.replace below s.req
          (self :: Option.value ~default:[] (Hashtbl.find_opt below s.req)))
    (self_times spans);
  List.rev_map
    (fun root ->
      (duration root, Option.value ~default:[] (Hashtbl.find_opt below root.req)))
    !roots

(* Times are written relative to the earliest start, so the emitter's
   nine significant digits keep sub-microsecond precision. *)
let write_jsonl path spans =
  let origin = List.fold_left (fun acc s -> Float.min acc s.start_us) infinity spans in
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      List.iter
        (fun s ->
          let int i = Obs.Json.Num (float_of_int i) in
          output_string oc
            (Obs.Json.to_string
               (Obs.Json.Obj
                  [
                    ("id", int s.id);
                    ("name", Obs.Json.Str s.name);
                    ("parent", int s.parent);
                    ("req", int s.req);
                    ("start_us", Obs.Json.Num (s.start_us -. origin));
                    ("end_us", Obs.Json.Num (s.end_us -. origin));
                  ]));
          output_char oc '\n')
        spans)
