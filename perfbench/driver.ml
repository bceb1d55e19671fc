(* The closed-loop client: one connection per simulated designer, each
   with exactly one request in flight, all multiplexed from this one
   thread.  Every request is recorded as a [sample] and checked after the
   run. *)

module P = Server.Protocol
module W = Workloads

type phase = Warmup | Timed | Post

type sample = {
  seq : int;  (** global send order *)
  client : int;
  phase : phase;
  req : P.request;
  line : string;  (** the frame sent *)
  sid : string option;  (** the session it addressed *)
  final : bool;  (** a closing check of a session kept for the restart *)
  expect : W.expect;
  trace : string;
  t_send : float;
  mutable t_recv : float;
  mutable reply : answer option;
  mutable reply_bytes : int;
}

(* What the checks need of a reply; samples keep only this, so the client
   retains little per request and its own GC stays flat over a run. *)
and answer = {
  error : (P.error_code * string) option;
  digest : string option;  (** of an [Evaluated] reply *)
  opened : string option;  (** session id of an [Opened] reply *)
  echoed : string option;  (** the trace id echoed *)
}

type item = { ireq : P.request; iexpect : W.expect; ifinal : bool }

let answer_of (r : P.response) =
  {
    error = (match r.P.result with Error e -> Some e | Ok _ -> None);
    digest =
      (match r.P.result with Ok (P.Evaluated e) -> Some e.P.digest | _ -> None);
    opened =
      (match r.P.result with Ok (P.Opened { session; _ }) -> Some session | _ -> None);
    echoed = r.P.trace_id;
  }

type client = {
  idx : int;
  conn : Sock.conn;
  spec : P.scenario;
  scripts : W.script array;
  mutable sid : string option;
  mutable queue : item list;
  mutable pending : sample option;
  mutable next_script : int;
}

type t = {
  clients : client array;
  mutable seq : int;
  mutable samples : sample list;  (** newest first *)
}

let create conns specs scripts =
  {
    clients =
      Array.mapi
        (fun idx conn ->
          {
            idx;
            conn;
            spec = specs.(idx);
            scripts = scripts.(idx);
            sid = None;
            queue = [];
            pending = None;
            next_script = 0;
          })
        conns;
    seq = 0;
    samples = [];
  }

let close_item = { ireq = P.Close_session; iexpect = W.No_check; ifinal = false }

let session_items c k ~close =
  let open_ = { ireq = P.Open_session c.spec; iexpect = W.No_check; ifinal = false } in
  let steps =
    List.map
      (fun s -> { ireq = s.W.req; iexpect = s.W.expect; ifinal = false })
      c.scripts.(k).W.steps
  in
  (open_ :: steps)
  @ if close then [ close_item ] else []

let send t c phase item =
  t.seq <- t.seq + 1;
  let trace = Printf.sprintf "c%d-%d" c.idx t.seq in
  let session =
    match item.ireq with P.Open_session _ -> None | _ -> c.sid
  in
  let line =
    P.encode_request { P.id = t.seq; session; request = item.ireq; trace_id = Some trace }
  in
  let s =
    {
      seq = t.seq;
      client = c.idx;
      phase;
      req = item.ireq;
      line;
      sid = session;
      final = item.ifinal;
      expect = item.iexpect;
      trace;
      t_send = Clock.now ();
      t_recv = Float.nan;
      reply = None;
      reply_bytes = 0;
    }
  in
  c.pending <- Some s;
  t.samples <- s :: t.samples;
  Sock.send c.conn line

let on_reply c s line =
  s.t_recv <- Clock.now ();
  s.reply_bytes <- String.length line;
  c.pending <- None;
  match P.parse_response line with
  | Error msg -> failwith ("unparseable reply: " ^ msg)
  | Ok r -> (
      let a = answer_of r in
      s.reply <- Some a;
      match (s.req, a.opened) with
      | P.Open_session _, Some session -> c.sid <- Some session
      | P.Close_session, _ -> c.sid <- None
      | _ -> ())

(* Run one phase: [refill c] may queue a client's next items when its queue
   runs dry; [may_send ()] gates every new request (the timed phase's
   deadline).  Returns when no client has a request in flight or anything
   it may send. *)
let run_phase t phase ~refill ~may_send =
  let advance c =
    if c.pending = None && may_send () then begin
      if c.queue = [] then refill c;
      match c.queue with
      | item :: rest ->
          c.queue <- rest;
          send t c phase item
      | [] -> ()
    end
  in
  Array.iter advance t.clients;
  let busy () =
    Array.fold_left
      (fun fds c -> if c.pending <> None then c.conn.Sock.fd :: fds else fds)
      [] t.clients
  in
  let rec loop () =
    match busy () with
    | [] -> ()
    | fds ->
        (match Unix.select fds [] [] Sock.timeout_s with
        | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
        | [], _, _ ->
            failwith
              (Printf.sprintf "no reply within %.0f s to %s" Sock.timeout_s
                 (String.concat ", "
                    (Array.to_list t.clients
                    |> List.filter_map (fun c -> Option.map (fun s -> s.line) c.pending))))
        | readable, _, _ ->
            Array.iter
              (fun c ->
                if List.memq c.conn.Sock.fd readable then begin
                  Sock.fill c.conn;
                  let rec drain () =
                    match (c.pending, Sock.take_line c.conn) with
                    | Some s, Some line ->
                        on_reply c s line;
                        advance c;
                        drain ()
                    | _ -> ()
                  in
                  drain ()
                end)
              t.clients);
        loop ()
  in
  loop ()

(* Untimed warm-up: every client runs its script 0 once. *)
let warmup t =
  Array.iter (fun c -> c.queue <- session_items c 0 ~close:true) t.clients;
  run_phase t Warmup ~refill:(fun _ -> ()) ~may_send:(fun () -> true)

(* The timed phase: sessions cycle through scripts 1, 2, ..., 0, 1, ...
   until [deadline]; no request is sent after it. *)
let timed t ~deadline =
  Array.iter
    (fun c ->
      c.queue <- [];
      c.next_script <- 1 mod Array.length c.scripts)
    t.clients;
  run_phase t Timed
    ~refill:(fun c ->
      c.queue <- session_items c c.next_script ~close:true;
      c.next_script <- (c.next_script + 1) mod Array.length c.scripts)
    ~may_send:(fun () -> Clock.now () < deadline)

(* After the timed phase: close any session cut off by the deadline, then
   replay every script once more and leave each session open, ending with
   evaluations of D(G) and the target view checked against the script's
   final digests.  These are the sessions a restart must bring back. *)
let settle t =
  Array.iter
    (fun c ->
      let close = if c.sid <> None then [ close_item ] else [] in
      let kept k =
        session_items c k ~close:false
        @ List.map
            (fun (what, d) ->
              {
                ireq = P.Evaluate { what; limit = None };
                iexpect = W.Digest d;
                ifinal = true;
              })
            c.scripts.(k).W.final
      in
      c.queue <- close @ List.concat (List.init (Array.length c.scripts) kept))
    t.clients;
  run_phase t Post ~refill:(fun _ -> ()) ~may_send:(fun () -> true)

let samples t = List.rev t.samples
