(* The socket side: spawning [clio_serve serve], reading its /proc
   accounting, and the closed-loop client connections. *)

module P = Server.Protocol

(* --- the server process ----------------------------------------------- *)

type server = { pid : int; socket : string }

let starts_with ~prefix s =
  String.length s >= String.length prefix
  && String.sub s 0 (String.length prefix) = prefix

(* The server inherits no CLIO_* variables, so [--jobs] really stays at its
   default. *)
let spawn ~exe ~argv ~socket ~log =
  (try Sys.remove socket with Sys_error _ -> ());
  let env =
    Unix.environment () |> Array.to_list
    |> List.filter (fun kv -> not (starts_with ~prefix:"CLIO_" kv))
    |> Array.of_list
  in
  let out = Unix.openfile log [ O_WRONLY; O_CREAT; O_APPEND ] 0o644 in
  let null = Unix.openfile "/dev/null" [ O_RDONLY ] 0 in
  let pid =
    Fun.protect
      ~finally:(fun () ->
        Unix.close out;
        Unix.close null)
      (fun () ->
        Unix.create_process_env exe (Array.of_list (exe :: argv)) env null out
          out)
  in
  { pid; socket }

let alive srv =
  match Unix.waitpid [ Unix.WNOHANG ] srv.pid with
  | 0, _ -> true
  | _ -> false
  | exception Unix.Unix_error (Unix.ECHILD, _, _) -> false

(* Every wait on the server is bounded, so a server that stops answering
   fails the run instead of hanging it. *)
let timeout_s = 60.

let kill_hard srv =
  (try Unix.kill srv.pid Sys.sigkill with Unix.Unix_error _ -> ());
  try ignore (Unix.waitpid [] srv.pid) with Unix.Unix_error _ -> ()

(* SIGTERM, then wait for the drained exit: its status, or [None] when the
   server had to be killed. *)
let stop srv =
  (try Unix.kill srv.pid Sys.sigterm with Unix.Unix_error _ -> ());
  let deadline = Clock.now () +. timeout_s in
  let rec wait () =
    match Unix.waitpid [ Unix.WNOHANG ] srv.pid with
    | 0, _ when Clock.now () < deadline ->
        Unix.sleepf 0.0005;
        wait ()
    | 0, _ ->
        kill_hard srv;
        None
    | _, status -> Some status
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> wait ()
    | exception Unix.Unix_error (Unix.ECHILD, _, _) -> None
  in
  wait ()

(* --- /proc ------------------------------------------------------------ *)

let read_proc path =
  (* /proc files report length 0: read line by line. *)
  let ic = open_in path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      let b = Buffer.create 1024 in
      (try
         while true do
           Buffer.add_string b (input_line ic);
           Buffer.add_char b '\n'
         done
       with End_of_file -> ());
      Buffer.contents b)

(* Clock ticks per second of /proc/<pid>/stat times (USER_HZ, 100 on
   Linux). *)
let clk_tck = 100.

(* utime + stime of the process and all its threads, in milliseconds. *)
let cpu_ms pid =
  let stat = read_proc (Printf.sprintf "/proc/%d/stat" pid) in
  (* the command name may hold spaces: fields start after its ')' *)
  let from = String.rindex stat ')' + 2 in
  let after = String.sub stat from (String.length stat - from) in
  let fields = Array.of_list (String.split_on_char ' ' (String.trim after)) in
  (* fields.(0) is field 3 (state); utime and stime are fields 14 and 15 *)
  let ticks i = float_of_string fields.(i - 3) in
  (ticks 14 +. ticks 15) *. 1000. /. clk_tck

(* A "Key:   value kB" line of /proc/<pid>/status, in kB. *)
let status_kb pid key =
  read_proc (Printf.sprintf "/proc/%d/status" pid)
  |> String.split_on_char '\n'
  |> List.find_map (fun line ->
         if starts_with ~prefix:(key ^ ":") line then
           Scanf.sscanf
             (String.sub line (String.length key + 1)
                (String.length line - String.length key - 1))
             " %f" Fun.id
           |> Option.some
         else None)
  |> Option.value ~default:Float.nan

(* --- connections -------------------------------------------------------- *)

type conn = { fd : Unix.file_descr; mutable carry : string }

let connect path =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  match Unix.connect fd (Unix.ADDR_UNIX path) with
  | () -> Some { fd; carry = "" }
  | exception Unix.Unix_error _ ->
      Unix.close fd;
      None

let close conn = try Unix.close conn.fd with Unix.Unix_error _ -> ()

let send conn line =
  let bytes = Bytes.of_string (line ^ "\n") in
  let len = Bytes.length bytes in
  let written = ref 0 in
  while !written < len do
    written := !written + Unix.write conn.fd bytes !written (len - !written)
  done

let chunk = Bytes.create 65536

(* One complete reply line if the buffered bytes hold one. *)
let take_line conn =
  match String.index_opt conn.carry '\n' with
  | None -> None
  | Some i ->
      let line = String.sub conn.carry 0 i in
      conn.carry <-
        String.sub conn.carry (i + 1) (String.length conn.carry - i - 1);
      Some line

let fill conn =
  let n = Unix.read conn.fd chunk 0 (Bytes.length chunk) in
  if n = 0 then failwith "server closed the connection";
  conn.carry <- conn.carry ^ Bytes.sub_string chunk 0 n

let rec recv conn =
  match take_line conn with
  | Some line -> line
  | None ->
      (match Unix.select [ conn.fd ] [] [] timeout_s with
      | [], _, _ -> failwith (Printf.sprintf "no reply within %.0f s" timeout_s)
      | _ -> fill conn
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> ());
      recv conn

(* Connect (retrying while the server boots) and answer a ping: the
   moment the server is ready. *)
let wait_ready srv =
  let deadline = Clock.now () +. timeout_s in
  let rec go () =
    if not (alive srv) then failwith "server exited during boot"
    else if Clock.now () > deadline then failwith "server boot timed out"
    else
      match connect srv.socket with
      | None ->
          Unix.sleepf 0.0005;
          go ()
      | Some conn ->
          send conn
            (P.encode_request
               { P.id = 0; session = None; request = P.Ping; trace_id = None });
          ignore (recv conn);
          conn
  in
  go ()

(* One synchronous call outside the timed phase. *)
let call conn env =
  send conn (P.encode_request env);
  match P.parse_response (recv conn) with
  | Ok r -> r
  | Error msg -> failwith ("unparseable reply: " ^ msg)
