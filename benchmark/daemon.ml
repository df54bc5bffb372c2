(* The real [rlc_timing serve] daemon as a child process, driven over its
   Unix socket with newline-delimited JSON. *)

module Json = Rlc_service.Json

type t = { pid : int; socket : string }
type conn = { ic : in_channel; oc : out_channel }

let request_line ?(schema = Rlc_service.Protocol.schema) fields =
  Json.to_string (Json.Obj (("schema", Json.Str schema) :: fields))

let connect t =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  match Unix.connect fd (Unix.ADDR_UNIX t.socket) with
  | () -> { ic = Unix.in_channel_of_descr fd; oc = Unix.out_channel_of_descr fd }
  | exception e ->
      Unix.close fd;
      raise e

let close c = close_in_noerr c.ic

(* One closed-loop round trip: send a line, wait for its response line. *)
let call c line =
  output_string c.oc line;
  output_char c.oc '\n';
  flush c.oc;
  input_line c.ic

let call_once t line =
  let c = connect t in
  Fun.protect ~finally:(fun () -> close c) (fun () -> call c line)

let kill t =
  (try Unix.kill t.pid Sys.sigterm with Unix.Unix_error _ -> ());
  ignore (Unix.waitpid [] t.pid)

(* Spawn [exe serve --socket] with [args] and wait until it answers
   [health] with [ready]: the socket is bound only after [--warm] has
   characterized its sizes, so this is the daemon's whole start-up. *)
let start ~exe ~socket ~log args =
  (try Sys.remove socket with Sys_error _ -> ());
  let null = Unix.openfile "/dev/null" [ Unix.O_RDWR ] 0 in
  let err = Unix.openfile log [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644 in
  let argv = Array.of_list (exe :: "serve" :: "--socket" :: socket :: args) in
  let pid =
    Fun.protect
      ~finally:(fun () ->
        Unix.close null;
        Unix.close err)
      (fun () -> Unix.create_process exe argv null null err)
  in
  let t = { pid; socket } in
  let deadline = Stats.now () +. 120. in
  let rec wait () =
    (match Unix.waitpid [ Unix.WNOHANG ] pid with
    | 0, _ -> ()
    | _ -> failwith (Printf.sprintf "daemon exited during start-up (see %s)" log));
    let ready =
      match call_once t (request_line [ ("kind", Json.Str "health") ]) with
      | resp -> (
          match Json.parse resp with
          | Ok j -> Json.member "ready" j = Some (Json.Bool true)
          | Error _ -> false)
      | exception (Unix.Unix_error _ | End_of_file | Sys_error _) -> false
    in
    if not ready then
      if Stats.now () > deadline then begin
        kill t;
        failwith "daemon did not become ready within 120 s"
      end
      else begin
        Unix.sleepf 0.01;
        wait ()
      end
  in
  wait ();
  t

(* Ask for a clean exit (sidecar traces are written on the way out) and
   reap the process. *)
let shutdown t =
  (match call_once t (request_line [ ("kind", Json.Str "shutdown") ]) with
  | _ -> ()
  | exception (Unix.Unix_error _ | End_of_file | Sys_error _) -> (
      try Unix.kill t.pid Sys.sigterm with Unix.Unix_error _ -> ()));
  ignore (Unix.waitpid [] t.pid)
