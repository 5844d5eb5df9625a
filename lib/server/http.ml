open Hio.Io

module Conn = struct
  (* Transport-agnostic since the Backend redesign: a connection is
     whatever record of operations the backend produced — in-memory
     bounded channels ([Ev.Backend.sim]) or a non-blocking TCP socket
     ([Ev.Real]). The message layer below only ever goes through these
     four operations, so it runs unchanged on either. *)
  type t = Ev.Backend.conn

  let send_string (conn : t) s = conn.Ev.Backend.c_send s
  let recv_char (conn : t) = conn.Ev.Backend.c_recv_char ()
  let close (conn : t) = conn.Ev.Backend.c_close ()

  (* Both readers create their buffer in the continuation of the first
     read, not when the value is built: one [recv_line conn] value may be
     run many times, and each run must start from an empty line. *)
  let recv_line conn =
    let rec step buf = function
      | '\n' -> return (Buffer.contents buf)
      | '\r' -> (
          (* expect \n next; tolerate a bare \r *)
          recv_char conn >>= function
          | '\n' -> return (Buffer.contents buf)
          | c ->
              Buffer.add_char buf '\r';
              Buffer.add_char buf c;
              go buf)
      | c ->
          Buffer.add_char buf c;
          go buf
    and go buf = recv_char conn >>= step buf in
    recv_char conn >>= fun c -> step (Buffer.create 32) c

  let drain_available (conn : t) =
    let rec go buf =
      conn.Ev.Backend.c_try_recv () >>= function
      | Some c ->
          Buffer.add_char buf c;
          go buf
      | None -> return (Buffer.contents buf)
    in
    conn.Ev.Backend.c_try_recv () >>= function
    | Some c ->
        let buf = Buffer.create 32 in
        Buffer.add_char buf c;
        go buf
    | None -> return ""
end

type request = {
  meth : string;
  path : string;
  headers : (string * string) list;
  body : string;
}

type response = { status : int; reason : string; body : string }

exception Bad_request of string

let split_header line =
  match String.index_opt line ':' with
  | None -> raise (Bad_request ("malformed header: " ^ line))
  | Some i ->
      let key = String.lowercase_ascii (String.trim (String.sub line 0 i)) in
      let value =
        String.trim (String.sub line (i + 1) (String.length line - i - 1))
      in
      (key, value)

let read_request conn =
  Conn.recv_line conn >>= fun request_line ->
  (match String.split_on_char ' ' (String.trim request_line) with
  | [ meth; path; _version ] -> return (meth, path)
  | [ meth; path ] -> return (meth, path)
  | _ -> throw (Bad_request ("malformed request line: " ^ request_line)))
  >>= fun (meth, path) ->
  let rec read_headers acc =
    Conn.recv_line conn >>= fun line ->
    if String.trim line = "" then return (List.rev acc)
    else
      match split_header line with
      | header -> read_headers (header :: acc)
      | exception Bad_request m -> throw (Bad_request m)
  in
  read_headers [] >>= fun headers ->
  let content_length =
    match List.assoc_opt "content-length" headers with
    | Some v -> ( match int_of_string_opt v with Some n -> n | None -> -1)
    | None -> 0
  in
  if content_length < 0 then throw (Bad_request "bad content-length")
  else
    let rec read_body n acc =
      if n = 0 then return (String.concat "" (List.rev acc))
      else
        Conn.recv_char conn >>= fun c ->
        read_body (n - 1) (String.make 1 c :: acc)
    in
    read_body content_length [] >>= fun body ->
    return { meth; path; headers; body }

let write_response conn { status; reason; body } =
  Conn.send_string conn
    (Printf.sprintf "HTTP/1.0 %d %s\r\ncontent-length: %d\r\n\r\n%s" status
       reason (String.length body) body)

let write_request conn { meth; path; headers; body } =
  let header_lines =
    String.concat ""
      (List.map (fun (k, v) -> Printf.sprintf "%s: %s\r\n" k v) headers)
  in
  let content =
    if body = "" then ""
    else Printf.sprintf "content-length: %d\r\n" (String.length body)
  in
  Conn.send_string conn
    (Printf.sprintf "%s %s HTTP/1.0\r\n%s%s\r\n%s" meth path header_lines
       content body)

let read_response conn =
  Conn.recv_line conn >>= fun status_line ->
  (match String.split_on_char ' ' (String.trim status_line) with
  | _version :: code :: reason -> (
      match int_of_string_opt code with
      | Some status -> return (status, String.concat " " reason)
      | None -> throw (Bad_request ("bad status line: " ^ status_line)))
  | _ -> throw (Bad_request ("bad status line: " ^ status_line)))
  >>= fun (status, reason) ->
  let rec read_headers acc =
    Conn.recv_line conn >>= fun line ->
    if String.trim line = "" then return (List.rev acc)
    else read_headers (split_header line :: acc)
  in
  read_headers [] >>= fun headers ->
  let content_length =
    match List.assoc_opt "content-length" headers with
    | Some v -> int_of_string v
    | None -> 0
  in
  let rec read_body n acc =
    if n = 0 then return (String.concat "" (List.rev acc))
    else
      Conn.recv_char conn >>= fun c ->
      read_body (n - 1) (String.make 1 c :: acc)
  in
  read_body content_length [] >>= fun body -> return { status; reason; body }

let ok body = { status = 200; reason = "OK"; body }
let not_found = { status = 404; reason = "Not Found"; body = "not found" }

let timeout_response =
  { status = 504; reason = "Gateway Timeout"; body = "timed out" }

let bad_request m = { status = 400; reason = "Bad Request"; body = m }
