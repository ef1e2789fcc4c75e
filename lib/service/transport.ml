type handler = string -> string option * bool

let pump ~stop handle ~recv ~send =
  let rec loop () =
    (not (stop ()))
    &&
    match recv () with
    | None -> false
    | Some line ->
        let response, shutdown = handle line in
        Option.iter send response;
        shutdown || loop ()
  in
  loop ()

exception Watchdog_timeout

let watchdog ~fuse handle line =
  let arm it_value =
    ignore (Unix.setitimer Unix.ITIMER_REAL { Unix.it_interval = 0.0; it_value })
  in
  (* A timer that fires as [handle] returns must not escape this call. *)
  let live = ref true in
  let fire _ = if !live then raise Watchdog_timeout in
  let old = Sys.signal Sys.sigalrm (Sys.Signal_handle fire) in
  arm fuse;
  let answer =
    match handle line with
    | answer ->
        live := false;
        answer
    | exception Watchdog_timeout ->
        let detail = Printf.sprintf "hard watchdog fired after %.3gs" fuse in
        let e = Protocol.budget_exhausted_error detail in
        (Some (Protocol.error_response ~id:None e), false)
  in
  arm 0.0;
  Sys.set_signal Sys.sigalrm old;
  answer

let handler ?deadline server =
  match deadline with
  | None -> Server.handle_line server
  | Some d -> watchdog ~fuse:((2.0 *. d) +. 0.5) (Server.handle_line server)

let send_to oc r =
  output_string oc r;
  output_char oc '\n';
  flush oc

let serve_channels ~stop ?deadline server ic oc =
  try
    ignore
      (pump ~stop (handler ?deadline server)
         ~recv:(fun () -> In_channel.input_line ic)
         ~send:(send_to oc))
  with Sys_error _ -> (* An interrupted read during shutdown. *) ()

(* [In_channel.input_line]'s lines from a connection, read so that a
   stop request is seen while the client sits idle: a line already
   buffered is returned at once; otherwise [stop] is checked before each
   wait, and the wait ([Unix.select]) ends on data, a signal or a short
   timeout. [None] on a stop request or at end of input. Unread bytes
   are [buf.(lo .. hi - 1)], with no newline before [scanned]. *)
let socket_lines ~stop fd =
  let buf = ref (Bytes.create 65536) in
  let lo = ref 0 and hi = ref 0 and scanned = ref 0 in
  let rec take_line () =
    if !scanned >= !hi then None
    else if Bytes.get !buf !scanned = '\n' then begin
      let line = Bytes.sub_string !buf !lo (!scanned - !lo) in
      lo := !scanned + 1;
      scanned := !lo;
      Some line
    end
    else begin
      incr scanned;
      take_line ()
    end
  in
  (* Read more after [hi], first moving the partial line to the front
     and growing [buf] if it is full. *)
  let fill () =
    let len = !hi - !lo in
    Bytes.blit !buf !lo !buf 0 len;
    scanned := !scanned - !lo;
    lo := 0;
    hi := len;
    if len = Bytes.length !buf then buf := Bytes.extend !buf 0 len;
    Unix.read fd !buf len (Bytes.length !buf - len)
  in
  let rec recv () =
    match take_line () with
    | Some _ as line -> line
    | None when stop () -> None
    | None -> (
        match Unix.select [ fd ] [] [] 0.1 with
        | [], _, _ -> recv ()
        | _ -> (
            match fill () with
            | 0 ->
                (* End of input: a last unterminated line still counts. *)
                let rest = Bytes.sub_string !buf !lo (!hi - !lo) in
                lo := !hi;
                if rest = "" then None else Some rest
            | k ->
                hi := !hi + k;
                recv ())
        | exception Unix.Unix_error (Unix.EINTR, _, _) -> recv ())
  in
  recv

(* Only a socket left behind by an unclean death is ours to remove. *)
let clear_stale path =
  match (Unix.lstat path).Unix.st_kind with
  | Unix.S_SOCK -> Ok (Unix.unlink path)
  | _ -> Error (Printf.sprintf "%s exists and is not a socket" path)
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> Ok ()

let serve_socket ~stop ?deadline server path =
  clear_stale path
  |> Result.map @@ fun () ->
     let handle = handler ?deadline server in
     let sock = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
     Unix.bind sock (Unix.ADDR_UNIX path);
     Unix.listen sock 8;
     (* Any signal interrupts accept; only a stop request ends the loop. *)
     let rec accept () =
       if stop () then None
       else
         try Some (fst (Unix.accept sock))
         with Unix.Unix_error (Unix.EINTR, _, _) -> accept ()
     in
     let rec loop () =
       match accept () with
       | None -> ()
       | Some conn ->
           let shutdown =
             try
               pump ~stop handle
                 ~recv:(socket_lines ~stop conn)
                 ~send:(send_to (Unix.out_channel_of_descr conn))
             with Sys_error _ | Unix.Unix_error _ ->
               (* A dropped client must not take the daemon down. *)
               false
           in
           (try Unix.close conn with Unix.Unix_error _ -> ());
           if not shutdown then loop ()
     in
     Fun.protect loop ~finally:(fun () ->
         (try Unix.close sock with Unix.Unix_error _ -> ());
         try Unix.unlink path with Unix.Unix_error _ -> ())
