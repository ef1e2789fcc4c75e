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

let pump_channels ~stop handle ic oc =
  pump ~stop handle
    ~recv:(fun () -> In_channel.input_line ic)
    ~send:(fun r ->
      output_string oc r;
      output_char oc '\n';
      flush oc)

let serve_channels ~stop ?deadline server ic oc =
  try ignore (pump_channels ~stop (handler ?deadline server) ic oc)
  with Sys_error _ -> (* An interrupted read during shutdown. *) ()

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
               pump_channels ~stop handle
                 (Unix.in_channel_of_descr conn)
                 (Unix.out_channel_of_descr conn)
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
