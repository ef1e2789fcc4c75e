(** The daemon's one loop: request lines in, {!Server.handle_line}'s
    answers out, over stdin/stdout or a Unix-domain socket. One
    response per line, blank lines ignored, a [shutdown] request ends
    it. The caller installs the signals and passes the stop check in as
    [stop], read before each request and each accept. With a
    [deadline], each request also runs under {!watchdog} with a fuse of
    [2 deadline + 0.5] seconds: the solver checks its budget only
    between candidates, so one pathological evaluation could overstay. *)

type handler = string -> string option * bool
(** A request line to its response ([None] for a blank line) and
    whether to stop, as {!Server.handle_line}. *)

(* stochlint: allow UNUSED_EXPORT — test_service and test_chaos drive the line pump in process *)
val pump :
  stop:(unit -> bool) ->
  handler ->
  recv:(unit -> string option) ->
  send:(string -> unit) ->
  bool
(** Answer [recv]'s lines through [send] until end of input, a stop
    request or a [shutdown] request; [true] after the last. *)

(* stochlint: allow UNUSED_EXPORT — test_service fires the fuse on a handler that spins *)
val watchdog : fuse:float -> handler -> handler
(** [handle] under a SIGALRM timer: a request still running after
    [fuse] seconds is answered with code 6
    ({!Protocol.budget_exhausted_error}). *)

val serve_channels :
  stop:(unit -> bool) -> ?deadline:float -> Server.t -> in_channel ->
  out_channel -> unit
(** Serve one input channel; an interrupted read ends it quietly. *)

val serve_socket :
  stop:(unit -> bool) -> ?deadline:float -> Server.t -> string ->
  (unit, string) result
(** Serve a socket at the path, one client at a time, until a
    [shutdown] or stop request. A dropped client never takes the
    daemon down; the socket file is removed on exit. A stale socket at
    the path is replaced; anything else there is left untouched and
    refused with [Error]. *)
