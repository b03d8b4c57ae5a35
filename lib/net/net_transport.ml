(* Transport.t over a TCP socket: lazily dialled, torn down and
   re-dialled on any fault.  Every fault is normalised to
   Transport.Timeout so the existing retry/backoff machinery treats the
   socket exactly like the simulated lossy channels. *)

open Ledger_core

type conn = { fd : Unix.file_descr; dec : Net_framing.decoder }

type t = {
  host : string;
  port : int;
  response_timeout_s : float;
  max_frame : int;
  mu : Mutex.t;
  mutable conn : conn option;
}

let connect ?(response_timeout_s = 5.0) ?(max_frame = Net_framing.default_max_frame)
    ~host ~port () =
  {
    host;
    port;
    response_timeout_s;
    max_frame;
    mu = Mutex.create ();
    conn = None;
  }

let protect mu f =
  Mutex.lock mu;
  Fun.protect ~finally:(fun () -> Mutex.unlock mu) f

let teardown t =
  match t.conn with
  | None -> ()
  | Some { fd; _ } ->
      t.conn <- None;
      (try Unix.close fd with Unix.Unix_error _ -> ())

let close t = protect t.mu (fun () -> teardown t)

(* Any socket fault: the connection is dead, the stream alignment with
   it — drop it and signal the retry layer. *)
let fault t msg =
  teardown t;
  raise (Transport.Timeout msg)

let dial t =
  match t.conn with
  | Some c -> c
  | None -> (
      let fd = Unix.socket ~cloexec:true Unix.PF_INET Unix.SOCK_STREAM 0 in
      try
        Unix.setsockopt_float fd Unix.SO_RCVTIMEO t.response_timeout_s;
        Unix.setsockopt_float fd Unix.SO_SNDTIMEO t.response_timeout_s;
        (try Unix.setsockopt fd Unix.TCP_NODELAY true
         with Unix.Unix_error _ -> ());
        Unix.connect fd
          (Unix.ADDR_INET (Unix.inet_addr_of_string t.host, t.port));
        let c = { fd; dec = Net_framing.create_decoder ~max_frame:t.max_frame () } in
        t.conn <- Some c;
        c
      with Unix.Unix_error (e, _, _) ->
        (try Unix.close fd with Unix.Unix_error _ -> ());
        raise
          (Transport.Timeout
             (Printf.sprintf "connect %s:%d: %s" t.host t.port
                (Unix.error_message e))))

let write_all t fd b =
  let len = Bytes.length b in
  let sent = ref 0 in
  while !sent < len do
    match Unix.write fd b !sent (len - !sent) with
    | 0 -> fault t "send: connection stalled"
    | n -> sent := !sent + n
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
        fault t "send: timed out"
    | exception Unix.Unix_error (e, _, _) ->
        fault t ("send: " ^ Unix.error_message e)
  done

let scratch_len = 16 * 1024

let read_frame t c scratch =
  let deadline = Unix.gettimeofday () +. t.response_timeout_s in
  let result = ref None in
  while !result = None do
    (match Net_framing.next c.dec with
    | Net_framing.Frame payload -> result := Some payload
    | Net_framing.Fail e ->
        fault t ("response framing: " ^ Net_framing.error_to_string e)
    | Net_framing.Awaiting _ -> (
        if Unix.gettimeofday () > deadline then
          fault t "response: timed out";
        match Unix.read c.fd scratch 0 scratch_len with
        | 0 -> fault t "response: connection closed"
        | n -> Net_framing.feed c.dec scratch ~pos:0 ~len:n
        | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
        | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _)
          ->
            fault t "response: timed out"
        | exception Unix.Unix_error (e, _, _) ->
            fault t ("recv: " ^ Unix.error_message e)))
  done;
  match !result with Some p -> p | None -> assert false

let transport t : Transport.t =
 fun request ->
  protect t.mu (fun () ->
      let c = dial t in
      let scratch = Bytes.create scratch_len in
      write_all t c.fd (Net_framing.encode request);
      read_frame t c scratch)
