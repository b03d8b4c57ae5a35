(* Multi-domain TCP server: one shared non-blocking listener, [workers]
   domains each select-looping over the connections it accepted.

   Worker domains are deliberately plain [Domain.spawn] loops rather
   than Domain_pool tasks: a pool schedules finite chunks, and parking a
   persistent accept loop inside one would let a single long-lived task
   starve the pool's other users.  Parallelism buys concurrent framing
   and socket I/O on every request; with a [read] handler installed it
   also buys parallel read {e dispatch} — reads are answered from the
   ledger's published snapshot on whichever domain owns the connection,
   no lock taken.  Only mutations (and all requests when no [read]
   handler is given) are serialized by [dispatch_mu]. *)

open Ledger_core
open Ledger_obs

type config = {
  host : string;
  port : int;
  workers : int;
  max_conns : int;
  max_frame : int;
  backlog : int;
}

let default_config =
  {
    host = "127.0.0.1";
    port = 0;
    workers = 4;
    max_conns = 1024;
    max_frame = Net_framing.default_max_frame;
    backlog = 128;
  }

type conn = {
  fd : Unix.file_descr;
  dec : Net_framing.decoder;
  mutable alive : bool;
}

(* A worker's reused buffers: [inbuf] takes socket reads, and every
   response frame is built in [out] (header, payload and CRC in place)
   and written from there.  An [out] grown past [out_cap] for one answer
   is dropped after it, so one 8 MiB frame does not pin 8 MiB. *)
type worker = { wid : int; inbuf : bytes; mutable out : bytes }

let inbuf_len = 16 * 1024
let out_initial = 4096
let out_cap = 64 * 1024

type t = {
  config : config;
  backend : bytes -> bytes;
  read : (bytes -> bytes option) option;
  listener : Unix.file_descr;
  bound_port : int;
  stopping : bool Atomic.t;
  stopped : bool Atomic.t;
  dispatch_mu : Mutex.t;
  stop_mu : Mutex.t;
  mutable domains : unit Domain.t list;
  (* lifetime counters, valid whether or not the obs sink records *)
  n_accepted : int Atomic.t;
  n_refused : int Atomic.t;
  n_active : int Atomic.t;
  n_served : int Atomic.t;
  n_read_served : int Atomic.t;
  n_framing_errors : int Atomic.t;
}

type stats = {
  accepted : int;
  refused : int;
  active : int;
  served : int;
  read_served : int;
  framing_errors : int;
}

let stats t =
  {
    accepted = Atomic.get t.n_accepted;
    refused = Atomic.get t.n_refused;
    active = Atomic.get t.n_active;
    served = Atomic.get t.n_served;
    read_served = Atomic.get t.n_read_served;
    framing_errors = Atomic.get t.n_framing_errors;
  }

let port t = t.bound_port
let running t = not (Atomic.get t.stopping)

let protect mu f =
  Mutex.lock mu;
  Fun.protect ~finally:(fun () -> Mutex.unlock mu) f

(* Write everything, waiting out EAGAIN on the non-blocking fd; a peer
   that vanished surfaces as EPIPE/ECONNRESET and bubbles to the
   caller, which reaps the connection. *)
let write_all fd b len =
  let sent = ref 0 in
  while !sent < len do
    match Unix.write fd b !sent (len - !sent) with
    | n -> sent := !sent + n
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
        ignore (Unix.select [] [ fd ] [] 1.0)
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
  done

let send_frame wk fd payload =
  let len = Ledger_storage.Framing.overhead + Bytes.length payload in
  if Bytes.length wk.out < len then
    wk.out <- Bytes.create (max len (2 * Bytes.length wk.out));
  Net_framing.encode_into wk.out payload;
  let shrink () =
    if Bytes.length wk.out > out_cap then wk.out <- Bytes.create out_initial
  in
  match write_all fd wk.out len with
  | () -> shrink ()
  | exception e ->
      shrink ();
      raise e

let refusal msg = Service.encode_response (Service.Error_r msg)

let close_conn t c =
  if c.alive then begin
    c.alive <- false;
    Atomic.decr t.n_active;
    Metrics.set_gauge "net_conns_active" (float_of_int (Atomic.get t.n_active));
    try Unix.close c.fd with Unix.Unix_error _ -> ()
  end

(* Fast path first: a read handler answering [Some _] never touches
   [dispatch_mu] — it ran entirely against the published snapshot on
   this worker's domain.  [None] (a mutation, or no read handler
   installed) falls back to the serialized backend.  A handler that
   raises is answered with a refusal instead of killing the worker. *)
let dispatch t wk c req =
  let t0 = Unix.gettimeofday () in
  let resp =
    try
      match Option.bind t.read (fun read -> read req) with
      | Some resp ->
          Atomic.incr t.n_read_served;
          Metrics.incr "net_read_dispatch_total";
          Metrics.incr (Printf.sprintf "net_read_dispatch_domain_%d" wk.wid);
          resp
      | None ->
          Metrics.incr "net_locked_dispatch_total";
          protect t.dispatch_mu (fun () -> t.backend req)
    with e -> refusal (Service.error_of_exn e)
  in
  let dt_us = (Unix.gettimeofday () -. t0) *. 1e6 in
  Atomic.incr t.n_served;
  Metrics.incr "net_requests_total";
  Metrics.observe "net_request_us" dt_us;
  Metrics.observe_int "net_request_bytes" (Bytes.length req);
  Metrics.observe_int "net_response_bytes" (Bytes.length resp);
  send_frame wk c.fd resp

(* Decode and answer every complete frame currently buffered.  A framing
   error gets one framed refusal, then the connection dies: the decoder
   cannot resynchronise an untrusted stream. *)
let drain_frames t wk c =
  let continue = ref true in
  while !continue && c.alive do
    match Net_framing.next c.dec with
    | Net_framing.Frame req -> (
        try dispatch t wk c req
        with Unix.Unix_error _ | Sys_error _ -> close_conn t c)
    | Net_framing.Awaiting _ -> continue := false
    | Net_framing.Fail e ->
        Atomic.incr t.n_framing_errors;
        Metrics.incr "net_framing_errors_total";
        (try
           send_frame wk c.fd
             (refusal ("framing: " ^ Net_framing.error_to_string e))
         with Unix.Unix_error _ | Sys_error _ -> ());
        close_conn t c
  done

(* One readable event: pull bytes until the kernel buffer is dry (the
   fd is non-blocking), then serve what framed up. *)
let handle_readable t wk c =
  let eof = ref false and again = ref false in
  while c.alive && (not !eof) && not !again do
    match Unix.read c.fd wk.inbuf 0 inbuf_len with
    | 0 -> eof := true
    | n -> Net_framing.feed c.dec wk.inbuf ~pos:0 ~len:n
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
        again := true
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
    | exception Unix.Unix_error _ -> eof := true
  done;
  drain_frames t wk c;
  if !eof then close_conn t c

let accept_ready t wk conns =
  let continue = ref true in
  while !continue do
    match Unix.accept ~cloexec:true t.listener with
    | fd, _ ->
        Unix.set_nonblock fd;
        (try Unix.setsockopt fd Unix.TCP_NODELAY true
         with Unix.Unix_error _ -> ());
        if Atomic.get t.n_active >= t.config.max_conns then begin
          Atomic.incr t.n_refused;
          Metrics.incr "net_conns_refused_total";
          (try
             send_frame wk fd (refusal "server at capacity");
             Unix.close fd
           with Unix.Unix_error _ | Sys_error _ -> (
             try Unix.close fd with Unix.Unix_error _ -> ()))
        end
        else begin
          Atomic.incr t.n_accepted;
          Atomic.incr t.n_active;
          Metrics.incr "net_conns_accepted_total";
          Metrics.set_gauge "net_conns_active"
            (float_of_int (Atomic.get t.n_active));
          conns :=
            { fd; dec = Net_framing.create_decoder ~max_frame:t.config.max_frame (); alive = true }
            :: !conns
        end
    | exception
        Unix.Unix_error
          ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.ECONNABORTED), _, _) ->
        continue := false
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
    | exception Unix.Unix_error _ ->
        (* listener closed under us during shutdown *)
        continue := false
  done

(* Graceful drain: requests whose bytes already reached us (socket
   buffers included) are served before the connection closes — reads
   still on the lock-free path, so a frame that lands mid-drain is
   answered even while other workers contend on the mutation lock. *)
let drain_and_exit t wk conns =
  List.iter
    (fun c ->
      if c.alive then begin
        handle_readable t wk c;
        close_conn t c
      end)
    !conns;
  conns := []

let worker t wid () =
  let conns = ref [] in
  let wk =
    { wid; inbuf = Bytes.create inbuf_len; out = Bytes.create out_initial }
  in
  let live = ref true in
  while !live do
    if Atomic.get t.stopping then begin
      drain_and_exit t wk conns;
      live := false
    end
    else begin
      let fds =
        List.filter_map (fun c -> if c.alive then Some c.fd else None) !conns
      in
      match Unix.select (t.listener :: fds) [] [] 0.05 with
      | exception Unix.Unix_error ((Unix.EINTR | Unix.EBADF), _, _) -> ()
      | readable, _, _ ->
          if List.memq t.listener readable && not (Atomic.get t.stopping)
          then accept_ready t wk conns;
          List.iter
            (fun c ->
              if c.alive && List.memq c.fd readable then
                handle_readable t wk c)
            !conns;
          conns := List.filter (fun c -> c.alive) !conns
    end
  done

let create ?(config = default_config) ?read backend =
  if config.workers < 1 then invalid_arg "Net_server.create: workers < 1";
  (* a peer closing mid-write must surface as EPIPE, not kill the
     process *)
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore with Invalid_argument _ -> ());
  let listener = Unix.socket ~cloexec:true Unix.PF_INET Unix.SOCK_STREAM 0 in
  (try
     Unix.setsockopt listener Unix.SO_REUSEADDR true;
     let addr =
       Unix.ADDR_INET (Unix.inet_addr_of_string config.host, config.port)
     in
     Unix.bind listener addr;
     Unix.listen listener config.backlog;
     Unix.set_nonblock listener
   with e ->
     (try Unix.close listener with Unix.Unix_error _ -> ());
     raise e);
  let bound_port =
    match Unix.getsockname listener with
    | Unix.ADDR_INET (_, p) -> p
    | Unix.ADDR_UNIX _ -> config.port
  in
  let t =
    {
      config;
      backend;
      read;
      listener;
      bound_port;
      stopping = Atomic.make false;
      stopped = Atomic.make false;
      dispatch_mu = Mutex.create ();
      stop_mu = Mutex.create ();
      domains = [];
      n_accepted = Atomic.make 0;
      n_refused = Atomic.make 0;
      n_active = Atomic.make 0;
      n_served = Atomic.make 0;
      n_read_served = Atomic.make 0;
      n_framing_errors = Atomic.make 0;
    }
  in
  t.domains <- List.init config.workers (fun wid -> Domain.spawn (worker t wid));
  t

let stop t =
  protect t.stop_mu (fun () ->
      if not (Atomic.get t.stopped) then begin
        Atomic.set t.stopping true;
        List.iter Domain.join t.domains;
        t.domains <- [];
        (try Unix.close t.listener with Unix.Unix_error _ -> ());
        Atomic.set t.stopped true
      end)

(* OCaml 5 may run a signal handler on any domain, a worker's included,
   and a worker running [stop] would wait to join itself.  The handler
   only raises the stopping flag: the workers drain and exit, [running]
   turns false, and the owner calls [stop] from its own domain. *)
let install_signal_handlers t =
  let h = Sys.Signal_handle (fun _ -> Atomic.set t.stopping true) in
  (try Sys.set_signal Sys.sigint h with Invalid_argument _ -> ());
  try Sys.set_signal Sys.sigterm h with Invalid_argument _ -> ()
