(* The load generator: one thread, one select loop, pipelined framed
   requests over a few connections.  Responses come back in request
   order on each connection, so each is matched to the head of that
   connection's pending queue.  Nothing is verified here except what the
   next request depends on (scan cursors and epochs). *)

open Ledger_net
open Ledger_core

let now = Unix.gettimeofday

type slot = {
  item : Inputs.item;
  conn : int;
  mutable due : float;  (** absolute; open loop only *)
  mutable sent : float;  (** first frame handed to the kernel *)
  mutable finished : float;  (** answered; nan while pending or failed *)
  mutable resps : bytes list;  (** newest first; a scan keeps its last attempt's pages *)
  mutable restarts : int;
  mutable error : string option;
}

(* one request frame, recorded only when tracing *)
type frame = { f_slot : int; f_tag : int; f_sent : float; f_recv : float; f_bytes : int }

type conn = {
  fd : Unix.file_descr;
  dec : Net_framing.decoder;
  outq : bytes Queue.t;
  mutable out_off : int;  (** bytes of the head of [outq] already written *)
  pend : (int * float * int) Queue.t;  (** slot, send time, request tag *)
  mutable inflight : int;  (** slots outstanding (closed loop) *)
  mutable alive : bool;
}

type t = { conns : conn array; scratch : bytes; trace : bool }

let connect ~port ~n ~trace =
  let conns =
    Array.init n (fun _ ->
        let fd = Unix.socket ~cloexec:true Unix.PF_INET Unix.SOCK_STREAM 0 in
        Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
        Unix.setsockopt fd Unix.TCP_NODELAY true;
        Unix.set_nonblock fd;
        { fd; dec = Net_framing.create_decoder (); outq = Queue.create (); out_off = 0;
          pend = Queue.create (); inflight = 0; alive = true })
  in
  { conns; scratch = Bytes.create 65536; trace }

let close t =
  Array.iter (fun c -> try Unix.close c.fd with Unix.Unix_error _ -> ()) t.conns

type result = {
  slots : slot array;
  start : float;
  stop : float;  (** last answer, or the drain deadline *)
  late : Stats.series;  (** open loop: send time minus due time, s *)
  busy_share : float;  (** share of the phase not spent blocked in select *)
  frames : frame list;
}

let tag_of_frame b =
  if Bytes.length b > Net_framing.header_len then
    Bytes.get_uint8 b Net_framing.header_len
  else -1

(* Run one phase.  [window = None]: open loop, each slot sent at its due
   time.  [Some w]: closed loop, at most [w] slots outstanding per
   connection.  [conn_of] pins slots to connections. *)
let run t ?(conn_of = fun i -> i mod Array.length t.conns) ~window items =
  let start = now () in
  let slots =
    Array.mapi
      (fun i (it : Inputs.item) ->
        { item = it; conn = conn_of i; due = start +. it.Inputs.due; sent = nan;
          finished = nan; resps = []; restarts = 0; error = None })
      items
  in
  let n = Array.length slots in
  let remaining = ref n in
  let late = Stats.series () in
  let frames = ref [] in
  let blocked = ref 0. in
  let last = ref start in
  let deadline =
    match window with
    | None -> start +. (if n = 0 then 0. else items.(n - 1).Inputs.due) +. Spec.drain_timeout_s
    | Some _ -> start +. 120.
  in
  let settle s =
    decr remaining;
    let c = t.conns.(s.conn) in
    c.inflight <- c.inflight - 1
  in
  let fail s msg =
    if s.error = None && Float.is_nan s.finished then begin
      s.error <- Some msg;
      settle s
    end
  in
  let finish s at =
    s.finished <- at;
    last := at;
    settle s
  in
  let kill c msg =
    if c.alive then begin
      c.alive <- false;
      Queue.iter (fun (i, _, _) -> fail slots.(i) msg) c.pend;
      Queue.clear c.pend;
      Queue.clear c.outq
    end
  in
  let flush c =
    let continue = ref true in
    while !continue && c.alive && not (Queue.is_empty c.outq) do
      let b = Queue.peek c.outq in
      let len = Bytes.length b in
      match Unix.write c.fd b c.out_off (len - c.out_off) with
      | k ->
          c.out_off <- c.out_off + k;
          if c.out_off = len then begin
            ignore (Queue.pop c.outq);
            c.out_off <- 0
          end
      | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
          continue := false
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
      | exception Unix.Unix_error (e, _, _) -> kill c ("write: " ^ Unix.error_message e)
    done
  in
  let send c i frame =
    if not c.alive then fail slots.(i) "connection lost"
    else begin
      let at = now () in
      Queue.push (i, at, tag_of_frame frame) c.pend;
      Queue.push frame c.outq;
      flush c
    end
  in
  let send_first i =
    let s = slots.(i) in
    let c = t.conns.(s.conn) in
    c.inflight <- c.inflight + 1;
    send c i s.item.Inputs.frame;
    s.sent <- now ();
    if window = None then Stats.add late (s.sent -. s.due)
  in
  let on_page c i s prefix payload =
    match Service.decode_response payload with
    | Some (Service.Query_page_r { page; epoch; _ }) -> (
        s.resps <- payload :: s.resps;
        match page.Ledger_query.Range_query.cursor with
        | None -> finish s (now ())
        | Some cursor ->
            send c i
              (Net_framing.encode
                 (Service.Client.make_query_page
                    ~spec:(Ledger_query.Range_query.Prefix prefix) ~after:cursor
                    ~pin:epoch ~page_size:Spec.page_size ())))
    | Some (Service.Stale_r _) when s.restarts < Spec.max_restarts ->
        s.restarts <- s.restarts + 1;
        s.resps <- [];
        send c i s.item.Inputs.frame
    | Some (Service.Stale_r _) -> fail s "scan out of restarts"
    | Some (Service.Error_r m) -> fail s ("refused: " ^ m)
    | Some _ | None -> fail s "unexpected response to query_page"
  in
  let on_frame c payload =
    match Queue.take_opt c.pend with
    | None -> kill c "unsolicited response"
    | Some (i, sent, tag) -> (
        let recv = now () in
        if t.trace then
          frames :=
            { f_slot = i; f_tag = tag; f_sent = sent; f_recv = recv;
              f_bytes = Bytes.length payload }
            :: !frames;
        let s = slots.(i) in
        match s.item.Inputs.op with
        | Inputs.Scan prefix -> on_page c i s prefix payload
        | _ ->
            s.resps <- [ payload ];
            finish s recv)
  in
  let read c =
    let eof = ref false and again = ref false in
    while c.alive && (not !eof) && not !again do
      match Unix.read c.fd t.scratch 0 (Bytes.length t.scratch) with
      | 0 -> eof := true
      | k -> Net_framing.feed c.dec t.scratch ~pos:0 ~len:k
      | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> again := true
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
      | exception Unix.Unix_error (e, _, _) -> kill c ("read: " ^ Unix.error_message e)
    done;
    let continue = ref true in
    while !continue && c.alive do
      match Net_framing.next c.dec with
      | Net_framing.Frame p -> on_frame c p
      | Net_framing.Awaiting _ -> continue := false
      | Net_framing.Fail e -> kill c ("framing: " ^ Net_framing.error_to_string e)
    done;
    if !eof then kill c "connection closed by server"
  in
  (* per-connection send order for the closed loop *)
  let queues = Array.map (fun _ -> Queue.create ()) t.conns in
  if window <> None then Array.iteri (fun i s -> Queue.push i queues.(s.conn)) slots;
  let next = ref 0 in
  let send_due () =
    match window with
    | None ->
        while !next < n && slots.(!next).due <= now () do
          send_first !next;
          incr next
        done
    | Some w ->
        Array.iteri
          (fun ci q ->
            let c = t.conns.(ci) in
            while c.inflight < w && not (Queue.is_empty q) do
              send_first (Queue.pop q)
            done)
          queues
  in
  while !remaining > 0 && now () < deadline do
    send_due ();
    if !remaining > 0 then begin
      let tnow = now () in
      let timeout =
        if window = None && !next < n then Float.max 0. (slots.(!next).due -. tnow)
        else Float.max 0. (deadline -. tnow)
      in
      let live = List.filter (fun c -> c.alive) (Array.to_list t.conns) in
      let rfds = List.map (fun c -> c.fd) live in
      let wfds = List.filter_map (fun c -> if Queue.is_empty c.outq then None else Some c.fd) live in
      let t0 = now () in
      match Unix.select rfds wfds [] timeout with
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
      | r, w, _ ->
          blocked := !blocked +. (now () -. t0);
          List.iter (fun c -> if List.memq c.fd w then flush c) live;
          List.iter (fun c -> if List.memq c.fd r then read c) live
    end
  done;
  Array.iter (fun s -> fail s "unanswered at drain") slots;
  let stop = if !remaining = 0 then !last else now () in
  { slots; start; stop; late;
    busy_share = 1. -. (!blocked /. Float.max 1e-9 (now () -. start));
    frames = List.rev !frames }
