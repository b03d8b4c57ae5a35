let page_size = 4096

type record = { mutable payload : bytes option }

type stream = {
  name : string;
  mutable records : record array;
  mutable count : int;
  mutable live_bytes : int;
  killed : bool ref;  (* shared with the owning store, see {!Unsafe.kill} *)
}

type t = {
  dir : string option;
  streams : (string, stream) Hashtbl.t;
  killed : bool ref;
}

type read_error =
  | Out_of_range of { stream : string; index : int; length : int }
  | Erased of { stream : string; index : int }

exception Read_error of read_error

let read_error_to_string = function
  | Out_of_range { stream; index; length } ->
      Printf.sprintf "stream %s: index %d out of range [0,%d)" stream index
        length
  | Erased { stream; index } ->
      Printf.sprintf "stream %s: record %d was erased" stream index

let () =
  Printexc.register_printer (function
    | Read_error e -> Some ("Stream_store.Read_error: " ^ read_error_to_string e)
    | _ -> None)

let create ?dir () =
  (match dir with
  | Some d when not (Sys.file_exists d) -> Sys.mkdir d 0o755
  | Some _ | None -> ());
  { dir; streams = Hashtbl.create 16; killed = ref false }

let healthy t = not !(t.killed)

let check_alive killed =
  if !killed then raise (Sys_error "stream store killed")

let stream_alive (s : stream) = check_alive s.killed

module Unsafe = struct
  let kill t =
    t.killed := true;
    Ledger_obs.Metrics.incr "storage_killed_total"
end

let stream t name =
  check_alive t.killed;
  match Hashtbl.find_opt t.streams name with
  | Some s -> s
  | None ->
      let s = { name; records = Array.make 64 { payload = None }; count = 0;
                live_bytes = 0; killed = t.killed } in
      Hashtbl.replace t.streams name s;
      s

let stream_name s = s.name

let ensure_capacity s =
  if s.count >= Array.length s.records then begin
    let bigger = Array.make (2 * Array.length s.records) { payload = None } in
    Array.blit s.records 0 bigger 0 s.count;
    s.records <- bigger
  end

let append_many s payloads =
  stream_alive s;
  let first = s.count in
  List.iter
    (fun payload ->
      ensure_capacity s;
      s.records.(s.count) <- { payload = Some payload };
      s.count <- s.count + 1;
      s.live_bytes <- s.live_bytes + Bytes.length payload;
      Ledger_obs.Metrics.incr "storage_appends_total";
      Ledger_obs.Metrics.observe_int "storage_record_bytes"
        (Bytes.length payload))
    payloads;
  Ledger_obs.Metrics.incr "storage_batch_appends_total";
  first

let append s payload = append_many s [ payload ]

let length s = s.count

let check_range s i =
  if i < 0 || i >= s.count then
    raise (Read_error (Out_of_range { stream = s.name; index = i; length = s.count }))

let charge latency bytes =
  Ledger_obs.Metrics.incr "storage_reads_total";
  Ledger_obs.Metrics.observe_int "storage_read_bytes" bytes;
  match latency with
  | None -> ()
  | Some (model, clock) -> Latency_model.charge_read model clock ~bytes

let read_result ?latency s i =
  stream_alive s;
  if i < 0 || i >= s.count then
    Error (Out_of_range { stream = s.name; index = i; length = s.count })
  else
    match s.records.(i).payload with
    | None -> Error (Erased { stream = s.name; index = i })
    | Some p ->
        charge latency (Bytes.length p);
        Ok (Bytes.copy p)

let read_opt ?latency s i =
  stream_alive s;
  check_range s i;
  match s.records.(i).payload with
  | None -> None
  | Some p ->
      charge latency (Bytes.length p);
      Some (Bytes.copy p)

let read ?latency s i =
  match read_result ?latency s i with
  | Ok p -> p
  | Error e -> raise (Read_error e)

let is_erased s i =
  check_range s i;
  s.records.(i).payload = None

(* Pinned read handle: capture (records array, count) so readers on
   other domains index a stable prefix while the writer keeps appending
   (appends land at indices >= the pinned count; resizes and {!compact}
   swap in fresh arrays, leaving the captured one intact).  Record
   objects are shared, so {!erase} is visible through a pin — erased
   payloads cannot be resurrected from an old capture.  Pinned reads
   never charge a latency model (there is no writer clock to charge from
   a concurrent reader). *)
type pinned = {
  p_name : string;
  p_records : record array;
  p_count : int;
  p_killed : bool ref;
}

let pin s =
  stream_alive s;
  { p_name = s.name; p_records = s.records; p_count = s.count;
    p_killed = s.killed }

let read_pinned p i =
  check_alive p.p_killed;
  if i < 0 || i >= p.p_count then
    raise
      (Read_error
         (Out_of_range { stream = p.p_name; index = i; length = p.p_count }));
  match p.p_records.(i).payload with
  | None -> None
  | Some bytes ->
      charge None (Bytes.length bytes);
      Some (Bytes.copy bytes)

let erase s i =
  check_range s i;
  (match s.records.(i).payload with
  | Some p -> s.live_bytes <- s.live_bytes - Bytes.length p
  | None -> ());
  Ledger_obs.Metrics.incr "storage_erases_total";
  s.records.(i).payload <- None

let iter s f =
  for i = 0 to s.count - 1 do
    match s.records.(i).payload with
    | Some p -> f i (Bytes.copy p)
    | None -> ()
  done

let total_bytes s = s.live_bytes
let page_count s = (s.live_bytes + page_size - 1) / page_size

(* --- durability -------------------------------------------------------------

   Each stream persists to [dir/<name>.log] as a sequence of
   {!Framing}-checked records; the frame payload is

     index:u32be  live:u8  record-bytes

   Erased records keep their slot (live = 0, empty body) so indices stay
   dense across a reopen.  The CRC framing is what makes {!recover}
   possible: a crash mid-write leaves a torn final frame that can be
   detected and truncated instead of poisoning the whole log. *)

let frame_record i payload =
  let body, live = match payload with Some p -> (p, 1) | None -> (Bytes.empty, 0) in
  let frame = Bytes.create (5 + Bytes.length body) in
  Ledger_crypto.Wire.set_u32 frame 0 i;
  Bytes.set_uint8 frame 4 live;
  Bytes.blit body 0 frame 5 (Bytes.length body);
  frame

let unframe_record frame =
  if Bytes.length frame < 5 then None
  else
    let body = Bytes.sub frame 5 (Bytes.length frame - 5) in
    Some
      ( Ledger_crypto.Wire.get_u32 frame 0,
        if Bytes.get_uint8 frame 4 = 1 then Some body else None )

let log_path dir name = Filename.concat dir (name ^ ".log")

let persist t =
  check_alive t.killed;
  match t.dir with
  | None -> ()
  | Some dir ->
      Hashtbl.iter
        (fun name s ->
          let path = log_path dir name in
          let tmp = path ^ ".tmp" in
          let oc = open_out_bin tmp in
          (try
             for i = 0 to s.count - 1 do
               Framing.write oc (frame_record i s.records.(i).payload)
             done;
             close_out oc
           with e ->
             close_out_noerr oc;
             raise e);
          Sys.rename tmp path)
        t.streams

type damage = Intact | Torn_tail | Corrupt_record

type recovery = {
  stream : string;
  recovered_upto : int;
  damage : damage;
  dropped_bytes : int;
}

let recover ~dir () =
  if not (Sys.file_exists dir) then
    invalid_arg ("Stream_store.recover: no such directory " ^ dir);
  let t = create ~dir () in
  let reports = ref [] in
  Array.iter
    (fun file ->
      if Filename.check_suffix file ".log" then begin
        let name = Filename.chop_suffix file ".log" in
        let path = Filename.concat dir file in
        let s = stream t name in
        let (), ending =
          Framing.fold path ~init:() (fun () ~offset:_ frame ->
              match unframe_record frame with
              | Some (i, payload) when i = s.count ->
                  ensure_capacity s;
                  s.records.(s.count) <- { payload };
                  s.count <- s.count + 1;
                  (match payload with
                  | Some p -> s.live_bytes <- s.live_bytes + Bytes.length p
                  | None -> ());
                  Some ()
              | Some _ | None ->
                  (* sequence break inside a checksummed record: not a
                     crash artefact, a corruption *)
                  None)
        in
        let damage =
          match ending.Framing.stop with
          | Framing.End -> Intact
          | Framing.Torn -> Torn_tail
          | Framing.Corrupt | Framing.Rejected -> Corrupt_record
        in
        (* truncate the log back to the last intact record so a subsequent
           append/persist cycle starts from a sound prefix *)
        if damage <> Intact then
          Framing.truncate_file path ~keep:ending.Framing.offset;
        Ledger_obs.Metrics.incr "storage_recovered_streams_total";
        Ledger_obs.Metrics.observe_int "storage_recovered_records" s.count;
        (match damage with
        | Intact -> ()
        | Torn_tail -> Ledger_obs.Metrics.incr "storage_torn_tails_total"
        | Corrupt_record ->
            Ledger_obs.Metrics.incr "storage_corrupt_records_total");
        reports :=
          { stream = name; recovered_upto = s.count; damage;
            dropped_bytes = ending.Framing.dropped_bytes }
          :: !reports
      end)
    (Sys.readdir dir);
  (t, List.sort (fun a b -> compare a.stream b.stream) !reports)

let live_records s =
  let n = ref 0 in
  for i = 0 to s.count - 1 do
    if s.records.(i).payload <> None then incr n
  done;
  !n

let compact s remap =
  let keep = live_records s in
  let fresh = Array.make (max 64 keep) { payload = None } in
  let next = ref 0 in
  for i = 0 to s.count - 1 do
    match s.records.(i).payload with
    | Some _ ->
        fresh.(!next) <- s.records.(i);
        remap i !next;
        incr next
    | None -> ()
  done;
  let reclaimed = s.count - keep in
  s.records <- fresh;
  s.count <- keep;
  reclaimed
