(* The one owner of the frame layout, on disk and on the socket:

     magic:4  len:u32be  payload  crc:u32be
     where crc = CRC-32 over (len:u32be ++ payload).

   On disk the magic is "LDBR" and every log in the system uses it
   (stream-store segments, ledger snapshots, replica staging files);
   Net_framing uses "LDBW".  [frame] builds a frame and [scan] judges
   one in a buffer; both readers — [fold] over a file and Net_framing's
   incremental decoder — call [scan] and keep only their own policy.

   [fold] reports how the walk ended, because recovery policy differs
   per shape:
   - [End]: clean EOF at a record boundary.
   - [Torn]: the file ends in the middle of a record — the classic
     crash-during-append.  Safe to truncate back to the last boundary.
   - [Corrupt]: a complete record whose magic or checksum does not match —
     evidence of tampering or media rot, never of a clean crash.
   - [Rejected]: the caller refused an intact record. *)

open Ledger_crypto

let magic = "LDBR"
let header_len = 8
let overhead = 12

(* longer claims are [Corrupt]: a flipped length bit would otherwise
   masquerade as a torn tail *)
let max_record_len = 1 lsl 30

(* CRC-32 of the [len + 4] bytes from [pos]: the length field and the
   payload of the frame whose length field starts at [pos]. *)
let crc b ~pos ~len =
  Int32.to_int (Crc32.update 0l b ~pos ~len:(len + 4)) land 0xFFFF_FFFF

let frame_into ~magic payload out =
  let len = Bytes.length payload in
  Bytes.blit_string magic 0 out 0 4;
  Wire.set_u32 out 4 len;
  Bytes.blit payload 0 out header_len len;
  Wire.set_u32 out (header_len + len) (crc out ~pos:4 ~len)

let frame ~magic payload =
  let out = Bytes.create (overhead + Bytes.length payload) in
  frame_into ~magic payload out;
  out

type scan =
  | Need of int
  | Bad_magic
  | Too_long of int
  | Bad_crc
  | Record of int

let scan ~magic ~limit b ~pos ~avail =
  let magic_ok = ref true in
  for i = 0 to min avail 4 - 1 do
    if Bytes.get b (pos + i) <> magic.[i] then magic_ok := false
  done;
  if not !magic_ok then Bad_magic
  else if avail < header_len then Need (header_len - avail)
  else
    let len = Wire.get_u32 b (pos + 4) in
    if len > limit then Too_long len
    else if avail < overhead + len then Need (overhead + len - avail)
    else if Wire.get_u32 b (pos + header_len + len) <> crc b ~pos:(pos + 4) ~len
    then Bad_crc
    else Record len

type stop = End | Torn | Corrupt | Rejected
type ending = { stop : stop; offset : int; dropped_bytes : int }

let write oc payload = output_bytes oc (frame ~magic payload)

(* Read up to [n] bytes into [b] at [pos]; how many arrived. *)
let input_upto ic b pos n =
  let rec go got =
    if got = n then got
    else
      match input ic b (pos + got) (n - got) with
      | 0 -> got
      | r -> go (got + r)
  in
  go 0

(* The next record, or the [stop] that ends the walk at this offset.
   Reads what [scan] asks for, of the [left] bytes the file still holds.
   A file that ends inside a record is [Torn], unless a whole magic has
   arrived and is wrong; a header whose length claims more than the file
   holds is [Torn] at once, before a buffer that size is allocated. *)
let read ic ~left =
  let rec go b avail =
    match scan ~magic ~limit:max_record_len b ~pos:0 ~avail with
    | Record len -> Ok (Bytes.sub b header_len len)
    | Bad_magic | Too_long _ | Bad_crc -> Error Corrupt
    | Need n when avail >= header_len && avail + n > left -> Error Torn
    | Need n -> (
        let b = Bytes.extend b 0 n in
        let got = input_upto ic b avail n in
        if got = n then go b (avail + n)
        else if avail + got = 0 then Error End
        else
          match scan ~magic ~limit:max_record_len b ~pos:0 ~avail:(avail + got) with
          | Bad_magic when avail + got >= 4 -> Error Corrupt
          | _ -> Error Torn)
  in
  go Bytes.empty 0

let fold path ~init f =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () ->
      let file_len = in_channel_length ic in
      let ending stop offset =
        { stop; offset; dropped_bytes = file_len - offset }
      in
      let rec go acc =
        let offset = pos_in ic in
        match read ic ~left:(file_len - offset) with
        | Error stop -> (acc, ending stop offset)
        | Ok record -> (
            match f acc ~offset record with
            | Some acc -> go acc
            | None -> (acc, ending Rejected offset))
      in
      go init)

let truncate_file path ~keep =
  let fd = Unix.openfile path [ Unix.O_WRONLY ] 0o644 in
  Fun.protect
    ~finally:(fun () -> Unix.close fd)
    (fun () -> Unix.ftruncate fd keep)
