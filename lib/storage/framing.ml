(* Length-prefixed, CRC-checked record framing shared by every on-disk
   log in the system (stream-store segments, ledger snapshots, replica
   staging files).

   Record layout:   "LDBR"  len:u32be  payload  crc:u32be
   where crc = CRC-32 over (len:u32be ++ payload).

   [fold] is the one walker over a framed log.  It reports how the walk
   ended, because recovery policy differs per shape:
   - [End]: clean EOF at a record boundary.
   - [Torn]: the file ends in the middle of a record — the classic
     crash-during-append.  Safe to truncate back to the last boundary.
   - [Corrupt]: a complete record whose magic or checksum does not match —
     evidence of tampering or media rot, never of a clean crash.
   - [Rejected]: the caller refused an intact record. *)

let magic = "LDBR"
(* longer claims are [Corrupt]: a flipped length bit would otherwise
   masquerade as a torn tail *)
let max_record_len = 1 lsl 30

type stop = End | Torn | Corrupt | Rejected
type ending = { stop : stop; offset : int; dropped_bytes : int }

let u32_to_be v =
  let b = Bytes.create 4 in
  Bytes.set b 0 (Char.chr ((v lsr 24) land 0xFF));
  Bytes.set b 1 (Char.chr ((v lsr 16) land 0xFF));
  Bytes.set b 2 (Char.chr ((v lsr 8) land 0xFF));
  Bytes.set b 3 (Char.chr (v land 0xFF));
  b

let be_to_u32 b =
  (Char.code (Bytes.get b 0) lsl 24)
  lor (Char.code (Bytes.get b 1) lsl 16)
  lor (Char.code (Bytes.get b 2) lsl 8)
  lor Char.code (Bytes.get b 3)

let crc32_to_be c = u32_to_be (Int32.to_int c land 0xFFFFFFFF)

let write oc payload =
  let len_be = u32_to_be (Bytes.length payload) in
  let crc = Crc32.update (Crc32.bytes len_be) payload ~pos:0 ~len:(Bytes.length payload) in
  output_string oc magic;
  output_bytes oc len_be;
  output_bytes oc payload;
  output_bytes oc (crc32_to_be crc)

(* Read exactly [n] bytes or return how many were available. *)
let read_exactly ic n =
  let b = Bytes.create n in
  let got = ref 0 in
  (try
     while !got < n do
       let r = input ic b !got (n - !got) in
       if r = 0 then raise Exit;
       got := !got + r
     done
   with Exit | End_of_file -> ());
  if !got = n then Ok b else Error !got

(* The next record, or the [stop] that ends the walk at this offset. *)
let read ic =
  match read_exactly ic 4 with
  | Error 0 -> Error End
  | Error _ -> Error Torn
  | Ok m when Bytes.to_string m <> magic -> Error Corrupt
  | Ok _ -> (
      match read_exactly ic 4 with
      | Error _ -> Error Torn
      | Ok len_be ->
          let len = be_to_u32 len_be in
          if len > max_record_len then Error Corrupt
          else (
            match read_exactly ic len with
            | Error _ -> Error Torn
            | Ok payload -> (
                match read_exactly ic 4 with
                | Error _ -> Error Torn
                | Ok crc_be ->
                    let crc =
                      Crc32.update (Crc32.bytes len_be) payload ~pos:0
                        ~len:(Bytes.length payload)
                    in
                    if Bytes.equal (crc32_to_be crc) crc_be then Ok payload
                    else Error Corrupt)))

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
        match read ic with
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
