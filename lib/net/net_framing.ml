(* Incremental frame codec over a TCP byte stream.  The frame layout
   and its checks belong to Framing; this module adds the "LDBW" magic,
   the [max_frame] bound, typed errors and the buffering.

   The decoder holds one flat buffer with a consumed-prefix offset;
   feeds compact the prefix away before growing, so steady-state
   request/response traffic stays allocation-quiet. *)

open Ledger_storage

let magic = "LDBW"
let header_len = Framing.header_len
let default_max_frame = 8 * 1024 * 1024

type error =
  | Bad_magic
  | Oversized of { claimed : int; limit : int }
  | Bad_crc

let error_to_string = function
  | Bad_magic -> "bad frame magic"
  | Oversized { claimed; limit } ->
      Printf.sprintf "oversized frame: claimed %d bytes, limit %d" claimed
        limit
  | Bad_crc -> "frame checksum mismatch"

let encode payload = Framing.frame ~magic payload
let encode_into out payload = Framing.frame_into ~magic payload out

type decoder = {
  max_frame : int;
  mutable buf : bytes;
  mutable off : int; (* start of unconsumed bytes *)
  mutable len : int; (* unconsumed byte count *)
  mutable failed : error option;
}

type step =
  | Frame of bytes
  | Awaiting of int
  | Fail of error

let create_decoder ?(max_frame = default_max_frame) () =
  { max_frame; buf = Bytes.create 4096; off = 0; len = 0; failed = None }

let buffered d = d.len

let feed d src ~pos ~len =
  if len < 0 || pos < 0 || pos + len > Bytes.length src then
    invalid_arg "Net_framing.feed";
  if d.failed = None && len > 0 then begin
    (* compact the consumed prefix before considering growth *)
    if d.off > 0 then begin
      Bytes.blit d.buf d.off d.buf 0 d.len;
      d.off <- 0
    end;
    let need = d.len + len in
    if need > Bytes.length d.buf then begin
      let cap = ref (Bytes.length d.buf * 2) in
      while !cap < need do
        cap := !cap * 2
      done;
      let bigger = Bytes.create !cap in
      Bytes.blit d.buf 0 bigger 0 d.len;
      d.buf <- bigger
    end;
    Bytes.blit src pos d.buf d.len len;
    d.len <- d.len + len
  end

let fail d e =
  d.failed <- Some e;
  Fail e

let next d =
  match d.failed with
  | Some e -> Fail e
  | None -> (
      match
        Framing.scan ~magic ~limit:d.max_frame d.buf ~pos:d.off ~avail:d.len
      with
      | Framing.Need n -> Awaiting n
      | Framing.Bad_magic -> fail d Bad_magic
      | Framing.Too_long claimed ->
          fail d (Oversized { claimed; limit = d.max_frame })
      | Framing.Bad_crc -> fail d Bad_crc
      | Framing.Record len ->
          let payload = Bytes.sub d.buf (d.off + header_len) len in
          d.off <- d.off + Framing.overhead + len;
          d.len <- d.len - Framing.overhead - len;
          Frame payload)
