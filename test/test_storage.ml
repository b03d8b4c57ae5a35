(* Tests for the storage substrate: clock, latency model, stream store,
   bitmap index and KV store. *)

open Ledger_storage

let tc = Alcotest.test_case

let test_clock () =
  let c = Clock.create () in
  Alcotest.(check int64) "starts at 0" 0L (Clock.now c);
  Clock.advance c 100L;
  Clock.advance_ms c 2.;
  Clock.advance_sec c 0.001;
  Alcotest.(check int64) "accumulates" 3100L (Clock.now c);
  Alcotest.(check int64) "elapsed" 3000L (Clock.elapsed_since c 100L);
  Alcotest.check_raises "negative rejected"
    (Invalid_argument "Clock.advance: negative") (fun () ->
      Clock.advance c (-1L))

let test_latency_model () =
  let c = Clock.create () in
  let m = Latency_model.default in
  Latency_model.charge_seek m c;
  let after_seek = Clock.now c in
  Alcotest.(check bool) "seek costs" true (Int64.compare after_seek 0L > 0);
  Latency_model.charge_read m c ~bytes:(1 lsl 20);
  Alcotest.(check bool) "read charges transfer" true
    (Int64.compare (Clock.now c) (Int64.add after_seek 1000L) > 0);
  let free = Clock.create () in
  Latency_model.charge_read Latency_model.free free ~bytes:(1 lsl 20);
  Alcotest.(check int64) "free model charges nothing" 0L (Clock.now free)

let test_latency_exact () =
  (* exact charge arithmetic, per the model constants *)
  let c = Clock.create () in
  Latency_model.charge_read Latency_model.default c ~bytes:2048;
  (* 100µs seek + 4µs/KB × 2KB *)
  Alcotest.(check int64) "read arithmetic" 108L (Clock.now c);
  Latency_model.charge_cloud Latency_model.default c;
  Alcotest.(check int64) "default cloud rtt" 20_108L (Clock.now c);
  Latency_model.charge_cloud Latency_model.cloud_service c;
  Alcotest.(check int64) "cloud-service rtt" 50_108L (Clock.now c);
  Latency_model.charge_net Latency_model.default c;
  Alcotest.(check int64) "net rtt" 50_308L (Clock.now c);
  Latency_model.charge_seek Latency_model.default c;
  Alcotest.(check int64) "seek" 50_408L (Clock.now c)

let test_latency_monotone () =
  (* any interleaving of charges only moves the clock forward *)
  let c = Clock.create () in
  let last = ref (-1L) in
  for i = 0 to 99 do
    (match i mod 4 with
    | 0 -> Latency_model.charge_seek Latency_model.default c
    | 1 -> Latency_model.charge_read Latency_model.free c ~bytes:(i * 37)
    | 2 -> Latency_model.charge_net Latency_model.default c
    | _ -> Latency_model.charge_read Latency_model.default c ~bytes:i);
    let now = Clock.now c in
    Alcotest.(check bool) "clock never goes back" true
      (Int64.compare now !last >= 0);
    last := now
  done

let test_stream_store_basic () =
  let store = Stream_store.create () in
  let s = Stream_store.stream store "journals" in
  Alcotest.(check string) "name" "journals" (Stream_store.stream_name s);
  let i0 = Stream_store.append s (Bytes.of_string "alpha") in
  let i1 = Stream_store.append s (Bytes.of_string "beta") in
  Alcotest.(check int) "dense indices" 1 i1;
  Alcotest.(check string) "read back" "alpha"
    (Bytes.to_string (Stream_store.read s i0));
  Alcotest.(check int) "length" 2 (Stream_store.length s);
  Alcotest.(check int) "bytes" 9 (Stream_store.total_bytes s);
  (* records are isolated copies *)
  let b = Stream_store.read s i0 in
  Bytes.set b 0 'X';
  Alcotest.(check string) "isolation" "alpha"
    (Bytes.to_string (Stream_store.read s i0))

let test_stream_store_erase () =
  let store = Stream_store.create () in
  let s = Stream_store.stream store "j" in
  let i = Stream_store.append s (Bytes.of_string "secret") in
  ignore (Stream_store.append s (Bytes.of_string "public"));
  Stream_store.erase s i;
  Alcotest.(check bool) "erased flagged" true (Stream_store.is_erased s i);
  Alcotest.(check bool) "read_opt none" true (Stream_store.read_opt s i = None);
  Alcotest.check_raises "read raises"
    (Stream_store.Read_error (Stream_store.Erased { stream = "j"; index = i }))
    (fun () -> ignore (Stream_store.read s i));
  Alcotest.(check bool) "read_result typed error" true
    (Stream_store.read_result s i
    = Error (Stream_store.Erased { stream = "j"; index = i }));
  Alcotest.(check bool) "read_result out of range" true
    (match Stream_store.read_result s 99 with
    | Error (Stream_store.Out_of_range { index = 99; length = 2; _ }) -> true
    | _ -> false);
  Alcotest.(check int) "length unchanged" 2 (Stream_store.length s);
  Alcotest.(check int) "bytes shrink" 6 (Stream_store.total_bytes s);
  (* iter skips erased *)
  let seen = ref [] in
  Stream_store.iter s (fun i b -> seen := (i, Bytes.to_string b) :: !seen);
  Alcotest.(check (list (pair int string))) "iter skips" [ (1, "public") ] !seen;
  Stream_store.erase s i (* idempotent *)

let test_stream_store_latency () =
  let store = Stream_store.create () in
  let s = Stream_store.stream store "j" in
  let i = Stream_store.append s (Bytes.make 8192 'x') in
  let c = Clock.create () in
  ignore (Stream_store.read ~latency:(Latency_model.default, c) s i);
  Alcotest.(check bool) "read charged" true (Int64.compare (Clock.now c) 0L > 0)

let test_stream_store_growth () =
  let store = Stream_store.create () in
  let s = Stream_store.stream store "big" in
  for i = 0 to 999 do
    ignore (Stream_store.append s (Bytes.of_string (string_of_int i)))
  done;
  Alcotest.(check int) "1000 records" 1000 (Stream_store.length s);
  Alcotest.(check string) "spot check" "742"
    (Bytes.to_string (Stream_store.read s 742));
  Alcotest.(check bool) "page count positive" true (Stream_store.page_count s > 0)

let test_stream_store_persist () =
  let dir = Filename.temp_file "ledger" "store" in
  Sys.remove dir;
  let store = Stream_store.create ~dir () in
  let s = Stream_store.stream store "j" in
  ignore (Stream_store.append s (Bytes.of_string "persisted"));
  Stream_store.persist store;
  Alcotest.(check bool) "log file exists" true
    (Sys.file_exists (Filename.concat dir "j.log"))

let fresh_dir () =
  let d = Filename.temp_file "ledger" "store" in
  Sys.remove d;
  d

let test_crc32_vectors () =
  (* the classic check value for the IEEE polynomial *)
  Alcotest.(check int32) "check vector" 0xCBF43926l
    (Crc32.string "123456789");
  Alcotest.(check int32) "empty" 0l (Crc32.string "");
  (* incremental == one-shot *)
  let whole = Crc32.string "hello world" in
  let part =
    Crc32.update (Crc32.string "hello ") (Bytes.of_string "world") ~pos:0
      ~len:5
  in
  Alcotest.(check int32) "incremental" whole part

let test_stream_store_recover_roundtrip () =
  let dir = fresh_dir () in
  let store = Stream_store.create ~dir () in
  let s = Stream_store.stream store "j" in
  for i = 0 to 19 do
    ignore (Stream_store.append s (Bytes.of_string (Printf.sprintf "rec-%03d" i)))
  done;
  Stream_store.erase s 7;
  Stream_store.persist store;
  let reopened, reports = Stream_store.recover ~dir () in
  let s' = Stream_store.stream reopened "j" in
  Alcotest.(check int) "count preserved" 20 (Stream_store.length s');
  Alcotest.(check bool) "erasure preserved" true (Stream_store.is_erased s' 7);
  Alcotest.(check string) "content preserved" "rec-011"
    (Bytes.to_string (Stream_store.read s' 11));
  Alcotest.(check int) "total bytes" (Stream_store.total_bytes s)
    (Stream_store.total_bytes s');
  match reports with
  | [ r ] ->
      Alcotest.(check int) "recovered_upto" 20 r.Stream_store.recovered_upto;
      Alcotest.(check bool) "intact" true (r.Stream_store.damage = Stream_store.Intact)
  | _ -> Alcotest.fail "expected one recovery report"

let test_stream_store_recover_torn_tail () =
  let dir = fresh_dir () in
  let store = Stream_store.create ~dir () in
  let s = Stream_store.stream store "j" in
  for i = 0 to 9 do
    ignore (Stream_store.append s (Bytes.of_string (Printf.sprintf "torn-%d" i)))
  done;
  Stream_store.persist store;
  (* simulate a crash mid-append: chop bytes off the end of the log *)
  let path = Filename.concat dir "j.log" in
  let full = (Unix.stat path).Unix.st_size in
  Framing.truncate_file path ~keep:(full - 5);
  let reopened, reports = Stream_store.recover ~dir () in
  let s' = Stream_store.stream reopened "j" in
  Alcotest.(check int) "last record dropped" 9 (Stream_store.length s');
  Alcotest.(check string) "prefix intact" "torn-8"
    (Bytes.to_string (Stream_store.read s' 8));
  (match reports with
  | [ r ] ->
      Alcotest.(check bool) "torn tail reported" true
        (r.Stream_store.damage = Stream_store.Torn_tail);
      Alcotest.(check int) "recovered_upto" 9 r.Stream_store.recovered_upto;
      Alcotest.(check bool) "dropped bytes counted" true
        (r.Stream_store.dropped_bytes > 0)
  | _ -> Alcotest.fail "expected one recovery report");
  (* after recovery the truncated log replays cleanly *)
  let _, reports2 = Stream_store.recover ~dir () in
  match reports2 with
  | [ r ] ->
      Alcotest.(check bool) "clean after truncation" true
        (r.Stream_store.damage = Stream_store.Intact);
      Alcotest.(check int) "still 9" 9 r.Stream_store.recovered_upto
  | _ -> Alcotest.fail "expected one recovery report"

let test_stream_store_recover_corrupt_record () =
  let dir = fresh_dir () in
  let store = Stream_store.create ~dir () in
  let s = Stream_store.stream store "j" in
  for i = 0 to 9 do
    ignore (Stream_store.append s (Bytes.make 32 (Char.chr (Char.code 'a' + i))))
  done;
  Stream_store.persist store;
  (* flip one payload byte in the middle of the log: CRC must catch it *)
  let path = Filename.concat dir "j.log" in
  let ic = open_in_bin path in
  let len = in_channel_length ic in
  let data = Bytes.create len in
  really_input ic data 0 len;
  close_in ic;
  let off = len / 2 in
  Bytes.set data off (Char.chr (Char.code (Bytes.get data off) lxor 0x01));
  let oc = open_out_bin path in
  output_bytes oc data;
  close_out oc;
  let reopened, reports = Stream_store.recover ~dir () in
  let s' = Stream_store.stream reopened "j" in
  (match reports with
  | [ r ] ->
      Alcotest.(check bool) "corruption reported" true
        (r.Stream_store.damage = Stream_store.Corrupt_record);
      Alcotest.(check bool) "stopped before the bad record" true
        (r.Stream_store.recovered_upto < 10);
      Alcotest.(check int) "in-memory prefix matches report"
        r.Stream_store.recovered_upto (Stream_store.length s')
  | _ -> Alcotest.fail "expected one recovery report");
  (* every recovered record is intact *)
  for i = 0 to Stream_store.length s' - 1 do
    Alcotest.(check string) "recovered record"
      (String.make 32 (Char.chr (Char.code 'a' + i)))
      (Bytes.to_string (Stream_store.read s' i))
  done

let test_bitmap () =
  let b = Bitmap_index.create () in
  Alcotest.(check bool) "empty" false (Bitmap_index.mem b 5);
  Bitmap_index.set b 5;
  Bitmap_index.set b 5;
  Bitmap_index.set b 1000;
  Alcotest.(check int) "cardinal dedups" 2 (Bitmap_index.cardinal b);
  Alcotest.(check bool) "mem 1000" true (Bitmap_index.mem b 1000);
  Alcotest.(check (option int)) "max" (Some 1000) (Bitmap_index.max_set b);
  let seen = ref [] in
  Bitmap_index.iter_set b (fun i -> seen := i :: !seen);
  Alcotest.(check (list int)) "iter order" [ 1000; 5 ] !seen;
  Bitmap_index.clear b 5;
  Alcotest.(check bool) "cleared" false (Bitmap_index.mem b 5);
  Alcotest.(check int) "cardinal after clear" 1 (Bitmap_index.cardinal b);
  Alcotest.(check bool) "negative mem" false (Bitmap_index.mem b (-3))

let prop_bitmap_model =
  QCheck.Test.make ~name:"bitmap agrees with set model" ~count:100
    QCheck.(small_list (int_range 0 500))
    (fun ops ->
      let b = Bitmap_index.create () in
      let model = Hashtbl.create 16 in
      List.iter
        (fun i ->
          Bitmap_index.set b i;
          Hashtbl.replace model i ())
        ops;
      Hashtbl.length model = Bitmap_index.cardinal b
      && List.for_all (fun i -> Bitmap_index.mem b i) ops)

let base_suite =
  [
    tc "clock" `Quick test_clock;
    tc "latency model" `Quick test_latency_model;
    tc "latency exact arithmetic" `Quick test_latency_exact;
    tc "latency monotone" `Quick test_latency_monotone;
    tc "stream store basics" `Quick test_stream_store_basic;
    tc "stream store erase" `Quick test_stream_store_erase;
    tc "stream store latency" `Quick test_stream_store_latency;
    tc "stream store growth" `Quick test_stream_store_growth;
    tc "stream store persist" `Quick test_stream_store_persist;
    tc "crc32 vectors" `Quick test_crc32_vectors;
    tc "stream store recover roundtrip" `Quick test_stream_store_recover_roundtrip;
    tc "stream store recover torn tail" `Quick test_stream_store_recover_torn_tail;
    tc "stream store recover corrupt" `Quick test_stream_store_recover_corrupt_record;
    tc "bitmap index" `Quick test_bitmap;
    QCheck_alcotest.to_alcotest prop_bitmap_model;
  ]

let test_compaction () =
  let store = Stream_store.create () in
  let s = Stream_store.stream store "c" in
  for i = 0 to 9 do
    ignore (Stream_store.append s (Bytes.of_string ("r" ^ string_of_int i)))
  done;
  Stream_store.erase s 2;
  Stream_store.erase s 5;
  Stream_store.erase s 9;
  Alcotest.(check int) "live before" 7 (Stream_store.live_records s);
  let remaps = ref [] in
  let reclaimed = Stream_store.compact s (fun o n -> remaps := (o, n) :: !remaps) in
  Alcotest.(check int) "reclaimed" 3 reclaimed;
  Alcotest.(check int) "length after" 7 (Stream_store.length s);
  (* every survivor readable at its new index with the same content *)
  List.iter
    (fun (o, n) ->
      Alcotest.(check string) "remapped content"
        ("r" ^ string_of_int o)
        (Bytes.to_string (Stream_store.read s n)))
    !remaps;
  Alcotest.(check int) "remap count" 7 (List.length !remaps)

let compaction_suite = [ tc "stream compaction" `Quick test_compaction ]


(* A flipped length bit can claim far more than the file holds.  The
   walker calls that a torn tail without allocating the claim: here a
   17-byte one-record file whose length claims 512 MiB + 5 bytes. *)
let test_fold_claim_beyond_file () =
  let path = Filename.temp_file "claim" ".ldb" in
  Out_channel.with_open_bin path (fun oc ->
      Framing.write oc (Bytes.of_string "hello"));
  let b = Bytes.of_string (In_channel.with_open_bin path In_channel.input_all) in
  Alcotest.(check int) "file length" 17 (Bytes.length b);
  (* bit 5 of the length field's high byte *)
  Bytes.set b 4 (Char.chr (Char.code (Bytes.get b 4) lxor 0x20));
  Out_channel.with_open_bin path (fun oc -> Out_channel.output_bytes oc b);
  let before = Gc.allocated_bytes () in
  let records, ending =
    Framing.fold path ~init:0 (fun n ~offset:_ _ -> Some (n + 1))
  in
  let allocated = Gc.allocated_bytes () -. before in
  Sys.remove path;
  Alcotest.(check int) "records" 0 records;
  Alcotest.(check bool) "torn" true (ending.Framing.stop = Framing.Torn);
  Alcotest.(check int) "offset" 0 ending.Framing.offset;
  Alcotest.(check int) "dropped" 17 ending.Framing.dropped_bytes;
  if allocated >= 65536. then
    Alcotest.failf "fold allocated %.0f bytes for a 17-byte file" allocated

let framing_suite =
  [ tc "framing: a claim beyond the file is torn, not allocated" `Quick
      test_fold_claim_beyond_file ]

let suite = base_suite @ compaction_suite @ framing_suite
