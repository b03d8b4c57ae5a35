open Ledger_crypto
open Ledger_mpt

type spec = Prefix of string | Between of { lo : string; hi : string option }
type window = { t1 : int; t2 : int }

type row = {
  clue : string;
  total : int;
  prefix_count : int;
  prefix_digest : Hash.t;
  entries : (int * Hash.t) list;
}

type page = { rows : row list; proof : Mpt.range_proof; cursor : string option }
type result_row = { r_clue : string; r_total : int; r_entries : (int * Hash.t) list }

(* --- key-space bounds ---------------------------------------------------- *)

(* Smallest nibble key sorting after every key that has prefix [p]:
   increment the last non-f nibble and truncate; [None] (unbounded) when
   p is empty or all f. *)
let prefix_succ p =
  let rec go i =
    if i < 0 then None
    else
      match Nibble.get p i with
      | 15 -> go (i - 1)
      | v -> Some (String.sub p 0 i ^ String.make 1 (Nibble.digit (v + 1)))
  in
  go (String.length p - 1)

let bounds = function
  | Prefix p ->
      let k = Query_index.key_of_clue p in
      (k, prefix_succ k)
  | Between { lo; hi } ->
      (Query_index.key_of_clue lo, Option.map Query_index.key_of_clue hi)

(* Smallest key strictly after cursor clue [c] in trie order. *)
let after_key c = Query_index.key_of_clue c ^ "0"

let spec_matches spec clue =
  let lo, hi = bounds spec in
  Mpt.key_in_range (Query_index.key_of_clue clue) ~lo ~hi

(* --- server-side page assembly ------------------------------------------ *)

let row_of idx ?window clue =
  let total = Query_index.clue_count idx ~clue in
  let start =
    match window with
    | None -> 0
    | Some { t1; t2 = _ } ->
        let i = Query_index.first_at_or_after idx ~clue t1 in
        (* keep one pre-window entry as the boundary witness *)
        if i > 0 then i - 1 else 0
  in
  {
    clue;
    total;
    prefix_count = start;
    prefix_digest = Query_index.chain_at idx ~clue start;
    entries = Query_index.slice idx ~clue ~offset:start ~limit:(total - start);
  }

let page idx ~spec ?window ?after ~page_size () =
  if page_size <= 0 then invalid_arg "Range_query.page: page_size must be positive";
  let lo0, hi0 = bounds spec in
  let lo = match after with None -> lo0 | Some c -> after_key c in
  let trie = Query_index.trie idx in
  let keys, more = Mpt.take_range trie ~lo ?hi:hi0 page_size in
  let last_clue () =
    match List.rev keys with
    | (k, _) :: _ -> Option.get (Query_index.clue_of_key k)
    | [] -> invalid_arg "Range_query.page: empty page cannot have more rows"
  in
  let page_hi = if more then Some (after_key (last_clue ())) else hi0 in
  let rows =
    List.map
      (fun (k, _) -> row_of idx ?window (Option.get (Query_index.clue_of_key k)))
      keys
  in
  {
    rows;
    proof = Mpt.prove_range trie ~lo ~hi:page_hi;
    cursor = (if more then Some (last_clue ()) else None);
  }

(* --- client-side verification ------------------------------------------- *)

let rec check_entries ~prev ~last_jsn = function
  | [] -> Some prev
  | (jsn, tx) :: rest ->
      if jsn <= last_jsn then None
      else
        check_entries ~prev:(Query_index.chain_step prev jsn tx) ~last_jsn:jsn rest

let check_row ?window ~key ~value row =
  if Mpt.compare_keys key (Query_index.key_of_clue row.clue) <> 0 then
    Error "row/proof clue mismatch"
  else
    match Query_index.decode_value value with
    | None -> Error "corrupt committed clue value"
    | Some (count, chain) ->
        if row.total <> count then Error "row total disagrees with committed count"
        else if row.prefix_count < 0 then Error "negative prefix count"
        else if row.prefix_count + List.length row.entries <> count then
          Error "row does not cover the committed count"
        else if window = None && row.prefix_count <> 0 then
          Error "unwindowed row must carry the full list"
        else if
          row.prefix_count = 0
          && not (Hash.equal row.prefix_digest (Query_index.chain_seed row.clue))
        then Error "bad chain seed"
        else begin
          match check_entries ~prev:row.prefix_digest ~last_jsn:min_int row.entries with
          | None -> Error "row jsns not strictly ascending"
          | Some final ->
              if not (Hash.equal final chain) then
                Error "row chain does not close the committed digest"
              else begin
                match window with
                | None -> Ok { r_clue = row.clue; r_total = count; r_entries = row.entries }
                | Some { t1; t2 } ->
                    if
                      row.prefix_count > 0
                      && (match row.entries with
                         | (jsn, _) :: _ -> jsn >= t1
                         | [] -> true)
                    then Error "missing window boundary witness"
                    else
                      Ok
                        {
                          r_clue = row.clue;
                          r_total = count;
                          r_entries =
                            List.filter (fun (jsn, _) -> jsn >= t1 && jsn <= t2) row.entries;
                        }
              end
        end

let verify_page ~root ~spec ?window ?after ~page_size pg =
  if page_size <= 0 then Error "page_size must be positive"
  else begin
    let lo0, hi0 = bounds spec in
    let lo = match after with None -> lo0 | Some c -> after_key c in
    if Mpt.compare_keys lo0 lo > 0 then Error "cursor precedes the query range"
    else begin
      let hi_check =
        match pg.cursor with
        | Some c ->
            if List.length pg.rows <> page_size then
              Error "partial page cannot carry a continuation cursor"
            else begin
              match List.rev pg.rows with
              | last :: _ when String.equal last.clue c ->
                  let h = after_key c in
                  (match hi0 with
                  | Some h0 when Mpt.compare_keys h h0 > 0 ->
                      Error "cursor beyond the query range"
                  | _ -> Ok (Some h))
              | _ -> Error "cursor does not match the last row"
            end
        | None ->
            if List.length pg.rows > page_size then Error "page overflows page_size"
            else Ok hi0
      in
      match hi_check with
      | Error _ as e -> e
      | Ok hi -> (
          match Mpt.verify_range ~root ~lo ~hi pg.proof with
          | None -> Error "completeness proof rejected"
          | Some bindings ->
              if List.length bindings <> List.length pg.rows then
                Error "result set disagrees with completeness proof"
              else
                let rec go acc rows binds =
                  match (rows, binds) with
                  | [], [] -> Ok (List.rev acc, pg.cursor)
                  | row :: rows', (key, value) :: binds' -> (
                      match check_row ?window ~key ~value row with
                      | Error _ as e -> e
                      | Ok rr -> go (rr :: acc) rows' binds')
                  | _ -> Error "result set disagrees with completeness proof"
                in
                go [] pg.rows bindings)
    end
  end

let verify_pages ~root ~spec ?window ~page_size pages =
  let rec go acc after = function
    | [] -> Error "no pages"
    | [ pg ] -> (
        match verify_page ~root ~spec ?window ?after ~page_size pg with
        | Error _ as e -> e
        | Ok (rows, cursor) -> (
            match cursor with
            | Some _ -> Error "final page still carries a cursor"
            | None -> Ok (List.rev_append acc rows)))
    | pg :: rest -> (
        match verify_page ~root ~spec ?window ?after ~page_size pg with
        | Error _ as e -> e
        | Ok (rows, cursor) -> (
            match cursor with
            | None -> Error "non-final page lacks a cursor"
            | Some c -> go (List.rev_append rows acc) (Some c) rest))
  in
  go [] None pages

(* --- wire codec ---------------------------------------------------------- *)

let w_spec w = function
  | Prefix p ->
      Wire.w_u8 w 0;
      Wire.w_string w p
  | Between { lo; hi } ->
      Wire.w_u8 w 1;
      Wire.w_string w lo;
      Wire.w_option w (Wire.w_string w) hi

let r_spec r =
  match Wire.r_u8 r with
  | 0 -> Prefix (Wire.r_string r)
  | 1 ->
      let lo = Wire.r_string r in
      let hi = Wire.r_option r (fun () -> Wire.r_string r) in
      Between { lo; hi }
  | _ -> raise Wire.Corrupt

let w_window w { t1; t2 } =
  Wire.w_int w t1;
  Wire.w_int w t2

let r_window r =
  let t1 = Wire.r_int r in
  let t2 = Wire.r_int r in
  { t1; t2 }

let w_row w row =
  Wire.w_string w row.clue;
  Wire.w_int w row.total;
  Wire.w_int w row.prefix_count;
  Wire.w_hash w row.prefix_digest;
  Wire.w_list w
    (fun (jsn, tx) ->
      Wire.w_int w jsn;
      Wire.w_hash w tx)
    row.entries

let r_row r =
  let clue = Wire.r_string r in
  let total = Wire.r_int r in
  let prefix_count = Wire.r_int r in
  let prefix_digest = Wire.r_hash r in
  let entries =
    Wire.r_list ~max:1_000_000 r (fun () ->
        let jsn = Wire.r_int r in
        let tx = Wire.r_hash r in
        (jsn, tx))
  in
  { clue; total; prefix_count; prefix_digest; entries }

let w_page w pg =
  Wire.w_list w (w_row w) pg.rows;
  Mpt.w_range_proof w pg.proof;
  Wire.w_option w (Wire.w_string w) pg.cursor

let r_page r =
  let rows = Wire.r_list ~max:100_000 r (fun () -> r_row r) in
  let proof = Mpt.r_range_proof r in
  let cursor = Wire.r_option r (fun () -> Wire.r_string r) in
  { rows; proof; cursor }

let encode_page pg = Wire.encode (fun w -> w_page w pg)

let decode_page b = Wire.decode b r_page
let page_bytes pg = Bytes.length (encode_page pg)
