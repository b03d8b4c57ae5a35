(* Sample series, order statistics and the result line. *)

module Json = Ledger_bench_util.Json_out

(* growable float series *)
type series = { mutable a : float array; mutable n : int }

let series () = { a = Array.make 256 0.; n = 0 }

let add s v =
  if s.n = Array.length s.a then begin
    let bigger = Array.make (2 * s.n) 0. in
    Array.blit s.a 0 bigger 0 s.n;
    s.a <- bigger
  end;
  s.a.(s.n) <- v;
  s.n <- s.n + 1

let sorted s =
  let a = Array.sub s.a 0 s.n in
  Array.sort Float.compare a;
  a

(* nearest-rank percentile over a sorted array; nan when empty *)
let pct sorted q =
  let n = Array.length sorted in
  if n = 0 then Float.nan
  else
    sorted.(min (n - 1) (max 0 (int_of_float (Float.ceil (q *. float_of_int n)) - 1)))

let quantile s q = pct (sorted s) q

let mean s =
  if s.n = 0 then Float.nan
  else begin
    let acc = ref 0. in
    for i = 0 to s.n - 1 do
      acc := !acc +. s.a.(i)
    done;
    !acc /. float_of_int s.n
  end

let median_of l =
  let s = series () in
  List.iter (add s) l;
  quantile s 0.5

(* The one-line result every run ends with.  Not [Json.to_string] as a
   whole: it prints floats with six digits, and a measured value keeps
   every digit it has. *)
let result_line ~correct ~attempted ~failed metrics =
  let num v = if Float.is_finite v then Printf.sprintf "%.17g" v else "null" in
  let str s = Json.to_string (Json.Str s) in
  let m =
    List.map
      (fun (name, value, unit) ->
        Printf.sprintf "%s: {\"value\": %s, \"unit\": %s}" (str name) (num value) (str unit))
      metrics
  in
  Printf.sprintf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}"
    correct attempted failed (String.concat ", " m)
