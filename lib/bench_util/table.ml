let print_title title =
  Printf.printf "\n%s\n%s\n" title (String.make (String.length title) '=')

let print_table ~header rows =
  let all = header :: rows in
  let cols = List.length header in
  let width c =
    List.fold_left
      (fun acc row ->
        match List.nth_opt row c with
        | Some cell -> max acc (String.length cell)
        | None -> acc)
      0 all
  in
  let widths = List.init cols width in
  let print_row row =
    List.iteri
      (fun c cell ->
        let w = List.nth widths c in
        Printf.printf "%s%s" cell (String.make (w - String.length cell + 2) ' '))
      row;
    print_newline ()
  in
  print_row header;
  print_row (List.map (fun w -> String.make w '-') widths);
  List.iter print_row rows

let print_multi_series ~title ~x_label ~series_labels points =
  print_title title;
  print_table
    ~header:(x_label :: series_labels)
    (List.map
       (fun (x, ys) -> x :: List.map (fun y -> Printf.sprintf "%.2f" y) ys)
       points)

let human_rate r =
  if r >= 1_000_000. then Printf.sprintf "%.2fM" (r /. 1_000_000.)
  else if r >= 1_000. then Printf.sprintf "%.1fK" (r /. 1_000.)
  else Printf.sprintf "%.1f" r

let human_ms ms =
  if ms >= 1000. then Printf.sprintf "%.2fs" (ms /. 1000.)
  else if ms >= 1. then Printf.sprintf "%.2fms" ms
  else Printf.sprintf "%.1fus" (ms *. 1000.)
