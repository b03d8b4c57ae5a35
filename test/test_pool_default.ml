(* [Domain_pool.default] raced by its first callers.  This runs as its
   own executable so no pool has been published yet when the racers
   start: eight domains wait on a shared counter, then call [default]
   together, and every one of them must get the same pool. *)

open Ledger_par

let test_concurrent_first_callers () =
  let racers = 8 in
  let ready = Atomic.make 0 in
  let pools =
    List.init racers (fun _ ->
        Domain.spawn (fun () ->
            Atomic.incr ready;
            while Atomic.get ready < racers do
              Domain.cpu_relax ()
            done;
            Domain_pool.default ()))
    |> List.map Domain.join
  in
  let published = Domain_pool.default () in
  List.iteri
    (fun i pool ->
      Alcotest.(check bool)
        (Printf.sprintf "racer %d got the published pool" i)
        true (pool == published))
    pools;
  (* the published pool is live: a pooled map still runs on it *)
  let arr = Array.init 64 Fun.id in
  Alcotest.(check (array int))
    "published pool maps" (Array.map succ arr)
    (Domain_pool.map_array published succ arr)

let () =
  Alcotest.run "pool-default"
    [
      ( "default",
        [
          Alcotest.test_case "8 concurrent first callers share one pool"
            `Quick test_concurrent_first_callers;
        ] );
    ]
