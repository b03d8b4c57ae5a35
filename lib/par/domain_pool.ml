(* Fixed-size domain pool for the batch-shaped hot paths (DESIGN.md §12).

   The pool owns [domains - 1] worker domains; the caller is always the
   last participant, so a pool of size 1 degenerates to plain inline
   execution with no spawning, no locking and no allocation.  Work is
   published as chunk ranges claimed from an atomic counter, which keeps
   every primitive deterministic in its *results* (each chunk writes only
   its own slice) even though chunk execution order is not.

   Nested use is safe by construction: a task that re-enters the pool
   from a worker domain (e.g. a per-shard append that itself hashes a
   batch) detects the worker-local DLS flag and runs inline instead of
   queueing — queueing from a worker could deadlock a fully busy pool. *)

module Metrics = Ledger_obs.Metrics

type pool = {
  domains : int; (* total parallelism, caller included *)
  mutable workers : unit Domain.t array; (* domains - 1 spawned helpers *)
  queue : (unit -> unit) Queue.t;
  lock : Mutex.t;
  nonempty : Condition.t;
  mutable stopped : bool;
}

type t = Sequential | Pool of pool

let sequential = Sequential

let in_worker : bool Domain.DLS.key = Domain.DLS.new_key (fun () -> false)

let worker_loop pool () =
  Domain.DLS.set in_worker true;
  let rec next () =
    Mutex.lock pool.lock;
    let rec take () =
      if pool.stopped then None
      else
        match Queue.take_opt pool.queue with
        | Some task -> Some task
        | None ->
            Condition.wait pool.nonempty pool.lock;
            take ()
    in
    let task = take () in
    Mutex.unlock pool.lock;
    match task with
    | None -> ()
    | Some task ->
        (* tasks are claim loops that trap their own exceptions; this
           catch-all only shields the pool from a buggy future task *)
        (try task () with _ -> ());
        next ()
  in
  next ()

let max_domains = 128

let create ?domains () =
  let requested =
    match domains with
    | Some d -> d
    | None -> Domain.recommended_domain_count ()
  in
  let n = max 1 (min max_domains requested) in
  let pool =
    {
      domains = n;
      workers = [||];
      queue = Queue.create ();
      lock = Mutex.create ();
      nonempty = Condition.create ();
      stopped = false;
    }
  in
  pool.workers <- Array.init (n - 1) (fun _ -> Domain.spawn (worker_loop pool));
  Pool pool

let size = function Sequential -> 1 | Pool p -> p.domains

let shutdown = function
  | Sequential -> ()
  | Pool p ->
      Mutex.lock p.lock;
      p.stopped <- true;
      Condition.broadcast p.nonempty;
      Mutex.unlock p.lock;
      Array.iter Domain.join p.workers

(* --- global default pool -------------------------------------------------- *)

(* LEDGERDB_DOMAINS overrides the core count; 0, negatives and garbage
   fall back to [Domain.recommended_domain_count] (the env knob must
   never be able to brick the process). *)
let env_domains () =
  match Sys.getenv_opt "LEDGERDB_DOMAINS" with
  | None -> None
  | Some v -> (
      match int_of_string_opt (String.trim v) with
      | Some n when n >= 1 -> Some n
      | Some _ | None -> None)

(* Read and published from any domain: two first callers may both
   build a pool, but only one is published; the loser shuts its own
   workers down instead of leaking them. *)
let global : t option Atomic.t = Atomic.make None

let rec default () =
  match Atomic.get global with
  | Some t -> t
  | None ->
      let t = create ?domains:(env_domains ()) () in
      if Atomic.compare_and_set global None (Some t) then t
      else begin
        shutdown t;
        default ()
      end

let set_default t = Atomic.set global (Some t)

(* --- chunked execution ----------------------------------------------------- *)

(* Chunk [c] of [n] items split into [chunks] near-equal ranges. *)
let chunk_bounds n chunks c =
  let base = n / chunks and extra = n mod chunks in
  let lo = (c * base) + min c extra in
  (lo, lo + base + if c < extra then 1 else 0)

(* Run [chunks] tasks across the pool, caller participating.  The first
   exception is recorded, every not-yet-started chunk is skipped
   (cancel), and the exception is re-raised in the caller with its
   original backtrace once all in-flight chunks have drained. *)
let run_pool pool ~label ~chunks ~run_chunk =
  Metrics.incr "par_jobs_total";
  Metrics.incr "par_tasks_total" ~by:chunks;
  Metrics.set_gauge "par_domains" (float_of_int pool.domains);
  (match label with
  | Some l -> Metrics.observe_int ("par_chunks_" ^ l) chunks
  | None -> ());
  let next = Atomic.make 0 in
  let remaining = Atomic.make chunks in
  let failure : (exn * Printexc.raw_backtrace) option Atomic.t =
    Atomic.make None
  in
  let done_lock = Mutex.create () in
  let all_done = Condition.create () in
  let finish_one () =
    if Atomic.fetch_and_add remaining (-1) = 1 then begin
      Mutex.lock done_lock;
      Condition.broadcast all_done;
      Mutex.unlock done_lock
    end
  in
  let claim () =
    let continue = ref true in
    while !continue do
      let c = Atomic.fetch_and_add next 1 in
      if c >= chunks then continue := false
      else begin
        (if Atomic.get failure = None then
           try run_chunk c
           with e ->
             let bt = Printexc.get_raw_backtrace () in
             ignore (Atomic.compare_and_set failure None (Some (e, bt))));
        finish_one ()
      end
    done
  in
  let helpers = min (Array.length pool.workers) (chunks - 1) in
  if helpers > 0 then begin
    Mutex.lock pool.lock;
    for _ = 1 to helpers do
      Queue.add claim pool.queue
    done;
    Condition.broadcast pool.nonempty;
    Mutex.unlock pool.lock
  end;
  claim ();
  Mutex.lock done_lock;
  while Atomic.get remaining > 0 do
    Condition.wait all_done done_lock
  done;
  Mutex.unlock done_lock;
  match Atomic.get failure with
  | Some (e, bt) -> Printexc.raise_with_backtrace e bt
  | None -> ()

let map_chunks t ?label ?(min_chunk = 1) ~n f =
  if n > 0 then
    match t with
    | Sequential -> f ~lo:0 ~hi:n
    | Pool pool ->
        let inline =
          Array.length pool.workers = 0
          || Domain.DLS.get in_worker
          || n <= min_chunk
        in
        if inline then f ~lo:0 ~hi:n
        else begin
          let chunks =
            min n (min (pool.domains * 4) (max 1 (n / max 1 min_chunk)))
          in
          if chunks <= 1 then f ~lo:0 ~hi:n
          else
            run_pool pool ~label ~chunks ~run_chunk:(fun c ->
                let lo, hi = chunk_bounds n chunks c in
                f ~lo ~hi)
        end

let parallel_for t ?label ?min_chunk ~n body =
  map_chunks t ?label ?min_chunk ~n (fun ~lo ~hi ->
      for i = lo to hi - 1 do
        body i
      done)

let map_array t ?label ?min_chunk f arr =
  let n = Array.length arr in
  if n = 0 then [||]
  else begin
    (* seed the result array from index 0 (computed inline, exactly
       once) so no placeholder value is ever needed *)
    let out = Array.make n (f arr.(0)) in
    parallel_for t ?label ?min_chunk ~n:(n - 1) (fun i ->
        out.(i + 1) <- f arr.(i + 1));
    out
  end

let map_chunked t ?label ?min_chunk f arr =
  let n = Array.length arr in
  (* chunk results land at their chunk's first index; the other slots
     stay empty, so concatenating in index order restores item order *)
  let parts = Array.make n [||] in
  map_chunks t ?label ?min_chunk ~n (fun ~lo ~hi ->
      let r = f (Array.sub arr lo (hi - lo)) in
      if Array.length r <> hi - lo then
        invalid_arg "Domain_pool.map_chunked: result length differs";
      parts.(lo) <- r);
  Array.concat (Array.to_list parts)

let map_list t ?label ?min_chunk f l =
  match l with
  | [] -> []
  | [ x ] -> [ f x ]
  | l -> Array.to_list (map_array t ?label ?min_chunk f (Array.of_list l))
