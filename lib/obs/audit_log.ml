(* Append-only record of verification attempts — the transparency view:
   who verified what, when, and how it went.  Unlike metrics (aggregates)
   and traces (control flow), this log is queryable evidence: coverage
   answers "which journals has anyone actually verified", in the spirit
   of GlassDB's deferred-verification transparency. *)

type subject =
  | Journal of int
  | Receipt of int
  | Commitment of int (* ledger size at verification time *)
  | Clue of string
  | Extension of { old_size : int; new_size : int }
  | Fork_epoch of int

type outcome =
  | Verified
  | Degraded of string (* transient failure: attempt made, no verdict *)
  | Repudiated of string (* cryptographic evidence against the ledger *)

type entry = {
  seq : int;
  at_us : int64;
  verifier : string;
  subject : subject;
  outcome : outcome;
}

let entries_rev : entry list ref = ref []
let count = ref 0

let record ~verifier subject outcome =
  if !Obs_core.enabled then
    (* locked: pooled verification tasks may record concurrently *)
    Obs_core.locked (fun () ->
        entries_rev :=
          { seq = Obs_core.next_seq (); at_us = Obs_core.now (); verifier;
            subject; outcome }
          :: !entries_rev;
        incr count)

let entries () = List.rev !entries_rev
let size () = !count

type coverage = { verified_jsns : int; total_jsns : int; ratio : float }

(* A jsn counts as covered when at least one Verified entry targets its
   journal or its receipt.  Degraded/Repudiated attempts never cover. *)
let coverage_filtered ~keep ~ledger_size =
  let seen = Hashtbl.create (max 16 ledger_size) in
  List.iter
    (fun e ->
      match (e.outcome, e.subject) with
      | Verified, (Journal jsn | Receipt jsn)
        when jsn >= 0 && jsn < ledger_size && keep e ->
          Hashtbl.replace seen jsn ()
      | _ -> ())
    !entries_rev;
  let verified_jsns = Hashtbl.length seen in
  {
    verified_jsns;
    total_jsns = ledger_size;
    ratio =
      (if ledger_size = 0 then 1.
       else float_of_int verified_jsns /. float_of_int ledger_size);
  }

let coverage ~ledger_size = coverage_filtered ~keep:(fun _ -> true) ~ledger_size

let starts_with ~prefix s =
  String.length s >= String.length prefix
  && String.sub s 0 (String.length prefix) = prefix

let coverage_where ~verifier_prefix ~ledger_size =
  coverage_filtered ~ledger_size
    ~keep:(fun e -> starts_with ~prefix:verifier_prefix e.verifier)

let reset () =
  entries_rev := [];
  count := 0
