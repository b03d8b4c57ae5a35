(* Dead-export gate.  Reads the typed trees (.cmt, .cmti) that the
   compiler writes under ROOT/{lib,bin,bench,test,examples,benchmark},
   where ROOT is a build context root such as _build/default, and lists
   every [val] declared in a lib/ interface that no other compilation
   unit uses.

     dead_exports ROOT

   What counts as a use of a val [v] that unit U's interface declares:
   - an identifier in another unit that the type checker resolved to
     [v]'s declaration, however it was written: qualified, under an
     [open], or through a module alias (the typed tree keeps the
     declaration's uid and location, so no spelling hides a use);
   - a use of a module as a whole, which uses every val of its
     signature: [include], a functor argument, a first-class module,
     a module constraint.  The module's path is normalised through the
     environment, so a library's wrapper or a local alias counts.  An
     [open] and a plain alias ([module M = P], [let module M = P in])
     are not uses by themselves;
   - an identifier in U's own implementation makes [v] "used only
     inside its own module".

   Referenced nowhere, or used only inside its own module: listed, and
   the gate fails (exit 1); delete the first kind, take the second out
   of its .mli.  Used only from test/: listed, not a failure.  A gate
   that cannot start fails too (exit 2): no lib/ .cmti read, or fewer
   than there are lib/**/*.mli files under ROOT. *)

open Typedtree

let scanned = [ "lib"; "bin"; "bench"; "test"; "examples"; "benchmark" ]

let rec walk path acc =
  if not (Sys.file_exists path) then acc
  else if Sys.is_directory path then
    Array.fold_left
      (fun acc f -> walk (Filename.concat path f) acc)
      acc (Sys.readdir path)
  else path :: acc

type export = {
  unit : string;
  inner : string list;  (** submodules of [unit] that hold the val *)
  name : string;
  where : string;
  mutable users : string list;  (** top directories of the other users *)
  mutable own : bool;
}

(* A declaration is its uid and its location: an interface and its
   implementation number their uids apart, from the same unit name. *)
type decl = Shape.Uid.t * Location.t

let decl (vd : Types.value_description) : decl = (vd.val_uid, vd.val_loc)
let exports : (decl, export) Hashtbl.t = Hashtbl.create 1024

let rec add_signature unit file inner sg =
  List.iter
    (fun item ->
      match item.sig_desc with
      | Tsig_value { val_name; val_val = { val_kind = Val_reg; _ } as vd; _ } ->
          let where = Printf.sprintf "%s:%d" file vd.val_loc.loc_start.pos_lnum in
          Hashtbl.replace exports (decl vd)
            { unit; inner; name = val_name.txt; where; users = []; own = false }
      | Tsig_module
          { md_name = { txt = Some m; _ }; md_type = { mty_desc = Tmty_signature sg; _ }; _ } ->
          add_signature unit file (inner @ [ m ]) sg
      | _ -> ())
    sg.sig_items

(* A user: the unit it compiles to and its top directory. *)
type user = { modname : string; dir : string }

let value_uses = ref []
let module_uses = ref []

(* Each implementation val the compiler matched against an interface
   val: a use of the first is a use of the second. *)
let matched = ref []

let rec unit_path = function
  | Path.Pident id when Ident.global id -> Some (Ident.name id, [])
  | Pdot (p, s) -> Option.map (fun (u, l) -> (u, l @ [ s ])) (unit_path p)
  | _ -> None

(* The environment of a typed tree is rebuilt from its summary, so the
   load path must be the one the unit was compiled with. *)
let load_paths_of root (cmt : Cmt_format.cmt_infos) =
  Load_path.init ~auto_include:Load_path.no_auto_include
    (List.map
       (fun d -> if Filename.is_relative d then Filename.concat root d else d)
       cmt.cmt_loadpath);
  Env.reset_cache ();
  Envaux.reset_cache ()

let normalise env path =
  try Env.normalize_module_path None (Envaux.env_of_only_summary env) path
  with _ -> path

let read_implementation root user (cmt : Cmt_format.cmt_infos) str =
  let default = Tast_iterator.default_iterator in
  let not_a_use me = match me.mod_desc with Tmod_ident _ -> true | _ -> false in
  let expr sub e =
    match e.exp_desc with
    | Texp_ident (_, _, vd) -> value_uses := (decl vd, user) :: !value_uses
    | Texp_letmodule (_, _, _, me, body) when not_a_use me -> sub.Tast_iterator.expr sub body
    | _ -> default.expr sub e
  in
  let module_expr sub me =
    (match me.mod_desc with
    | Tmod_ident (p, _) -> (
        match unit_path (normalise me.mod_env p) with
        | Some up -> module_uses := (up, user) :: !module_uses
        | None -> ())
    | _ -> ());
    default.module_expr sub me
  in
  let module_binding sub mb = if not (not_a_use mb.mb_expr) then default.module_binding sub mb in
  let open_declaration sub od =
    if not (not_a_use od.open_expr) then default.open_declaration sub od
  in
  let it = { default with expr; module_expr; module_binding; open_declaration } in
  load_paths_of root cmt;
  it.structure it str;
  List.iter
    (fun (impl, intf) -> matched := (decl impl, decl intf) :: !matched)
    cmt.cmt_value_dependencies

(* Ledger_core__Journal -> Journal *)
let short unit =
  let rec from i =
    if i < 0 then unit
    else if String.sub unit i 2 = "__" then String.sub unit (i + 2) (String.length unit - i - 2)
    else from (i - 1)
  in
  from (String.length unit - 2)

let rec is_prefix p l =
  match (p, l) with
  | [], _ -> true
  | x :: p, y :: l -> x = y && is_prefix p l
  | _ :: _, [] -> false

let count_suffix suffix files =
  List.length (List.filter (fun f -> Filename.check_suffix f suffix) files)

let () =
  let root =
    match Sys.argv with
    | [| _; root |] -> root
    | _ ->
        prerr_endline "usage: dead_exports ROOT";
        exit 2
  in
  let interfaces = ref 0 and trees = ref 0 in
  List.iter
    (fun dir ->
      let files = walk (Filename.concat root dir) [] in
      List.iter
        (fun file ->
          if Filename.check_suffix file ".cmt" || Filename.check_suffix file ".cmti"
          then begin
            let cmt = Cmt_format.read_cmt file in
            let user = { modname = cmt.cmt_modname; dir } in
            incr trees;
            match cmt.cmt_annots with
            | Interface sg when dir = "lib" ->
                incr interfaces;
                let src = Option.value cmt.cmt_sourcefile ~default:file in
                add_signature cmt.cmt_modname src [] sg
            | Implementation str -> read_implementation root user cmt str
            | _ -> ()
          end)
        files;
      if dir = "lib" then begin
        let mlis = count_suffix ".mli" files in
        if !interfaces = 0 || !interfaces < mlis then begin
          Printf.printf
            "dead exports: read %d lib/ .cmti for %d lib/ .mli under %s; \
             build the check alias first\n"
            !interfaces mlis root;
          exit 2
        end
      end)
    scanned;
  let used_by e { modname; dir } =
    if modname = e.unit then e.own <- true
    else if not (List.mem dir e.users) then e.users <- dir :: e.users
  in
  let own_decls = Hashtbl.create 1024 in
  List.iter
    (fun (impl, intf) ->
      Option.iter (Hashtbl.replace own_decls impl) (Hashtbl.find_opt exports intf))
    !matched;
  List.iter
    (fun (d, user) ->
      match Hashtbl.find_opt exports d with
      | Some e -> used_by e user
      | None -> Option.iter (fun e -> used_by e user) (Hashtbl.find_opt own_decls d))
    !value_uses;
  List.iter
    (fun ((unit, inner), user) ->
      Hashtbl.iter
        (fun _ e -> if e.unit = unit && is_prefix inner e.inner then used_by e user)
        exports)
    !module_uses;
  let listed = List.sort compare (Hashtbl.fold (fun _ e acc -> e :: acc) exports []) in
  let print title keep =
    match List.filter keep listed with
    | [] -> 0
    | l ->
        Printf.printf "%s\n" title;
        List.iter
          (fun e ->
            Printf.printf "  %s %s\n" e.where
              (String.concat "." ((short e.unit :: e.inner) @ [ e.name ])))
          l;
        List.length l
  in
  let nowhere = print "dead exports: referenced nowhere:" (fun e -> e.users = [] && not e.own) in
  let own = print "dead exports: used only inside their own module:" (fun e -> e.users = [] && e.own) in
  let _ = print "exports used only from test/ (not a failure):" (fun e -> e.users = [ "test" ]) in
  if nowhere + own > 0 then exit 1;
  Printf.printf "dead exports check passed: %d vals in %d lib/ interfaces, %d typed trees\n"
    (List.length listed) !interfaces !trees
