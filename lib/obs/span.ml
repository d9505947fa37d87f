type span = {
  sp_node : int;
  sp_name : string;
  sp_phase : bool;
  sp_start_round : int;
  mutable sp_end_round : int;
  sp_start_wall : float;
  mutable sp_end_wall : float;
  mutable sp_bits : int;
  sp_depth : int;
}

type t = {
  mutable round : int;
  stacks : (int, span list) Hashtbl.t;  (* node -> open spans, innermost first *)
  mutable rev_all : span list;  (* every span ever opened, newest first *)
}

let create () = { round = 0; stacks = Hashtbl.create 32; rev_all = [] }

let set_round t r = t.round <- r

let stack t node = Option.value (Hashtbl.find_opt t.stacks node) ~default:[]

let open_span t ~node ~name ~is_phase rest =
  let sp =
    {
      sp_node = node;
      sp_name = name;
      sp_phase = is_phase;
      sp_start_round = t.round;
      sp_end_round = -1;
      sp_start_wall = Unix.gettimeofday ();
      sp_end_wall = 0.0;
      sp_bits = 0;
      sp_depth = List.length rest;
    }
  in
  Hashtbl.replace t.stacks node (sp :: rest);
  t.rev_all <- sp :: t.rev_all;
  sp

let close t sp =
  sp.sp_end_round <- t.round;
  sp.sp_end_wall <- Unix.gettimeofday ()

let charge t ~node bits =
  match stack t node with [] -> () | sp :: _ -> sp.sp_bits <- sp.sp_bits + bits

let current_phase t ~node =
  match stack t node with [] -> None | sp :: _ -> Some sp.sp_name

let close_all t =
  Hashtbl.iter (fun _ spans -> List.iter (close t) spans) t.stacks;
  Hashtbl.reset t.stacks

let spans t = List.rev t.rev_all

(* ---- ambient collector ------------------------------------------------ *)

let ambient_key : t option Domain.DLS.key = Domain.DLS.new_key (fun () -> None)

(* How many [with_ambient] bodies are running, over all domains.  At zero
   no domain has a collector installed, so [get_ambient] can answer
   without the domain-local lookup: protocol steps ask on every round. *)
let installed = Atomic.make 0

let with_ambient t f =
  let prev = Domain.DLS.get ambient_key in
  Domain.DLS.set ambient_key (Some t);
  Atomic.incr installed;
  Fun.protect
    ~finally:(fun () ->
      Atomic.decr installed;
      Domain.DLS.set ambient_key prev)
    f

let get_ambient () =
  if Atomic.get installed = 0 then None
  else
    match Domain.DLS.get ambient_key with
    | Some t when Registry.enabled () -> Some t
    | _ -> None

let active () = match get_ambient () with Some _ -> true | None -> false

let enter ~node name =
  match get_ambient () with
  | None -> ()
  | Some t -> ignore (open_span t ~node ~name ~is_phase:false (stack t node))

let exit_named ~node name =
  match get_ambient () with
  | None -> ()
  | Some t ->
    (* Only unwind if the named span is actually open: a stray exit must
       not tear down unrelated spans. *)
    let st = stack t node in
    if List.exists (fun sp -> sp.sp_name = name) st then begin
      let rec pop = function
        | [] -> []
        | sp :: rest ->
          close t sp;
          if sp.sp_name = name then rest else pop rest
      in
      Hashtbl.replace t.stacks node (pop st)
    end

let phase ~node name =
  match get_ambient () with
  | None -> ()
  | Some t -> (
    match stack t node with
    | sp :: _ when sp.sp_phase && sp.sp_name = name -> ()
    | sp :: rest when sp.sp_phase ->
      close t sp;
      ignore (open_span t ~node ~name ~is_phase:true rest)
    | st -> ignore (open_span t ~node ~name ~is_phase:true st))
