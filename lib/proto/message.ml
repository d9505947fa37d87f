type body =
  | Tree_construct of { level : int; ancestors : int list }
  | Ack of { parent : int }
  | Aggregation of { psum : int; max_level : int }
  | Critical_failure of int
  | Flooded_psum of { source : int; psum : int }
  | Dominated of int
  | Compulsory of int
  | Agg_abort
  | Detect_failed_parent
  | Failed_parent of { node : int; depth : int }
  | Detect_failed_child
  | Failed_child of int
  | Lfc_tail of int
  | Not_lfc_tail of int
  | Veri_overflow
  | Bf_init
  | Bf_value of { source : int; value : int }

type t = { exec : int; body : body }

let tag_bits = 5

(* The field widths of one parameter set, with the key they were computed
   from.  The key is everything the widths read — [n], [c·d], [max_input]
   and the CAAF (physically: its [domain_bits] is a closure) — and not the
   [Params.t] record itself: [Tradeoff] rebuilds [{ p with t }] per node,
   which an identity key would miss, while [Selection] and [Derived]
   rebuild params with another CAAF or [max_input], which a cache stored
   alongside the old params would answer wrongly. *)
type widths = {
  key_n : int;
  key_cd : int;
  key_max_input : int;
  key_caaf : Ftagg_caaf.Caaf.t;
  id : int;
  level : int;
  value : int;
  input : int;
}

let widths_of (p : Params.t) =
  {
    key_n = p.n;
    key_cd = Params.cd p;
    key_max_input = p.max_input;
    key_caaf = p.caaf;
    id = Params.id_bits p;
    level = Params.level_bits p;
    value = Params.value_bits p;
    input = max 1 (Ftagg_util.Bits.bits_for_value p.max_input);
  }

(* One entry: a run prices every payload under one parameter set, so the
   last widths computed are almost always the ones asked for next.  The
   record is immutable, so a domain that races another's store reads
   either entry whole. *)
let memo : widths option Atomic.t = Atomic.make None

let widths (p : Params.t) =
  match Atomic.get memo with
  | Some w
    when w.key_n = p.n
         && w.key_cd = Params.cd p
         && w.key_max_input = p.max_input
         && w.key_caaf == p.caaf ->
    w
  | _ ->
    let w = widths_of p in
    Atomic.set memo (Some w);
    w

let bits p body =
  let { id; level; value; input; _ } = widths p in
  let fields =
    match body with
    | Tree_construct { level = _; ancestors } -> level + (List.length ancestors * id)
    | Ack _ -> id
    | Aggregation _ -> value + level
    | Critical_failure _ -> id
    | Flooded_psum _ -> id + value
    | Dominated _ | Compulsory _ -> id
    | Agg_abort | Veri_overflow | Detect_failed_parent | Detect_failed_child | Bf_init -> 0
    | Failed_parent _ -> id + level
    | Failed_child _ | Lfc_tail _ | Not_lfc_tail _ -> id
    | Bf_value _ -> id + input
  in
  tag_bits + id + fields

let msg_bits p { exec = _; body } = bits p body

let is_flood = function
  | Tree_construct _ | Ack _ | Aggregation _ -> false
  | Critical_failure _ | Flooded_psum _ | Dominated _ | Compulsory _ | Agg_abort
  | Detect_failed_parent | Failed_parent _ | Detect_failed_child | Failed_child _
  | Lfc_tail _ | Not_lfc_tail _ | Veri_overflow | Bf_init | Bf_value _ ->
    true

let pp_body ppf = function
  | Tree_construct { level; ancestors } ->
    Format.fprintf ppf "tc(l%d,%d anc)" level (List.length ancestors)
  | Ack { parent } -> Format.fprintf ppf "ack(%d)" parent
  | Aggregation { psum; max_level } -> Format.fprintf ppf "agg(%d,ml%d)" psum max_level
  | Critical_failure v -> Format.fprintf ppf "crit(%d)" v
  | Flooded_psum { source; psum } -> Format.fprintf ppf "psum(%d:%d)" source psum
  | Dominated v -> Format.fprintf ppf "dom(%d)" v
  | Compulsory v -> Format.fprintf ppf "comp(%d)" v
  | Agg_abort -> Format.fprintf ppf "abort"
  | Detect_failed_parent -> Format.fprintf ppf "dfp"
  | Failed_parent { node; depth } -> Format.fprintf ppf "fp(%d,x%d)" node depth
  | Detect_failed_child -> Format.fprintf ppf "dfc"
  | Failed_child v -> Format.fprintf ppf "fc(%d)" v
  | Lfc_tail v -> Format.fprintf ppf "lfc(%d)" v
  | Not_lfc_tail v -> Format.fprintf ppf "nolfc(%d)" v
  | Veri_overflow -> Format.fprintf ppf "overflow"
  | Bf_init -> Format.fprintf ppf "bf"
  | Bf_value { source; value } -> Format.fprintf ppf "bfv(%d:%d)" source value

let pp ppf { exec; body } = Format.fprintf ppf "%d:%a" exec pp_body body
