type 'body t = {
  table : ('body, unit) Hashtbl.t;
  mutable outbox : 'body list;  (* reversed *)
}

(* Every node of a run holds one table, so its initial size is paid n
   times over; most nodes see only a few distinct bodies. *)
let create () = { table = Hashtbl.create 16; outbox = [] }

let seen t body = Hashtbl.mem t.table body

let receive t body =
  if seen t body then false
  else begin
    (* [body] is absent, so [add] does what [replace] would without
       scanning its bucket again. *)
    Hashtbl.add t.table body ();
    t.outbox <- body :: t.outbox;
    true
  end

let originate = receive

let pending t = t.outbox <> []

let drain t =
  let out = List.rev t.outbox in
  t.outbox <- [];
  out

let fold_seen f t init = Hashtbl.fold (fun body () acc -> f body acc) t.table init
