type parked = {
  p_pairs : (int * int) list;
  p_cuts : int list;
  p_rng : int64;
}

type stats = {
  resident : int;
  parked : int;
  resident_peak : int;
  resident_bytes : int;
  resident_bytes_peak : int;
  cap_bytes : int;
  session_bytes : int;
  evictions : int;
  hydrations : int;
}

(* Intrusive doubly-linked list, most-recent at [head], coldest at
   [tail]. Every operation the engine's hot path touches — touch,
   remove, unlink — is O(1); [pop_coldest] is O(pinned prefix). *)
type node = {
  user : string;
  mutable prev : node option;  (* toward head (warmer) *)
  mutable next : node option;  (* toward tail (colder) *)
}

type t = {
  mutable cap : int;
  s_bytes : int;
  nodes : (string, node) Hashtbl.t;
  parked_tbl : (string, parked) Hashtbl.t;
  mutable head : node option;
  mutable tail : node option;
  mutable peak : int;
  mutable bytes_peak : int;
  mutable n_evictions : int;
  mutable n_hydrations : int;
}

let create ~cap_bytes ~session_bytes =
  if cap_bytes <= 0 then invalid_arg "Tier.create: cap_bytes must be > 0";
  if session_bytes <= 0 then
    invalid_arg "Tier.create: session_bytes must be > 0";
  {
    cap = cap_bytes;
    s_bytes = session_bytes;
    nodes = Hashtbl.create 1024;
    parked_tbl = Hashtbl.create 1024;
    head = None;
    tail = None;
    peak = 0;
    bytes_peak = 0;
    n_evictions = 0;
    n_hydrations = 0;
  }

let set_cap_bytes t cap =
  if cap <= 0 then invalid_arg "Tier.set_cap_bytes: cap must be > 0";
  t.cap <- cap

let resident t = Hashtbl.length t.nodes
let resident_bytes t = resident t * t.s_bytes
let over_cap t = resident_bytes t > t.cap

let unlink t n =
  (match n.prev with Some p -> p.next <- n.next | None -> t.head <- n.next);
  (match n.next with Some s -> s.prev <- n.prev | None -> t.tail <- n.prev);
  n.prev <- None;
  n.next <- None

let push_front t n =
  n.next <- t.head;
  n.prev <- None;
  (match t.head with Some h -> h.prev <- Some n | None -> t.tail <- Some n);
  t.head <- Some n

let touch t user =
  match Hashtbl.find_opt t.nodes user with
  | Some n -> (
      match t.head with
      | Some h when h == n -> ()
      | _ ->
          unlink t n;
          push_front t n)
  | None ->
      let n = { user; prev = None; next = None } in
      Hashtbl.add t.nodes user n;
      push_front t n;
      let r = resident t in
      if r > t.peak then t.peak <- r;
      let b = r * t.s_bytes in
      if b > t.bytes_peak then t.bytes_peak <- b

let remove t user =
  (match Hashtbl.find_opt t.nodes user with
  | Some n ->
      unlink t n;
      Hashtbl.remove t.nodes user
  | None -> ());
  Hashtbl.remove t.parked_tbl user

let pop_coldest t ~pinned =
  let rec walk = function
    | None -> None
    | Some n when pinned n.user -> walk n.prev
    | Some n ->
        unlink t n;
        Hashtbl.remove t.nodes n.user;
        Some n.user
  in
  walk t.tail

let park t user state =
  Hashtbl.replace t.parked_tbl user state;
  t.n_evictions <- t.n_evictions + 1

(* Replace a record in place without counting an eviction — epoch
   migration rewriting parked state, not a cache decision. *)
let repark t user state = Hashtbl.replace t.parked_tbl user state

let take_parked t user =
  match Hashtbl.find_opt t.parked_tbl user with
  | Some p ->
      Hashtbl.remove t.parked_tbl user;
      t.n_hydrations <- t.n_hydrations + 1;
      Some p
  | None -> None

let peek_parked t user = Hashtbl.find_opt t.parked_tbl user

let fold_parked t ~init ~f =
  Hashtbl.fold (fun user p acc -> f acc user p) t.parked_tbl init

let stats t =
  {
    resident = resident t;
    parked = Hashtbl.length t.parked_tbl;
    resident_peak = t.peak;
    resident_bytes = resident_bytes t;
    resident_bytes_peak = t.bytes_peak;
    cap_bytes = t.cap;
    session_bytes = t.s_bytes;
    evictions = t.n_evictions;
    hydrations = t.n_hydrations;
  }
