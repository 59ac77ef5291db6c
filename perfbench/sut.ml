module Serving = Cdw_shard.Serving
module Server = Cdw_net.Server
module Client = Cdw_net.Client
module Wire = Cdw_net.Wire
module Engine = Cdw_engine.Engine

type shape = {
  algorithm : Cdw_core.Algorithms.name;
  shards : int;
  mem_cap_sessions : int option;
  wire : bool;
  journal : Cdw_store.Wal.fsync_policy option;
}

(* The per-session charge behind [mem_cap_sessions]. Fixing it (instead
   of letting the engine probe its own session size) keeps the cap at
   exactly that many resident sessions on every commit. *)
let session_bytes = 1024

type net = { client : Client.t; stop_server : unit -> unit }

type t = {
  serving : Serving.t;
  net : net option;
  ledger : string;
  mutable journaled : bool;
  mutable closed : bool;
}

(* The server gets a domain of its own, so its accept and connection
   threads run beside the load generator rather than time-sharing the
   generator's domain lock. [setup] returns once the socket is bound, so
   the connect below never races the bind. *)
let start_server serving addr =
  let m = Mutex.create () and cv = Condition.create () in
  let state = ref `Starting in
  let set s =
    Mutex.lock m;
    state := s;
    Condition.broadcast cv;
    Mutex.unlock m
  in
  let domain =
    Domain.spawn (fun () ->
        match Server.start serving addr with
        | exception e -> set (`Failed e)
        | server ->
            set `Ready;
            Mutex.lock m;
            while !state <> `Stopping do
              Condition.wait cv m
            done;
            Mutex.unlock m;
            Server.stop server)
  in
  Mutex.lock m;
  while !state = `Starting do
    Condition.wait cv m
  done;
  let started = !state in
  Mutex.unlock m;
  match started with
  | `Failed e ->
      Domain.join domain;
      raise e
  | _ ->
      fun () ->
        set `Stopping;
        Domain.join domain

let setup shape ~seed ~dir wf =
  let serving =
    Serving.create ~algorithm:shape.algorithm ~seed ~shards:shape.shards wf
  in
  Option.iter
    (fun n -> Serving.set_mem_cap ~session_bytes serving (Some (n * session_bytes)))
    shape.mem_cap_sessions;
  let ledger = Filename.concat dir "ledger" in
  Option.iter (fun fsync -> Serving.journal ~fsync ~dir:ledger serving) shape.journal;
  let net =
    if not shape.wire then None
    else
      let addr = Unix.ADDR_UNIX (Filename.concat dir "cdw.sock") in
      let stop_server = start_server serving addr in
      Some { client = Client.connect addr; stop_server }
  in
  { serving; net; ledger; journaled = shape.journal <> None; closed = false }

let submit t ~user request =
  match t.net with
  | Some n -> Client.submit n.client ~user request
  | None -> Serving.submit t.serving ~user request

let drain t =
  match t.net with
  | Some n -> Client.drain n.client
  | None -> Serving.drain t.serving

let migrate t wf = ignore (Serving.migrate t.serving wf)

let base t = Serving.base t.serving
let session_states t = Serving.session_states t.serving
let metrics t = Serving.metrics t.serving
let tier_stats t = Serving.tier_stats t.serving
let domain_stats t = Serving.domain_stats t.serving
let ledger_dir t = t.ledger

(* A journaled value is left alone, so its recovery replays the WAL it
   wrote while serving rather than one final snapshot. *)
let persist t =
  if not t.journaled then begin
    Serving.journal ~dir:t.ledger t.serving;
    Serving.snapshot t.serving;
    t.journaled <- true
  end

let close t =
  if not t.closed then begin
    t.closed <- true;
    Option.iter
      (fun n ->
        Client.close n.client;
        n.stop_server ())
      t.net;
    Serving.close t.serving
  end

let resume dir =
  match Serving.resume dir with
  | Error e -> failwith (Printf.sprintf "resume %s: %s" dir e)
  | Ok r ->
      {
        serving = r.Serving.serving;
        net = None;
        ledger = dir;
        journaled = true;
        closed = false;
      }

let codec_cost requests =
  let n = Array.length requests in
  if n = 0 then (0.0, 0.0, 0.0)
  else begin
    let wire (user, request) = Wire.Submit { user; request } in
    let t0 = Unix.gettimeofday () in
    let payloads = Array.map (fun r -> Wire.encode_request (wire r)) requests in
    let t1 = Unix.gettimeofday () in
    let decoded = Array.map Wire.decode_request payloads in
    let t2 = Unix.gettimeofday () in
    Array.iteri
      (fun i d ->
        match d with
        | Ok (req, 0) when req = wire requests.(i) -> ()
        | _ -> failwith "wire codec: a submit payload did not round-trip")
      decoded;
    let bytes =
      Array.fold_left
        (fun acc p -> acc + String.length p + Cdw_store.Frame.header_size)
        0 payloads
    in
    let per x = x /. float_of_int n in
    (per ((t1 -. t0) *. 1e9), per ((t2 -. t1) *. 1e9), per (float_of_int bytes))
  end
