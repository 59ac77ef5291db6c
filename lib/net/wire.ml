module Engine = Cdw_engine.Engine
module Crc32 = Cdw_store.Crc32
module Frame = Cdw_store.Frame

let version = 0x02
let min_version = 0x01

type hello = {
  h_algorithm : string;
  h_seed : int;
  h_shards : int;
  h_workflow : string;
}

type request =
  | Hello
  | Submit of { user : string; request : Engine.request }
  | Drain
  | Forget of string
  | Metrics
  | Prom
  | Ping
  | Trace_req
  | Epoch_install of string
  | Epoch_query

type epoch_installed = {
  e_epoch : int;
  e_recomputed : int;
  e_remapped : int;
  e_dropped : int;
}

type reply =
  | Hello_r of hello
  | Ack
  | Drain_r of int
  | Reply_r of Engine.reply
  | Metrics_r of string
  | Prom_r of string
  | Pong
  | Trace_r of string
  | Epoch_installed_r of epoch_installed
  | Epoch_r of int
  | Error_r of string

(* ---------------------------------------------------------------- *)
(* Binary body codec. Little-endian throughout, like the WAL frames:
   u8 tags, i64 integers, f64 as IEEE bits, u32-length-prefixed
   strings. Every read is bounds-checked; a malformed body raises
   [Malformed], which the entry points turn into [Error _]. *)

exception Malformed of string

let u8 b v = Buffer.add_char b (Char.chr (v land 0xFF))
let i64 b v = Buffer.add_int64_le b (Int64.of_int v)
let f64 b v = Buffer.add_int64_le b (Int64.bits_of_float v)

let str b s =
  Buffer.add_int32_le b (Int32.of_int (String.length s));
  Buffer.add_string b s

let need buf pos n =
  if !pos + n > String.length buf then raise (Malformed "truncated body")

let ru8 buf pos =
  need buf pos 1;
  let v = Char.code buf.[!pos] in
  incr pos;
  v

let ri64 buf pos =
  need buf pos 8;
  let v = Int64.to_int (String.get_int64_le buf !pos) in
  pos := !pos + 8;
  v

let rf64 buf pos =
  need buf pos 8;
  let v = Int64.float_of_bits (String.get_int64_le buf !pos) in
  pos := !pos + 8;
  v

let ru32 buf pos =
  need buf pos 4;
  let v = Int32.to_int (String.get_int32_le buf !pos) land 0xFFFF_FFFF in
  pos := !pos + 4;
  v

let rstr buf pos =
  let n = ru32 buf pos in
  need buf pos n;
  let s = String.sub buf !pos n in
  pos := !pos + n;
  s

let pairs_body b pairs =
  Buffer.add_int32_le b (Int32.of_int (List.length pairs));
  List.iter
    (fun (s, t) ->
      i64 b s;
      i64 b t)
    pairs

let rpairs buf pos =
  let n = ru32 buf pos in
  need buf pos (n * 16);
  List.init n (fun _ ->
      let s = ri64 buf pos in
      let t = ri64 buf pos in
      (s, t))

let engine_request_body b = function
  | Engine.Add pairs ->
      u8 b 0;
      pairs_body b pairs
  | Engine.Withdraw pairs ->
      u8 b 1;
      pairs_body b pairs
  | Engine.Resolve -> u8 b 2

let rengine_request buf pos =
  match ru8 buf pos with
  | 0 -> Engine.Add (rpairs buf pos)
  | 1 -> Engine.Withdraw (rpairs buf pos)
  | 2 -> Engine.Resolve
  | t -> raise (Malformed (Printf.sprintf "unknown request tag 0x%02x" t))

let engine_reply_body b (r : Engine.reply) =
  str b r.Engine.user;
  engine_request_body b r.Engine.request;
  (match r.Engine.result with
  | Ok () -> u8 b 0
  | Error msg ->
      u8 b 1;
      str b msg);
  f64 b r.Engine.time_ms

let rengine_reply buf pos =
  let user = rstr buf pos in
  let request = rengine_request buf pos in
  let result =
    match ru8 buf pos with
    | 0 -> Ok ()
    | 1 -> Error (rstr buf pos)
    | t -> raise (Malformed (Printf.sprintf "unknown result tag 0x%02x" t))
  in
  let time_ms = rf64 buf pos in
  { Engine.user; request; result; time_ms }

(* ---------------------------------------------------------------- *)
(* Payload. Version 0x01: [0x01][opcode u8][body].
   Version 0x02:          [0x02][opcode u8][trace i64][body] —
   identical except for the 64-bit trace/span id between opcode and
   body (0 = untraced). Replies never carry a trace id, so they are
   always emitted in the 0x01 layout — which is also what keeps a
   0x01-speaking client working against a 0x02 server unchanged. *)

let payload b ~version:v ~trace opcode body_writer =
  u8 b v;
  u8 b opcode;
  if v >= 0x02 then i64 b trace;
  body_writer b

let request_payload b ~version ~trace request =
  if version < min_version || version > 0x02 then
    invalid_arg
      (Printf.sprintf "Wire.encode_request: unknown version 0x%02x" version);
  if trace <> 0 && version < 0x02 then
    invalid_arg "Wire.encode_request: trace ids require version 0x02";
  let payload opcode w = payload b ~version ~trace opcode w in
  match request with
  | Hello -> payload 0x01 ignore
  | Submit { user; request } ->
      payload 0x02 (fun b ->
          str b user;
          engine_request_body b request)
  | Drain -> payload 0x03 ignore
  | Forget user -> payload 0x04 (fun b -> str b user)
  | Metrics -> payload 0x05 ignore
  | Prom -> payload 0x06 ignore
  | Ping -> payload 0x07 ignore
  | Trace_req -> payload 0x08 ignore
  | Epoch_install text -> payload 0x09 (fun b -> str b text)
  | Epoch_query -> payload 0x0A ignore

let reply_payload b reply =
  let payload opcode w = payload b ~version:0x01 ~trace:0 opcode w in
  match reply with
  | Hello_r h ->
      payload 0x81 (fun b ->
          str b h.h_algorithm;
          i64 b h.h_seed;
          i64 b h.h_shards;
          str b h.h_workflow)
  | Ack -> payload 0x82 ignore
  | Drain_r n -> payload 0x83 (fun b -> i64 b n)
  | Reply_r r -> payload 0x84 (fun b -> engine_reply_body b r)
  | Metrics_r s -> payload 0x85 (fun b -> str b s)
  | Prom_r s -> payload 0x86 (fun b -> str b s)
  | Pong -> payload 0x87 ignore
  | Trace_r s -> payload 0x88 (fun b -> str b s)
  | Epoch_installed_r e ->
      payload 0x89 (fun b ->
          i64 b e.e_epoch;
          i64 b e.e_recomputed;
          i64 b e.e_remapped;
          i64 b e.e_dropped)
  | Epoch_r epoch -> payload 0x8A (fun b -> i64 b epoch)
  | Error_r msg -> payload 0xEF (fun b -> str b msg)

let contents write =
  let b = Buffer.create 64 in
  write b;
  Buffer.contents b

let encode_request ?(version = version) ?(trace = 0) request =
  contents (fun b -> request_payload b ~version ~trace request)

let encode_reply reply = contents (fun b -> reply_payload b reply)

let with_body buf pos0 f =
  let pos = ref pos0 in
  match f buf pos with
  | v ->
      if !pos <> String.length buf then Error "trailing bytes after body"
      else Ok v
  | exception Malformed msg -> Error msg

let check_header buf =
  if String.length buf < 2 then Error "payload shorter than its header"
  else
    let v = Char.code buf.[0] in
    if v < min_version || v > version then
      Error (Printf.sprintf "unsupported protocol version 0x%02x" v)
    else Ok (v, Char.code buf.[1])

let decode_request buf =
  match check_header buf with
  | Error msg -> Error msg
  | Ok (v, opcode) -> (
      (* Body-less opcodes still go through [with_body] so trailing
         bytes are rejected uniformly. *)
      let body pos0 =
        match opcode with
        | 0x01 -> with_body buf pos0 (fun _ _ -> Hello)
        | 0x02 ->
            with_body buf pos0 (fun buf pos ->
                let user = rstr buf pos in
                let request = rengine_request buf pos in
                Submit { user; request })
        | 0x03 -> with_body buf pos0 (fun _ _ -> Drain)
        | 0x04 -> with_body buf pos0 (fun buf pos -> Forget (rstr buf pos))
        | 0x05 -> with_body buf pos0 (fun _ _ -> Metrics)
        | 0x06 -> with_body buf pos0 (fun _ _ -> Prom)
        | 0x07 -> with_body buf pos0 (fun _ _ -> Ping)
        | 0x08 -> with_body buf pos0 (fun _ _ -> Trace_req)
        | 0x09 ->
            with_body buf pos0 (fun buf pos -> Epoch_install (rstr buf pos))
        | 0x0A -> with_body buf pos0 (fun _ _ -> Epoch_query)
        | op -> Error (Printf.sprintf "unknown request opcode 0x%02x" op)
      in
      if v = 0x01 then Result.map (fun r -> (r, 0)) (body 2)
      else
        let pos = ref 2 in
        match ri64 buf pos with
        | exception Malformed msg -> Error msg
        | trace -> Result.map (fun r -> (r, trace)) (body !pos))

let decode_reply buf =
  match check_header buf with
  | Error msg -> Error msg
  | Ok (v, opcode) ->
      (* Tolerant on the read side: a 0x02 reply would carry a trace id
         we skip (our own servers always reply in the 0x01 layout). *)
      let pos0 = if v = 0x01 then 2 else 10 in
      if String.length buf < pos0 then Error "truncated body"
      else (
        match opcode with
        | 0x81 ->
            with_body buf pos0 (fun buf pos ->
                let h_algorithm = rstr buf pos in
                let h_seed = ri64 buf pos in
                let h_shards = ri64 buf pos in
                let h_workflow = rstr buf pos in
                Hello_r { h_algorithm; h_seed; h_shards; h_workflow })
        | 0x82 -> with_body buf pos0 (fun _ _ -> Ack)
        | 0x83 -> with_body buf pos0 (fun buf pos -> Drain_r (ri64 buf pos))
        | 0x84 ->
            with_body buf pos0 (fun buf pos -> Reply_r (rengine_reply buf pos))
        | 0x85 -> with_body buf pos0 (fun buf pos -> Metrics_r (rstr buf pos))
        | 0x86 -> with_body buf pos0 (fun buf pos -> Prom_r (rstr buf pos))
        | 0x87 -> with_body buf pos0 (fun _ _ -> Pong)
        | 0x88 -> with_body buf pos0 (fun buf pos -> Trace_r (rstr buf pos))
        | 0x89 ->
            with_body buf pos0 (fun buf pos ->
                let e_epoch = ri64 buf pos in
                let e_recomputed = ri64 buf pos in
                let e_remapped = ri64 buf pos in
                let e_dropped = ri64 buf pos in
                Epoch_installed_r { e_epoch; e_recomputed; e_remapped; e_dropped })
        | 0x8A -> with_body buf pos0 (fun buf pos -> Epoch_r (ri64 buf pos))
        | 0xEF -> with_body buf pos0 (fun buf pos -> Error_r (rstr buf pos))
        | op -> Error (Printf.sprintf "unknown reply opcode 0x%02x" op))

(* ---------------------------------------------------------------- *)
(* Socket framing: the WAL's [length u32][crc32 u32][payload] frame,
   moved in buffers — one [read] takes in whatever the socket holds and
   every complete frame is decoded from it; frames written go into one
   buffer that leaves in one [write]. *)

(* Both buffers start at this size; the writer flushes on its own once
   it holds this much. *)
let buffer_size = 64 * 1024

let u32_at buf pos = Int32.to_int (Bytes.get_int32_le buf pos) land 0xFFFF_FFFF

type writer = {
  wfd : Unix.file_descr;
  mutable out : Bytes.t;  (* frames not yet written, [0, len) *)
  mutable len : int;
  scratch : Buffer.t;  (* the payload being encoded *)
  mutable writes : int;
  mutable frames_out : int;
}

let writer fd =
  { wfd = fd; out = Bytes.create buffer_size; len = 0;
    scratch = Buffer.create 256; writes = 0; frames_out = 0 }

let flush w =
  (* Reset before writing: a failed write leaves an empty buffer, not
     a half-sent one the next flush would send again. *)
  let len = w.len in
  w.len <- 0;
  let rec go ofs =
    if ofs < len then
      match Unix.write w.wfd w.out ofs (len - ofs) with
      | n ->
          w.writes <- w.writes + 1;
          go (ofs + n)
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> go ofs
  in
  go 0;
  (* One oversized reply must not pin its buffer for the connection's
     life. *)
  if Bytes.length w.out > 4 * buffer_size then
    w.out <- Bytes.create buffer_size

(* The bytes {!Cdw_store.Frame.encode} would produce, appended to the
   writer's buffer: the payload is encoded into a reused scratch buffer
   and copied once, right after its length and CRC. *)
let write_frame w encode =
  let b = w.scratch in
  Buffer.clear b;
  encode b;
  let len = Buffer.length b in
  if len > Frame.max_payload then begin
    Buffer.reset b;
    invalid_arg "Frame.encode: payload too large"
  end;
  let need = w.len + Frame.header_size + len in
  if need > Bytes.length w.out then begin
    let out = Bytes.create (max need (2 * Bytes.length w.out)) in
    Bytes.blit w.out 0 out 0 w.len;
    w.out <- out
  end;
  let body = w.len + Frame.header_size in
  Buffer.blit b 0 w.out body len;
  Bytes.set_int32_le w.out w.len (Int32.of_int len);
  Bytes.set_int32_le w.out (w.len + 4)
    (Int32.of_int (Crc32.bytes ~pos:body ~len w.out));
  w.len <- need;
  w.frames_out <- w.frames_out + 1;
  if len > buffer_size then Buffer.reset b;
  if w.len >= buffer_size then flush w

let write_request w ~version ~trace request =
  write_frame w (fun b -> request_payload b ~version ~trace request)

let write_reply w reply = write_frame w (fun b -> reply_payload b reply)

type reader = {
  rfd : Unix.file_descr;
  mutable rbuf : Bytes.t;
  mutable pos : int;  (* start of the next frame *)
  mutable lim : int;  (* end of the bytes read so far *)
  mutable reads : int;
  mutable frames_in : int;
}

let reader fd =
  { rfd = fd; rbuf = Bytes.create buffer_size; pos = 0; lim = 0; reads = 0;
    frames_in = 0 }

(* Make room for [need] bytes from [pos] on, then read once. Returns
   how many bytes arrived; 0 is a close. A reset connection (the peer
   closed with data still in flight) reads as a close at the current
   offset — the classification (clean EOF vs torn) falls out of how
   much had arrived, same as an orderly close. *)
let fill r need =
  let held = r.lim - r.pos in
  if r.pos + need > Bytes.length r.rbuf || (held = 0 && r.pos > 0) then begin
    (* A frame larger than the buffer grows it — [need] is at most a
       plausible frame — and an oversized buffer is dropped as soon as
       it is empty again. *)
    let buf =
      if need > Bytes.length r.rbuf then Bytes.create need
      else if held = 0 && Bytes.length r.rbuf > buffer_size
              && need <= buffer_size then Bytes.create buffer_size
      else r.rbuf
    in
    Bytes.blit r.rbuf r.pos buf 0 held;
    r.rbuf <- buf;
    r.pos <- 0;
    r.lim <- held
  end;
  let rec go () =
    match Unix.read r.rfd r.rbuf r.lim (Bytes.length r.rbuf - r.lim) with
    | n ->
        r.reads <- r.reads + 1;
        r.lim <- r.lim + n;
        n
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> go ()
    | exception Unix.Unix_error ((Unix.ECONNRESET | Unix.EPIPE), _, _) -> 0
  in
  go ()

let ready r =
  let held = r.lim - r.pos in
  held >= Frame.header_size
  &&
  let len = u32_at r.rbuf r.pos in
  len > Frame.max_payload || held - Frame.header_size >= len

let read_frame r =
  let rec header () =
    let held = r.lim - r.pos in
    if held >= Frame.header_size then body ()
    else if fill r Frame.header_size > 0 then header ()
    else if held = 0 then Error `Eof
    else
      Error
        (`Torn
          (Printf.sprintf "connection closed mid-header (%d/%d bytes)" held
             Frame.header_size))
  and body () =
    let len = u32_at r.rbuf r.pos in
    if len > Frame.max_payload then
      (* Never trust a corrupted length enough to read (or allocate)
         that many bytes. *)
      Error (`Corrupt (Printf.sprintf "implausible frame length %d" len))
    else
      let rec await () =
        let got = r.lim - r.pos - Frame.header_size in
        if got >= len then verify len
        else if fill r (Frame.header_size + len) > 0 then await ()
        else
          Error
            (`Torn
              (Printf.sprintf "connection closed mid-frame (%d/%d bytes)" got
                 len))
      in
      await ()
  and verify len =
    (* The same CRC check, and the same message, as the ledger's
       scanner ({!Cdw_store.Frame.decode}). *)
    let start = r.pos + Frame.header_size in
    let stored = u32_at r.rbuf (r.pos + 4) in
    let actual = Crc32.bytes ~pos:start ~len r.rbuf in
    if actual <> stored then
      Error
        (`Corrupt
          (Printf.sprintf "crc mismatch (stored %08x, computed %08x)" stored
             actual))
    else begin
      r.pos <- start + len;
      r.frames_in <- r.frames_in + 1;
      Ok (Bytes.sub_string r.rbuf start len)
    end
  in
  header ()

let read_request r = Result.map decode_request (read_frame r)
let read_reply r = Result.map decode_reply (read_frame r)

type stats = { syscalls : int; frames : int }

let reader_stats r = { syscalls = r.reads; frames = r.frames_in }
let writer_stats w = { syscalls = w.writes; frames = w.frames_out }
