(* Wire-protocol and socket-serving tests: codec round-trips, the
   in-process vs over-the-wire differential, and frame fuzzing against
   a live server (torn, bit-flipped, oversized and truncated frames
   must come back as framed errors — never a crash or a desync). *)

module Client = Cdw_net.Client
module Engine = Cdw_engine.Engine
module Frame = Cdw_store.Frame
module Metrics = Cdw_engine.Metrics
module Server = Cdw_net.Server
module Serving = Cdw_shard.Serving
module Splitmix = Cdw_util.Splitmix
module Wire = Cdw_net.Wire
module Workbench = Cdw_engine.Workbench

(* ---------------------------------------------------------------- *)
(* harness *)

(* Serve [serving] on a fresh Unix socket for the duration of [f]. *)
let serve serving f =
  let path = Filename.temp_file "cdw_net" ".sock" in
  Sys.remove path;
  let server = Server.start serving (Unix.ADDR_UNIX path) in
  Fun.protect
    ~finally:(fun () ->
      Server.stop server;
      Serving.close serving;
      if Sys.file_exists path then Sys.remove path)
    (fun () -> f server)

let with_server ?shards ?(config = Workbench.quick) f =
  let wf, script = Workbench.workload config in
  let serving =
    Serving.create ~algorithm:config.Workbench.algorithm
      ~seed:config.Workbench.seed ?shards wf
  in
  serve serving (fun server -> f server script)

let raw_connect server =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.connect fd (Server.sockaddr server);
  fd

let write_raw fd s =
  let rec go ofs len =
    if len > 0 then begin
      let n = Unix.write_substring fd s ofs len in
      go (ofs + n) (len - n)
    end
  in
  go 0 (String.length s)

let expect_error_reply name r =
  match Wire.read_reply r with
  | Ok (Ok (Wire.Error_r _)) -> ()
  | other ->
      Alcotest.failf "%s: expected a framed Error_r, got %s" name
        (match other with
        | Ok (Ok _) -> "another reply"
        | Ok (Error msg) -> "undecodable reply: " ^ msg
        | Error `Eof -> "EOF"
        | Error (`Torn msg) -> "torn: " ^ msg
        | Error (`Corrupt msg) -> "corrupt: " ^ msg)

let expect_eof name r =
  match Wire.read_reply r with
  | Error `Eof -> ()
  | _ -> Alcotest.failf "%s: expected the server to close the connection" name

(* The server must still answer a fresh connection — whatever the
   previous client did to its own. *)
let check_alive server =
  let client = Client.connect (Server.sockaddr server) in
  Client.ping client;
  Client.close client

(* ---------------------------------------------------------------- *)
(* codec round-trips *)

let roundtrip_requests =
  [
    Wire.Hello;
    Wire.Submit { user = "alice"; request = Engine.Add [ (1, 2); (3, 4) ] };
    Wire.Submit { user = ""; request = Engine.Withdraw [] };
    Wire.Submit { user = "u\xffv"; request = Engine.Resolve };
    Wire.Drain;
    Wire.Forget "bob";
    Wire.Metrics;
    Wire.Prom;
    Wire.Ping;
    Wire.Trace_req;
    Wire.Epoch_install "user u\nalgorithm a\npurpose p 1.5\nedge u a 2.0\nedge a p\n";
    Wire.Epoch_install "";
    Wire.Epoch_query;
  ]

let test_request_roundtrip () =
  (* Default encoding (0x02), no trace id. *)
  List.iter
    (fun request ->
      match Wire.decode_request (Wire.encode_request request) with
      | Ok (decoded, trace) ->
          Alcotest.(check bool) "request round-trips" true (decoded = request);
          Alcotest.(check int) "no trace id" 0 trace
      | Error msg -> Alcotest.failf "decode failed: %s" msg)
    roundtrip_requests;
  (* 0x02 with a trace id: the id rides every opcode. *)
  let id = 0x0123_4567_89AB in
  List.iter
    (fun request ->
      match
        Wire.decode_request (Wire.encode_request ~trace:id request)
      with
      | Ok (decoded, trace) ->
          Alcotest.(check bool) "traced round-trips" true (decoded = request);
          Alcotest.(check int) "trace id survives" id trace
      | Error msg -> Alcotest.failf "traced decode failed: %s" msg)
    roundtrip_requests;
  (* Legacy 0x01 layout still decodes (trace id 0). *)
  List.iter
    (fun request ->
      match
        Wire.decode_request (Wire.encode_request ~version:0x01 request)
      with
      | Ok (decoded, trace) ->
          Alcotest.(check bool) "v1 round-trips" true (decoded = request);
          Alcotest.(check int) "v1 has no trace id" 0 trace
      | Error msg -> Alcotest.failf "v1 decode failed: %s" msg)
    roundtrip_requests;
  (* A trace id cannot be expressed in the 0x01 layout. *)
  match Wire.encode_request ~version:0x01 ~trace:id Wire.Ping with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "v1 + trace id should be rejected"

let test_reply_roundtrip () =
  List.iter
    (fun reply ->
      match Wire.decode_reply (Wire.encode_reply reply) with
      | Ok decoded ->
          Alcotest.(check bool) "reply round-trips" true (decoded = reply)
      | Error msg -> Alcotest.failf "decode failed: %s" msg)
    [
      Wire.Hello_r
        {
          Wire.h_algorithm = "remove-first-edge";
          h_seed = 42;
          h_shards = 4;
          h_workflow = "user u\nalgorithm a\npurpose p\n";
        };
      Wire.Ack;
      Wire.Drain_r 0;
      Wire.Drain_r 12345;
      Wire.Reply_r
        {
          Engine.user = "alice";
          request = Engine.Add [ (7, 9) ];
          result = Ok ();
          time_ms = 1.5;
        };
      Wire.Reply_r
        {
          Engine.user = "bob";
          request = Engine.Withdraw [ (1, 2) ];
          result = Error "no such constraint";
          time_ms = 0.0;
        };
      Wire.Metrics_r "{}";
      Wire.Prom_r "# TYPE x counter\n";
      Wire.Pong;
      Wire.Epoch_installed_r
        { Wire.e_epoch = 3; e_recomputed = 17; e_remapped = 120; e_dropped = 2 };
      Wire.Epoch_installed_r
        { Wire.e_epoch = 0; e_recomputed = 0; e_remapped = 0; e_dropped = 0 };
      Wire.Epoch_r 0;
      Wire.Epoch_r 41;
      Wire.Error_r "something broke";
    ]

let test_malformed_payloads () =
  let check name buf =
    match Wire.decode_request buf with
    | Error _ -> ()
    | Ok _ -> Alcotest.failf "%s: decoded a malformed payload" name
  in
  check "empty" "";
  check "header only half" "\x01";
  check "wrong version" "\x03\x07";
  check "unknown opcode" "\x01\xaa";
  check "unknown opcode v2" ("\x02\xaa" ^ String.make 8 '\x00');
  (* A 0x02 header whose trace field is cut off. *)
  check "truncated trace field" "\x02\x07";
  check "truncated trace field (partial)" ("\x02\x07" ^ String.make 5 '\x00');
  check "trailing bytes" (Wire.encode_request Wire.Ping ^ "x");
  (* A submit whose body stops mid-string. *)
  let submit =
    Wire.encode_request
      (Wire.Submit { user = "carol"; request = Engine.Add [ (1, 2) ] })
  in
  check "truncated body" (String.sub submit 0 (String.length submit - 3));
  (* A pair count far beyond the bytes that follow must be rejected by
     the bounds pre-check, not drive allocation. *)
  let b = Buffer.create 32 in
  Buffer.add_string b "\x01\x02";
  Buffer.add_int32_le b 1l;
  Buffer.add_char b 'u';
  Buffer.add_char b '\x00';
  Buffer.add_int32_le b 0x0FFF_FFFFl;
  check "implausible pair count" (Buffer.contents b);
  (* An epoch install whose workflow text stops mid-string. *)
  let install = Wire.encode_request (Wire.Epoch_install "user u\n") in
  check "truncated epoch install" (String.sub install 0 (String.length install - 3));
  (* Epoch_query carries no body; trailing bytes are a malformation. *)
  check "epoch query with trailing bytes"
    (Wire.encode_request Wire.Epoch_query ^ "x")

(* ---------------------------------------------------------------- *)
(* the serving surface over a socket *)

let test_hello_and_ops () =
  with_server ~shards:2 (fun server _script ->
      let client = Client.connect (Server.sockaddr server) in
      let h = Client.hello client in
      Alcotest.(check int) "shards" 2 h.Wire.h_shards;
      (match Cdw_core.Serialize.parse h.Wire.h_workflow with
      | Ok _ -> ()
      | Error msg -> Alcotest.failf "hello workflow does not parse: %s" msg);
      Client.ping client;
      Client.forget client "nobody-in-particular";
      let metrics = Client.metrics client in
      (match Cdw_util.Json.parse metrics with
      | Ok (Cdw_util.Json.Object fields) ->
          Alcotest.(check bool) "metrics has serving + net" true
            (List.mem_assoc "serving" fields && List.mem_assoc "net" fields)
      | Ok _ -> Alcotest.fail "metrics is not an object"
      | Error msg -> Alcotest.failf "metrics does not parse: %s" msg);
      let prom = Client.prometheus client in
      Alcotest.(check bool) "exposition mentions net requests" true
        (String.length prom > 0);
      Client.close client)

let replies_signature replies =
  List.map
    (fun (r : Engine.reply) -> (r.Engine.user, r.Engine.request, r.Engine.result))
    replies

(* The acceptance differential: the reply stream a client reads off the
   socket is bit-identical (user, request, result — time excluded) to
   an in-process single-engine serve of the same script, whatever the
   server's shard count, across 20 generator seeds. *)
let test_differential_wire_vs_inprocess () =
  let checked = ref 0 in
  let seed = ref 100 in
  while !checked < 20 do
    let config = { Workbench.quick with Workbench.seed = !seed } in
    incr seed;
    match Workbench.workload config with
    | exception Invalid_argument _ -> () (* no connected pairs; next seed *)
    | wf, script ->
        incr checked;
        let inproc =
          let s =
            Serving.create ~algorithm:config.Workbench.algorithm
              ~seed:config.Workbench.seed wf
          in
          List.iter (fun (u, r) -> Serving.submit s ~user:u r) script;
          let replies = Serving.drain s in
          Serving.close s;
          replies_signature replies
        in
        List.iter
          (fun shards ->
            with_server ~shards ~config (fun server script ->
                let client = Client.connect (Server.sockaddr server) in
                List.iter (fun (u, r) -> Client.submit client ~user:u r) script;
                let replies = Client.drain client in
                Client.close client;
                Alcotest.(check bool)
                  (Printf.sprintf "seed %d, %d shard(s): wire == in-process"
                     config.Workbench.seed shards)
                  true
                  (replies_signature replies = inproc)))
          [ 1; 2; 4 ]
  done

(* The same differential with tracing live and 0x02 trace ids on every
   frame: the ids must be observability-only — replies bit-identical
   to the untraced in-process serve. (The trace itself is garbage here:
   in-process client and server threads share domain 0's span stack,
   so pipelined spans interleave — see the stitching test for the
   disciplined variant.) *)
let test_differential_traced () =
  let module Trace = Cdw_obs.Trace in
  Trace.reset ();
  Trace.set_enabled true;
  Fun.protect
    ~finally:(fun () ->
      Trace.set_enabled false;
      Trace.reset ())
    (fun () ->
      let checked = ref 0 in
      let seed = ref 300 in
      while !checked < 5 do
        let config = { Workbench.quick with Workbench.seed = !seed } in
        incr seed;
        match Workbench.workload config with
        | exception Invalid_argument _ -> ()
        | wf, script ->
            incr checked;
            let inproc =
              let s =
                Serving.create ~algorithm:config.Workbench.algorithm
                  ~seed:config.Workbench.seed wf
              in
              List.iter (fun (u, r) -> Serving.submit s ~user:u r) script;
              let replies = Serving.drain s in
              Serving.close s;
              replies_signature replies
            in
            List.iter
              (fun shards ->
                with_server ~shards ~config (fun server script ->
                    let client = Client.connect (Server.sockaddr server) in
                    List.iter
                      (fun (u, r) -> Client.submit client ~user:u r)
                      script;
                    let replies = Client.drain client in
                    Client.close client;
                    Alcotest.(check bool)
                      (Printf.sprintf
                         "seed %d, %d shard(s): traced wire == in-process"
                         config.Workbench.seed shards)
                      true
                      (replies_signature replies = inproc)))
              [ 1; 2; 4 ]
      done)

(* A 0x01 client against the 0x02 server: every op round-trips, no
   trace ids anywhere — the compatibility contract for deployed
   clients. *)
let test_v1_client_compat () =
  with_server ~shards:2 (fun server script ->
      let client = Client.connect ~version:0x01 (Server.sockaddr server) in
      let h = Client.hello client in
      Alcotest.(check int) "v1 client sees shards" 2 h.Wire.h_shards;
      Client.ping client;
      List.iter (fun (u, r) -> Client.submit client ~user:u r) script;
      let replies = Client.drain client in
      Alcotest.(check int)
        "v1 client: every submit answered" (List.length script)
        (List.length replies);
      List.iter
        (fun (r : Engine.reply) ->
          match r.Engine.result with
          | Ok () -> ()
          | Error e -> Alcotest.failf "v1 reply rejected: %s" e)
        replies;
      Client.close client)

(* The tentpole acceptance: one trace holds the whole causal chain
   client.drain -> net.request (parent = the wire-carried id) ->
   group.drain -> shard.drain per shard. Submits run untraced first:
   the in-process client and the server's connection thread share
   domain 0's span stack, so concurrent pipelined spans would
   interleave; the drain round-trip is synchronous and safe. *)
let test_trace_stitching () =
  let module Trace = Cdw_obs.Trace in
  let module Json = Cdw_util.Json in
  with_server ~shards:2 (fun server script ->
      let client = Client.connect (Server.sockaddr server) in
      List.iter (fun (u, r) -> Client.submit client ~user:u r) script;
      Client.flush client;
      Trace.reset ();
      Trace.set_enabled true;
      let export =
        Fun.protect
          ~finally:(fun () -> Trace.set_enabled false)
          (fun () ->
            ignore (Client.drain client);
            Trace.set_enabled false;
            Trace.export ())
      in
      Client.close client;
      Trace.reset ();
      let events =
        match Option.bind (Json.member "traceEvents" export) Json.to_list with
        | Some evs -> evs
        | None -> Alcotest.fail "export has no traceEvents"
      in
      (* (name, id, parent, op, shard) of every begin event. *)
      let begins =
        List.filter_map
          (fun e ->
            let text k = Option.bind (Json.member k e) Json.to_text in
            let arg k =
              Option.bind
                (Option.bind (Json.member "args" e) (Json.member k))
                Json.to_text
            in
            match (text "ph", text "name") with
            | Some "B", Some name ->
                Some (name, arg "id", arg "parent", arg "op", arg "shard")
            | _ -> None)
          events
      in
      let find_one what pred =
        match
          List.filter (fun (_, _, _, _, _ as b) -> pred b) begins
        with
        | [ (_, Some id, _, _, _) ] -> id
        | [] -> Alcotest.failf "no %s span" what
        | _ :: _ -> Alcotest.failf "ambiguous or id-less %s span" what
      in
      let client_drain =
        find_one "client.drain" (fun (name, _, _, _, _) ->
            name = "client.drain")
      in
      let net_request =
        find_one "net.request[drain]" (fun (name, _, parent, op, _) ->
            name = "net.request"
            && parent = Some client_drain
            && op = Some "drain")
      in
      let group_drain =
        find_one "group.drain under net.request"
          (fun (name, _, parent, _, _) ->
            name = "group.drain" && parent = Some net_request)
      in
      let shard_drains =
        List.filter_map
          (fun (name, _, parent, _, shard) ->
            if name = "shard.drain" && parent = Some group_drain then shard
            else None)
          begins
      in
      Alcotest.(check (list string))
        "both shards drained under the stitched group drain"
        [ "0"; "1" ]
        (List.sort compare shard_drains))

(* Trace_req over the wire: empty when the tracer is off, a parseable
   export once it is on. *)
let test_server_trace_fetch () =
  let module Trace = Cdw_obs.Trace in
  let module Json = Cdw_util.Json in
  with_server (fun server _script ->
      let client = Client.connect (Server.sockaddr server) in
      Alcotest.(check string)
        "tracer off: empty export" ""
        (Client.server_trace client);
      Trace.reset ();
      Trace.set_enabled true;
      let text =
        Fun.protect
          ~finally:(fun () ->
            Trace.set_enabled false;
            Trace.reset ())
          (fun () ->
            Client.ping client;
            Client.server_trace client)
      in
      Client.close client;
      match Json.parse text with
      | Error msg -> Alcotest.failf "server trace does not parse: %s" msg
      | Ok json ->
          Alcotest.(check bool)
            "server trace has traceEvents" true
            (Json.member "traceEvents" json <> None))

(* ---------------------------------------------------------------- *)
(* frame fuzzing against a live server *)

let test_torn_frame () =
  with_server (fun server _ ->
      let fd = raw_connect server in
      let frame = Frame.encode (Wire.encode_request Wire.Ping) in
      (* Half a frame, then shut the write half: the server sees a read
         that dies mid-frame — torn, exactly like a torn WAL append. *)
      write_raw fd (String.sub frame 0 (String.length frame - 3));
      Unix.shutdown fd Unix.SHUTDOWN_SEND;
      let r = Wire.reader fd in
      expect_error_reply "torn" r;
      expect_eof "torn closes" r;
      Unix.close fd;
      check_alive server;
      Alcotest.(check bool) "torn counted" true
        (Metrics.counter (Server.metrics server) "net.frames.torn" >= 1))

let test_bit_flipped_frame () =
  with_server (fun server _ ->
      let fd = raw_connect server in
      let frame = Bytes.of_string (Frame.encode (Wire.encode_request Wire.Ping)) in
      (* Flip one payload bit: the length still reads fine, the CRC
         does not match — corrupt, the ledger scanner's taxonomy. *)
      let pos = Frame.header_size in
      Bytes.set frame pos (Char.chr (Char.code (Bytes.get frame pos) lxor 0x10));
      write_raw fd (Bytes.to_string frame);
      let r = Wire.reader fd in
      expect_error_reply "bit flip" r;
      expect_eof "corrupt closes" r;
      Unix.close fd;
      check_alive server;
      Alcotest.(check bool) "corrupt counted" true
        (Metrics.counter (Server.metrics server) "net.frames.corrupt" >= 1))

let test_oversized_frame () =
  with_server (fun server _ ->
      let fd = raw_connect server in
      (* A header whose length field claims more than any frame may
         carry: rejected before a single body byte is read or a buffer
         allocated. *)
      let header = Bytes.create Frame.header_size in
      Bytes.set_int32_le header 0 (Int32.of_int (Frame.max_payload + 1));
      Bytes.set_int32_le header 4 0xDEAD_BEEFl;
      write_raw fd (Bytes.to_string header);
      let r = Wire.reader fd in
      expect_error_reply "oversized" r;
      expect_eof "oversized closes" r;
      Unix.close fd;
      check_alive server)

let test_malformed_body_keeps_connection () =
  with_server (fun server _ ->
      let fd = raw_connect server in
      (* An intact frame around a bad payload: the stream is still in
         sync, so the server answers the error and keeps serving on the
         same connection. *)
      write_raw fd (Frame.encode "\x01\xaa");
      let r = Wire.reader fd in
      expect_error_reply "unknown opcode" r;
      write_raw fd (Frame.encode (Wire.encode_request Wire.Ping));
      (match Wire.read_reply r with
      | Ok (Ok Wire.Pong) -> ()
      | _ -> Alcotest.fail "connection should survive a malformed body");
      Unix.close fd;
      check_alive server;
      Alcotest.(check bool) "malformed counted" true
        (Metrics.counter (Server.metrics server) "net.requests.malformed" >= 1))

(* Randomized sweep: mutate valid frames 60 ways (bit flips anywhere,
   truncations, garbage prefixes) and require a framed error or a
   clean close for each — and a healthy server afterwards. *)
let test_fuzz_mutations () =
  with_server (fun server script ->
      let rng = Splitmix.create 0xF0112 in
      let victims =
        [|
          Frame.encode (Wire.encode_request Wire.Ping);
          Frame.encode (Wire.encode_request Wire.Hello);
          Frame.encode
            (Wire.encode_request
               (match script with
               | (user, request) :: _ -> Wire.Submit { user; request }
               | [] -> Wire.Ping));
          Frame.encode (Wire.encode_request (Wire.Forget "mallory"));
        |]
      in
      for _ = 1 to 60 do
        let frame = Bytes.of_string (Splitmix.pick rng victims) in
        let mutated =
          match Splitmix.int rng 3 with
          | 0 ->
              (* flip one bit anywhere, header included *)
              let pos = Splitmix.int rng (Bytes.length frame) in
              let bit = Splitmix.int rng 8 in
              Bytes.set frame pos
                (Char.chr (Char.code (Bytes.get frame pos) lxor (1 lsl bit)));
              Bytes.to_string frame
          | 1 ->
              (* truncate: a torn send *)
              let keep = Splitmix.int rng (Bytes.length frame) in
              Bytes.sub_string frame 0 keep
          | _ ->
              (* garbage where a header should be *)
              String.init
                (Frame.header_size + Splitmix.int rng 8)
                (fun _ -> Char.chr (Splitmix.int rng 256))
        in
        let fd = raw_connect server in
        write_raw fd mutated;
        Unix.shutdown fd Unix.SHUTDOWN_SEND;
        (* Whatever happened, the server must answer with framed
           replies (possibly none before closing) — reading to EOF must
           terminate, and nothing may crash the process. *)
        let r = Wire.reader fd in
        let rec settle guard =
          if guard > 0 then
            match Wire.read_reply r with
            | Ok _ -> settle (guard - 1)
            | Error _ -> ()
        in
        settle 4;
        Unix.close fd
      done;
      check_alive server)

(* ---------------------------------------------------------------- *)
(* the buffered reader: several frames, or part of one, per segment *)

(* A read that would wait forever for bytes the server never sends
   fails the test instead of hanging it. *)
let raw_connect_timed server =
  let fd = raw_connect server in
  Unix.setsockopt_float fd Unix.SO_RCVTIMEO 10.0;
  fd

let ping_frame = Frame.encode (Wire.encode_request Wire.Ping)

let expect_pong name r =
  match Wire.read_reply r with
  | Ok (Ok Wire.Pong) -> ()
  | _ -> Alcotest.failf "%s: expected a Pong" name

let expect_error_prefix name prefix r =
  match Wire.read_reply r with
  | Ok (Ok (Wire.Error_r msg))
    when String.length msg >= String.length prefix
         && String.sub msg 0 (String.length prefix) = prefix ->
      ()
  | Ok (Ok (Wire.Error_r msg)) ->
      Alcotest.failf "%s: expected an error starting %S, got %S" name prefix
        msg
  | _ -> Alcotest.failf "%s: expected a framed Error_r" name

let test_frame_then_torn_in_one_segment () =
  with_server (fun server _ ->
      let fd = raw_connect_timed server in
      write_raw fd (ping_frame ^ String.sub ping_frame 0 5);
      Unix.shutdown fd Unix.SHUTDOWN_SEND;
      let r = Wire.reader fd in
      expect_pong "whole frame before the torn one" r;
      expect_error_prefix "torn second frame" "torn frame: connection closed mid-header" r;
      expect_eof "torn closes" r;
      Unix.close fd;
      check_alive server)

let test_frame_then_corrupt_in_one_segment () =
  with_server (fun server _ ->
      let fd = raw_connect_timed server in
      let flipped = Bytes.of_string ping_frame in
      let pos = Frame.header_size + 1 in
      Bytes.set flipped pos (Char.chr (Char.code (Bytes.get flipped pos) lxor 0x01));
      write_raw fd (ping_frame ^ Bytes.to_string flipped);
      let r = Wire.reader fd in
      expect_pong "intact frame before the corrupt one" r;
      expect_error_prefix "bit-flipped second frame" "corrupt frame: crc mismatch" r;
      expect_eof "corrupt closes" r;
      Unix.close fd;
      check_alive server;
      Alcotest.(check bool) "corrupt counted" true
        (Metrics.counter (Server.metrics server) "net.frames.corrupt" >= 1))

(* One frame in three segments, cut inside the length field and inside
   the body: the reader keeps what it has and waits for the rest. *)
let test_frame_split_across_segments () =
  with_server (fun server _ ->
      let fd = raw_connect_timed server in
      let frame = Frame.encode (Wire.encode_request (Wire.Forget "split-user")) in
      let body_cut = Frame.header_size + 5 in
      Alcotest.(check bool) "the second cut is inside the body" true
        (body_cut < String.length frame);
      write_raw fd (String.sub frame 0 2);
      Unix.sleepf 0.05;
      write_raw fd (String.sub frame 2 (body_cut - 2));
      Unix.sleepf 0.05;
      write_raw fd (String.sub frame body_cut (String.length frame - body_cut));
      let r = Wire.reader fd in
      (match Wire.read_reply r with
      | Ok (Ok Wire.Ack) -> ()
      | _ -> Alcotest.fail "a frame split across segments is served");
      write_raw fd ping_frame;
      expect_pong "the stream stays in sync" r;
      Unix.close fd)

(* The implausible length sits in the second frame of a segment, and
   the client keeps its write side open: only a check on the header
   alone answers before the read timeout. *)
let test_implausible_length_mid_segment () =
  with_server (fun server _ ->
      let fd = raw_connect_timed server in
      let header = Bytes.create Frame.header_size in
      Bytes.set_int32_le header 0 (Int32.of_int (Frame.max_payload + 1));
      Bytes.set_int32_le header 4 0x0BAD_F00Dl;
      write_raw fd (ping_frame ^ Bytes.to_string header ^ "abc");
      let r = Wire.reader fd in
      expect_pong "frame before the implausible one" r;
      expect_error_prefix "implausible length" "corrupt frame: implausible frame length" r;
      expect_eof "implausible length closes" r;
      Unix.close fd;
      check_alive server)

(* A client killed mid-pipeline (socket torn down with submits and a
   drain in flight) must not wedge the server. *)
let test_client_vanishes_mid_stream () =
  with_server (fun server script ->
      let fd = raw_connect server in
      List.iter
        (fun (user, request) ->
          write_raw fd
            (Frame.encode (Wire.encode_request (Wire.Submit { user; request }))))
        script;
      write_raw fd (Frame.encode (Wire.encode_request Wire.Drain));
      (* Vanish without reading a single reply. *)
      Unix.close fd;
      check_alive server;
      (* The next client can still drain what the dead one left behind
         (or nothing, if the server got to it first) — either way the
         serving value is intact. *)
      let client = Client.connect (Server.sockaddr server) in
      ignore (Client.drain client);
      Client.close client)

(* A burst of thousands of submits between drains (one --traffic
   window, say) must not deadlock the connection. Every unread ack
   pins a whole kernel skb, so a few hundred unsettled acks fill the
   server's send buffer and the two peers block writing at each other
   — the client's bounded pipelining (settle past 128 outstanding) is
   what this test pins. Before that bound existed, this test hung. *)
let test_submit_burst_does_not_deadlock () =
  with_server (fun server _script ->
      let client = Client.connect (Server.sockaddr server) in
      let n = 4_000 in
      for i = 1 to n do
        Client.submit client
          ~user:(Printf.sprintf "burst-%02d" (i mod 40))
          (Engine.Add [])
      done;
      let replies = Client.drain client in
      Alcotest.(check int) "every submit answered" n (List.length replies);
      List.iter
        (fun (r : Engine.reply) ->
          match r.Engine.result with
          | Ok () -> ()
          | Error e -> Alcotest.failf "burst reply rejected: %s" e)
        replies;
      Client.close client)

let contains s sub =
  let n = String.length sub in
  let rec go i =
    i + n <= String.length s && (String.sub s i n = sub || go (i + 1))
  in
  go 0

(* Syscalls per frame: a pipelined burst and a drain on one connection
   move many frames per read and per write, and the net.* I/O totals
   say so — in the Prometheus exposition too, which still lints. *)
let test_syscall_accounting () =
  with_server (fun server _script ->
      let client = Client.connect (Server.sockaddr server) in
      let n = 1_000 in
      for i = 1 to n do
        Client.submit client
          ~user:(Printf.sprintf "acct-%02d" (i mod 40))
          (Engine.Add [])
      done;
      let replies = Client.drain client in
      Alcotest.(check int) "every submit answered" n (List.length replies);
      (* The server adds its I/O totals at each flush: the Pong is
         written after the drain's replies were flushed and counted. *)
      Client.ping client;
      let m = Server.metrics server in
      let c key = Metrics.counter m key in
      let ratio a b =
        if c b = 0 then Alcotest.failf "%s is 0" b
        else float_of_int (c a) /. float_of_int (c b)
      in
      Alcotest.(check bool) "frames in >= the burst" true
        (c "net.frames.in" >= n + 1);
      Alcotest.(check bool) "frames out >= acks + drain replies" true
        (c "net.frames.out" >= (2 * n) + 1);
      Alcotest.(check bool)
        (Printf.sprintf "frames out per write >= 8 (%d / %d)"
           (c "net.frames.out") (c "net.writes"))
        true
        (ratio "net.frames.out" "net.writes" >= 8.0);
      Alcotest.(check bool)
        (Printf.sprintf "frames in per read >= 8 (%d / %d)"
           (c "net.frames.in") (c "net.reads"))
        true
        (ratio "net.frames.in" "net.reads" >= 8.0);
      let prom = Client.prometheus client in
      Client.close client;
      List.iter
        (fun name ->
          Alcotest.(check bool) (name ^ " exposed") true
            (contains prom name))
        [ "cdw_net_reads"; "cdw_net_writes"; "cdw_net_frames_in"; "cdw_net_frames_out" ];
      match Result.bind (Cdw_obs.Prom.parse prom) Cdw_obs.Prom.lint with
      | Ok _ -> ()
      | Error msg -> Alcotest.failf "exposition does not lint: %s" msg)

(* Submits still buffered in the client when it closes are sent by the
   close: another client's drain answers every one of them. *)
let test_close_delivers_buffered_submits () =
  with_server (fun server _script ->
      let addr = Server.sockaddr server in
      let first = Client.connect addr in
      let n = 50 in
      for i = 1 to n do
        Client.submit first ~user:(Printf.sprintf "closer-%02d" (i mod 7))
          (Engine.Add [])
      done;
      Client.close first;
      (* The first connection's thread may not have read them yet:
         drain until all are answered, within a deadline. *)
      let second = Client.connect addr in
      let deadline = Unix.gettimeofday () +. 10.0 in
      let rec gather got =
        if got >= n || Unix.gettimeofday () > deadline then got
        else begin
          let replies = Client.drain second in
          List.iter
            (fun (r : Engine.reply) ->
              if r.Engine.result <> Ok () then
                Alcotest.failf "reply for %s rejected" r.Engine.user)
            replies;
          if replies = [] then Unix.sleepf 0.01;
          gather (got + List.length replies)
        end
      in
      let got = gather 0 in
      Client.close second;
      Alcotest.(check int) "every submit sent before close is answered" n got)

(* A submit the server rejects is still reported — by the next call that
   settles acks, even though it left in a segment with its neighbours. *)
let test_rejected_submit_raises_on_settle () =
  let wf, _ = Workbench.workload Workbench.quick in
  let serving = Serving.create ~seed:Workbench.quick.Workbench.seed wf in
  Serving.set_journal serving
    (Some
       (function
       | Engine.Submitted { user = "mallory"; _ } -> failwith "refused"
       | _ -> ()));
  serve serving (fun server ->
      let client = Client.connect (Server.sockaddr server) in
      List.iter
        (fun user -> Client.submit client ~user (Engine.Add []))
        [ "alice"; "mallory"; "bob" ];
      (match Client.drain client with
      | _ -> Alcotest.fail "the rejected submit went unreported"
      | exception Failure msg ->
          Alcotest.(check string) "rejection surfaces on settle"
            "submit rejected: refused" msg);
      Client.close client;
      Alcotest.(check int) "rejection counted" 1
        (Metrics.counter (Server.metrics server) "net.submit.rejected"))

let suite =
  [
    Alcotest.test_case "request codec round-trips" `Quick test_request_roundtrip;
    Alcotest.test_case "reply codec round-trips" `Quick test_reply_roundtrip;
    Alcotest.test_case "malformed payloads are rejected" `Quick
      test_malformed_payloads;
    Alcotest.test_case "hello/ping/forget/metrics/prom over a socket" `Quick
      test_hello_and_ops;
    Alcotest.test_case "differential: wire == in-process, shards x seeds"
      `Quick test_differential_wire_vs_inprocess;
    Alcotest.test_case "differential: traced 0x02 wire == in-process" `Quick
      test_differential_traced;
    Alcotest.test_case "0x01 client against the 0x02 server" `Quick
      test_v1_client_compat;
    Alcotest.test_case "trace stitching: client -> server -> shards" `Quick
      test_trace_stitching;
    Alcotest.test_case "Trace_req fetches the server export" `Quick
      test_server_trace_fetch;
    Alcotest.test_case "torn frame: framed error, connection closed" `Quick
      test_torn_frame;
    Alcotest.test_case "bit-flipped frame: corrupt, connection closed" `Quick
      test_bit_flipped_frame;
    Alcotest.test_case "oversized frame: rejected without allocation" `Quick
      test_oversized_frame;
    Alcotest.test_case "malformed body: error reply, connection survives"
      `Quick test_malformed_body_keeps_connection;
    Alcotest.test_case "fuzz: 60 mutated frames never crash the server"
      `Quick test_fuzz_mutations;
    Alcotest.test_case "client vanishing mid-stream leaves the server healthy"
      `Quick test_client_vanishes_mid_stream;
    Alcotest.test_case "4k-submit burst does not deadlock the connection"
      `Quick test_submit_burst_does_not_deadlock;
    Alcotest.test_case "one segment: a frame, then a torn one" `Quick
      test_frame_then_torn_in_one_segment;
    Alcotest.test_case "one segment: a frame, then a bit-flipped one" `Quick
      test_frame_then_corrupt_in_one_segment;
    Alcotest.test_case "one frame split across three segments" `Quick
      test_frame_split_across_segments;
    Alcotest.test_case "implausible length mid-segment: rejected from the header"
      `Quick test_implausible_length_mid_segment;
    Alcotest.test_case "syscall accounting: >= 8 frames per read and per write"
      `Quick test_syscall_accounting;
    Alcotest.test_case "close sends the submits still buffered" `Quick
      test_close_delivers_buffered_submits;
    Alcotest.test_case "a rejected submit raises on the next settle" `Quick
      test_rejected_submit_raises_on_settle;
  ]
