(* Tests for the durable consent ledger: CRC/frame primitives, WAL
   scanning, record round-trips, end-to-end journal/recover
   equivalence, fault injection (torn appends, bit rot, truncation at
   every byte boundary of the last record) and crash-safe compaction.

   The central invariant, checked everywhere: however the log is
   damaged, recovery yields exactly the state of a fresh engine fed
   the surviving record prefix. *)

open Cdw_core
module Engine = Cdw_engine.Engine
module Session = Cdw_engine.Session
module Crc32 = Cdw_store.Crc32
module Frame = Cdw_store.Frame
module Record = Cdw_store.Record
module Wal = Cdw_store.Wal
module Store = Cdw_store.Store
module Fault = Cdw_store.Fault
module Generator = Cdw_workload.Generator
module Reach = Cdw_graph.Reach
module Json = Cdw_util.Json

(* ---------------------------------------------------------------- *)
(* Scratch directories                                                *)

let temp_dir =
  let counter = ref 0 in
  fun () ->
    incr counter;
    let dir =
      Filename.concat
        (Filename.get_temp_dir_name ())
        (Printf.sprintf "cdw_store_%d_%d" (Unix.getpid ()) !counter)
    in
    if Sys.file_exists dir then
      Array.iter
        (fun f -> Sys.remove (Filename.concat dir f))
        (Sys.readdir dir)
    else Unix.mkdir dir 0o755;
    dir

let rec rm_rf path =
  match Sys.is_directory path with
  | true ->
      Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
      Unix.rmdir path
  | false -> Sys.remove path
  | exception Sys_error _ -> ()

let with_dir f =
  let dir = temp_dir () in
  Fun.protect ~finally:(fun () -> rm_rf dir) (fun () -> f dir)

(* ---------------------------------------------------------------- *)
(* CRC-32                                                             *)

let test_crc_vectors () =
  Alcotest.(check int) "empty" 0 (Crc32.string "");
  (* The standard IEEE 802.3 check value. *)
  Alcotest.(check int) "123456789" 0xCBF43926 (Crc32.string "123456789");
  let b = Bytes.of_string "xx123456789yy" in
  Alcotest.(check int) "bytes slice" 0xCBF43926
    (Crc32.bytes ~pos:2 ~len:9 b)

(* ---------------------------------------------------------------- *)
(* Frames                                                             *)

let test_frame_roundtrip () =
  let payloads = [ ""; "a"; String.make 300 'z'; "{\"t\":\"drain\",\"n\":3}" ] in
  let buf = String.concat "" (List.map Frame.encode payloads) in
  let rec decode_all pos acc =
    match Frame.decode buf ~pos with
    | Ok (payload, next) -> decode_all next (payload :: acc)
    | Error `Eof -> List.rev acc
    | Error (`Torn e) | Error (`Corrupt e) -> Alcotest.fail e
  in
  Alcotest.(check (list string)) "all payloads back" payloads (decode_all 0 [])

let test_frame_tail_classification () =
  let frame = Frame.encode "hello, ledger" in
  (* Truncating anywhere inside the frame is torn, never corrupt. *)
  for keep = 0 to String.length frame - 1 do
    let cut = String.sub frame 0 keep in
    match (Frame.decode cut ~pos:0, keep) with
    | Error `Eof, 0 -> ()
    | Error (`Torn _), k when k > 0 -> ()
    | Ok _, k -> Alcotest.failf "truncation to %d decoded" k
    | Error `Eof, k -> Alcotest.failf "truncation to %d reported Eof" k
    | Error (`Torn _), k -> Alcotest.failf "empty prefix %d reported torn" k
    | Error (`Corrupt e), k ->
        Alcotest.failf "truncation to %d reported corrupt: %s" k e
  done;
  (* A flipped payload byte is a CRC mismatch. *)
  let damaged = Bytes.of_string frame in
  Bytes.set damaged (Frame.header_size + 2)
    (Char.chr (Char.code (Bytes.get damaged (Frame.header_size + 2)) lxor 1));
  (match Frame.decode (Bytes.to_string damaged) ~pos:0 with
  | Error (`Corrupt _) -> ()
  | _ -> Alcotest.fail "flipped payload byte not flagged as corrupt");
  (* An implausible length field is corruption, not a huge torn read. *)
  let bad_len = Bytes.of_string frame in
  Bytes.set_int32_le bad_len 0 (Int32.of_int (Frame.max_payload + 1));
  match Frame.decode (Bytes.to_string bad_len) ~pos:0 with
  | Error (`Corrupt _) -> ()
  | _ -> Alcotest.fail "implausible length not flagged as corrupt"

(* ---------------------------------------------------------------- *)
(* Records                                                            *)

let test_record_roundtrip () =
  let records =
    [
      Record.Grant { user = "alice"; pairs = [ ("a", "p"); ("#9", "q") ] };
      Record.Withdraw { user = "bob"; pairs = [ ("a", "p") ] };
      Record.Resolve { user = "carol" };
      Record.Session_open { user = "dave" };
      Record.Session_close { user = "dave" };
      Record.Drain { seq = 42 };
    ]
  in
  List.iter
    (fun r ->
      match Record.decode (Record.encode r) with
      | Ok r' ->
          Alcotest.(check bool)
            (Format.asprintf "%a roundtrips" Record.pp r)
            true (r = r')
      | Error e -> Alcotest.fail e)
    records;
  match Record.decode "{\"t\":\"warp\"}" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "unknown record type decoded"

(* ---------------------------------------------------------------- *)
(* WAL                                                                *)

let test_fsync_policy_strings () =
  List.iter
    (fun p ->
      match Wal.fsync_policy_of_string (Wal.fsync_policy_to_string p) with
      | Ok p' -> Alcotest.(check bool) "policy roundtrips" true (p = p')
      | Error e -> Alcotest.fail e)
    [ Wal.Always; Wal.Never; Wal.Every 7 ];
  List.iter
    (fun s ->
      match Wal.fsync_policy_of_string s with
      | Error _ -> ()
      | Ok _ -> Alcotest.failf "%S accepted as fsync policy" s)
    [ "sometimes"; "every:0"; "every:x"; "" ]

let test_wal_roundtrip () =
  with_dir (fun dir ->
      let path = Filename.concat dir "w.log" in
      let payloads = List.init 20 (Printf.sprintf "payload-%03d") in
      let wal = Wal.create ~fsync:(Wal.Every 3) path in
      List.iter (Wal.append wal) payloads;
      Wal.close wal;
      match Wal.scan path with
      | Error e -> Alcotest.fail e
      | Ok scan ->
          Alcotest.(check (list string))
            "payloads back in order" payloads
            (List.map snd scan.Wal.entries);
          Alcotest.(check bool) "clean tail" true (scan.Wal.tail = Wal.Clean);
          Alcotest.(check int) "valid_end is the file size"
            (Unix.stat path).Unix.st_size scan.Wal.valid_end;
          (* Appends resume where the scan left off. *)
          let wal = Wal.open_append path in
          Wal.append wal "late";
          Wal.close wal;
          (match Wal.scan ~from:scan.Wal.valid_end path with
          | Ok s2 ->
              Alcotest.(check (list string))
                "incremental scan" [ "late" ]
                (List.map snd s2.Wal.entries)
          | Error e -> Alcotest.fail e);
          (* A [from] beyond the file is a compacted log, not an error. *)
          match Wal.scan ~from:1_000_000 path with
          | Ok s3 ->
              Alcotest.(check bool) "beyond-eof scan is clean" true
                (s3.Wal.entries = [] && s3.Wal.tail = Wal.Clean)
          | Error e -> Alcotest.fail e)

(* A group commit leaves its appends in user space until it ends, then
   writes them and checks the policy once: [Always] fsyncs if anything
   is unsynced, [Every n] once n appends are, [Never] never. Another
   thread's append inside the group still flushes (the group's frames
   so far included). *)
let test_wal_group_commit () =
  with_dir (fun dir ->
      let size path = (Unix.stat path).Unix.st_size in
      let case name fsync groups expected =
        let path = Filename.concat dir (name ^ ".log") in
        let wal = Wal.create ~fsync path in
        let fsyncs = ref 0 in
        Wal.set_observer wal
          { Wal.on_append = (fun ~bytes:_ -> ()); on_fsync = (fun () -> incr fsyncs) };
        List.iteri
          (fun g n ->
            let before = size path in
            Wal.group_commit wal (fun () ->
                for i = 1 to n do
                  Wal.append wal (Printf.sprintf "%s-%d-%d" name g i)
                done;
                Alcotest.(check int)
                  (Printf.sprintf "%s group %d: nothing written inside" name g)
                  before (size path));
            Alcotest.(check int)
              (Printf.sprintf "%s group %d: all written at its end" name g)
              (Wal.length wal) (size path))
          groups;
        Alcotest.(check int) (name ^ ": fsyncs") expected !fsyncs;
        Wal.close wal
      in
      case "always" Wal.Always [ 3; 0; 2 ] 2;
      case "every" (Wal.Every 4) [ 3; 2; 4 ] 2;
      case "never" Wal.Never [ 5; 5 ] 0;
      let path = Filename.concat dir "threads.log" in
      let wal = Wal.create ~fsync:Wal.Never path in
      Wal.group_commit wal (fun () ->
          Wal.append wal "mine";
          Thread.join (Thread.create (fun () -> Wal.append wal "theirs") ());
          Alcotest.(check int) "another thread's append flushes" (Wal.length wal)
            (size path);
          Wal.append wal "mine again";
          Alcotest.(check bool) "the group's own append stays buffered" true
            (size path < Wal.length wal));
      Wal.close wal;
      match Wal.scan path with
      | Error e -> Alcotest.fail e
      | Ok scan ->
          Alcotest.(check (list string)) "append order on disk"
            [ "mine"; "theirs"; "mine again" ]
            (List.map snd scan.Wal.entries))

(* ---------------------------------------------------------------- *)
(* An engine workload to journal                                      *)

let instance ?(n_vertices = 24) ?(stages = 3) seed =
  Generator.generate ~seed
    {
      Cdw_workload.Gen_params.default with
      Cdw_workload.Gen_params.n_vertices;
      n_constraints = 0;
      stages;
    }

let connected_pairs wf k =
  let g = Workflow.graph wf in
  let all =
    List.concat_map
      (fun s ->
        List.filter_map
          (fun t -> if Reach.exists_path g s t then Some (s, t) else None)
          (Workflow.purposes wf))
      (Workflow.users wf)
  in
  List.filteri (fun i _ -> i < k) all

let state_string engine = Json.to_string (Store.snapshot_state_json engine)

(* The scripted workload every durability test journals: three users,
   adds across two drains, one withdrawal, one invalid request (whose
   error reply must also replay faithfully), one forgotten session. *)
let drive engine pairs =
  let p = Array.of_list pairs in
  Engine.submit engine ~user:"alice" (Engine.Add [ p.(0); p.(1) ]);
  Engine.submit engine ~user:"bob" (Engine.Add [ p.(2) ]);
  Engine.submit engine ~user:"carol" (Engine.Add [ p.(3) ]);
  ignore (Engine.drain engine);
  Engine.submit engine ~user:"alice" (Engine.Withdraw [ p.(1) ]);
  Engine.submit engine ~user:"bob" (Engine.Add [ (9999, 0) ]);
  Engine.submit engine ~user:"bob" Engine.Resolve;
  ignore (Engine.drain engine);
  Engine.forget engine "carol";
  Engine.submit engine ~user:"alice" (Engine.Add [ p.(4) ]);
  ignore (Engine.drain engine)

let journaled_workload ?fsync ?snapshot_every_bytes dir seed =
  let i = instance seed in
  let wf = i.Generator.workflow in
  let pairs = connected_pairs wf 5 in
  Alcotest.(check bool) "enough connected pairs" true (List.length pairs = 5);
  let engine =
    Engine.create ~algorithm:Algorithms.Remove_first_edge ~seed:123 wf
  in
  let store =
    Store.create ?fsync ?snapshot_every_bytes ~dir
      ~algorithm:Algorithms.Remove_first_edge ~seed:123 wf
  in
  Store.attach store engine;
  drive engine pairs;
  (wf, pairs, engine, store)

(* The reference interpreter for prefix-consistency: feed decoded
   records to a fresh engine with plain [Engine] calls — independent
   of [Store.recover]'s replay machinery. *)
let vertex_of wf name =
  match Workflow.vertex_of_name wf name with
  | Some v -> v
  | None -> int_of_string (String.sub name 1 (String.length name - 1))

let apply_records wf records =
  let engine =
    Engine.create ~algorithm:Algorithms.Remove_first_edge ~seed:123 wf
  in
  (* Names resolve against the engine's base *of the moment* — an
     [Epoch_installed] record swaps it mid-stream, like store replay. *)
  let decode pairs =
    let base = Engine.base engine in
    List.map (fun (s, t) -> (vertex_of base s, vertex_of base t)) pairs
  in
  List.iter
    (fun r ->
      match (r : Record.t) with
      | Record.Grant { user; pairs } ->
          Engine.submit engine ~user (Engine.Add (decode pairs))
      | Record.Withdraw { user; pairs } ->
          Engine.submit engine ~user (Engine.Withdraw (decode pairs))
      | Record.Resolve { user } -> Engine.submit engine ~user Engine.Resolve
      | Record.Session_open { user } -> Engine.open_session engine user
      | Record.Session_close { user } -> Engine.forget engine user
      | Record.Drain _ -> ignore (Engine.drain engine)
      | Record.Cut_refined _ ->
          (* Only ledgers of older builds hold these. *)
          Alcotest.fail "hand replay: unexpected Cut_refined record"
      | Record.Epoch_installed { epoch; workflow } -> (
          match Serialize.parse workflow with
          | Ok (ewf, _) -> ignore (Engine.migrate ~epoch engine ewf)
          | Error e -> Alcotest.fail e))
    records;
  if Engine.pending engine > 0 then ignore (Engine.drain engine);
  engine

(* The decodable record prefix of a (possibly damaged) WAL. *)
let surviving_records path =
  match Wal.scan path with
  | Error e -> Alcotest.fail e
  | Ok scan ->
      let rec take acc = function
        | [] -> List.rev acc
        | (_, payload) :: rest -> (
            match Record.decode payload with
            | Ok r -> take (r :: acc) rest
            | Error _ -> List.rev acc)
      in
      take [] scan.Wal.entries

(* Recovery must agree with the reference interpreter on the surviving
   prefix: same per-user constraint sets, and — after forcing a
   re-optimisation everywhere — same consented workflows and utility
   (Remove_first_edge is deterministic). *)
let check_prefix_consistent ~what dir =
  match Store.recover dir with
  | Error e -> Alcotest.failf "%s: recovery failed: %s" what e
  | Ok r ->
      (match Store.current_wal_path dir with
      | Error e -> Alcotest.fail e
      | Ok wal ->
          let wf =
            Cdw_engine.Shared_index.base (Engine.index r.Store.engine)
          in
          let reference =
            if Sys.file_exists wal then apply_records wf (surviving_records wal)
            else apply_records wf []
          in
          Alcotest.(check string)
            (what ^ ": recovered state = reference fold of surviving prefix")
            (state_string reference)
            (state_string r.Store.engine);
          Alcotest.(check (list string))
            (what ^ ": same session set")
            (List.map fst (Engine.sessions reference))
            (List.map fst (Engine.sessions r.Store.engine));
          List.iter
            (fun engine ->
              List.iter
                (fun (user, _) -> Engine.submit engine ~user Engine.Resolve)
                (Engine.sessions engine);
              if Engine.pending engine > 0 then
                ignore (Engine.drain engine))
            [ reference; r.Store.engine ];
          List.iter2
            (fun (user, ref_session) (user', rec_session) ->
              Alcotest.(check string) (what ^ ": same users") user user';
              Alcotest.(check (list int))
                (Printf.sprintf "%s: %s same consented workflow" what user)
                (Test_helpers.live_edge_ids
                   (Workflow.graph (Session.workflow ref_session)))
                (Test_helpers.live_edge_ids
                   (Workflow.graph (Session.workflow rec_session)));
              Alcotest.(check (float 1e-9))
                (Printf.sprintf "%s: %s same utility" what user)
                (Session.utility ref_session)
                (Session.utility rec_session))
            (Engine.sessions reference)
            (Engine.sessions r.Store.engine));
      r

(* ---------------------------------------------------------------- *)
(* End-to-end durability                                              *)

let test_journal_and_recover () =
  with_dir (fun dir ->
      let _wf, _pairs, engine, store = journaled_workload dir 11 in
      Store.close store;
      let r = check_prefix_consistent ~what:"clean shutdown" dir in
      Alcotest.(check bool) "clean tail" true (r.Store.tail = Wal.Clean);
      Alcotest.(check string) "recovered state equals the live engine"
        (state_string engine)
        (state_string r.Store.engine);
      (* And the live engine's own view: carol was forgotten. *)
      Alcotest.(check (list string)) "sessions survive, carol is gone"
        [ "alice"; "bob" ]
        (List.map fst (Engine.sessions r.Store.engine)))

let test_snapshot_mid_stream () =
  with_dir (fun dir ->
      let i = instance 13 in
      let wf = i.Generator.workflow in
      let pairs = connected_pairs wf 5 in
      let engine =
        Engine.create ~algorithm:Algorithms.Remove_first_edge ~seed:123 wf
      in
      let store =
        Store.create ~dir ~algorithm:Algorithms.Remove_first_edge ~seed:123 wf
      in
      Store.attach store engine;
      let p = Array.of_list pairs in
      Engine.submit engine ~user:"alice" (Engine.Add [ p.(0); p.(1) ]);
      Engine.submit engine ~user:"bob" (Engine.Add [ p.(2) ]);
      ignore (Engine.drain engine);
      Store.write_snapshot store engine;
      (* Events after the snapshot replay from the WAL tail. *)
      Engine.submit engine ~user:"alice" (Engine.Withdraw [ p.(0) ]);
      Engine.submit engine ~user:"carol" (Engine.Add [ p.(3) ]);
      ignore (Engine.drain engine);
      Store.close store;
      match Store.recover dir with
      | Error e -> Alcotest.fail e
      | Ok r ->
          Alcotest.(check bool) "snapshot used" true (r.Store.snapshot_users > 0);
          Alcotest.(check bool) "tail replayed" true (r.Store.replayed > 0);
          Alcotest.(check string) "snapshot + tail = live state"
            (state_string engine)
            (state_string r.Store.engine))

let test_snapshot_requires_drained () =
  with_dir (fun dir ->
      let i = instance 17 in
      let wf = i.Generator.workflow in
      let pairs = connected_pairs wf 1 in
      let engine =
        Engine.create ~algorithm:Algorithms.Remove_first_edge ~seed:123 wf
      in
      let store =
        Store.create ~dir ~algorithm:Algorithms.Remove_first_edge ~seed:123 wf
      in
      Store.attach store engine;
      Engine.submit engine ~user:"alice" (Engine.Add pairs);
      (match Store.write_snapshot store engine with
      | exception Invalid_argument _ -> ()
      | () -> Alcotest.fail "snapshot accepted with requests pending");
      ignore (Engine.drain engine);
      Store.write_snapshot store engine;
      Store.close store)

(* The auto-snapshot hook: a tiny threshold must produce a snapshot
   without any explicit call. *)
let test_auto_snapshot () =
  with_dir (fun dir ->
      let i = instance 19 in
      let wf = i.Generator.workflow in
      let pairs = connected_pairs wf 5 in
      let engine =
        Engine.create ~algorithm:Algorithms.Remove_first_edge ~seed:123 wf
      in
      let store =
        Store.create ~snapshot_every_bytes:1 ~dir
          ~algorithm:Algorithms.Remove_first_edge ~seed:123 wf
      in
      Store.attach store engine;
      drive engine pairs;
      Store.close store;
      Alcotest.(check bool) "snapshot file exists" true
        (Sys.file_exists (Store.snapshot_path dir));
      let r = check_prefix_consistent ~what:"auto-snapshot" dir in
      Alcotest.(check string) "recovered = live"
        (state_string engine)
        (state_string r.Store.engine))

(* Concurrent submitters racing journaled drains with an aggressive
   auto-snapshot threshold: the lock-order regression test. The engine
   lock is taken before the store lock on every journaled event, and
   the auto-snapshot must capture engine state before locking the
   store — the old code did the reverse and deadlocked here. Because
   each drain mark is journaled atomically with its queue swap, the
   WAL reproduces the exact live batching, so recovery must equal the
   live engine whatever the interleaving. *)
let test_concurrent_submit_drain () =
  with_dir (fun dir ->
      let i = instance 47 in
      let wf = i.Generator.workflow in
      let pairs = connected_pairs wf 5 in
      Alcotest.(check bool) "enough connected pairs" true
        (List.length pairs = 5);
      let engine =
        Engine.create ~algorithm:Algorithms.Remove_first_edge ~seed:123 wf
      in
      let store =
        Store.create ~snapshot_every_bytes:1 ~dir
          ~algorithm:Algorithms.Remove_first_edge ~seed:123 wf
      in
      Store.attach store engine;
      let p = Array.of_list pairs in
      let submitter user =
        Domain.spawn (fun () ->
            for k = 0 to 149 do
              Engine.submit engine ~user (Engine.Add [ p.(k mod 5) ]);
              if k mod 3 = 0 then
                Engine.submit engine ~user (Engine.Withdraw [ p.(k mod 5) ])
            done)
      in
      let doms = List.map submitter [ "alice"; "bob"; "carol" ] in
      (* Don't start draining before the submitters are live: the test
         is about drains racing submits. *)
      while Engine.pending engine = 0 do
        Domain.cpu_relax ()
      done;
      for _ = 1 to 40 do
        ignore (Engine.drain engine)
      done;
      List.iter Domain.join doms;
      ignore (Engine.drain engine);
      Store.close store;
      Alcotest.(check bool) "auto-snapshot happened" true
        (Sys.file_exists (Store.snapshot_path dir));
      let r = check_prefix_consistent ~what:"concurrent serving" dir in
      Alcotest.(check string) "recovered state equals the live engine"
        (state_string engine)
        (state_string r.Store.engine))

(* ---------------------------------------------------------------- *)
(* Fault injection                                                    *)

(* Truncate the journal at EVERY byte boundary of its last record (and
   a few more cut points inside earlier frames): recovery must succeed
   with the state of the surviving prefix, never crash, never
   misclassify. *)
let test_truncation_sweep () =
  with_dir (fun src ->
      let _ = journaled_workload src 23 in
      let wal_src =
        match Store.current_wal_path src with
        | Ok p -> p
        | Error e -> Alcotest.fail e
      in
      let size = (Unix.stat wal_src).Unix.st_size in
      let entries =
        match Wal.scan wal_src with
        | Ok s -> s.Wal.entries
        | Error e -> Alcotest.fail e
      in
      let last_offset =
        match List.rev entries with (o, _) :: _ -> o | [] -> 0
      in
      (* Every byte of the last record, plus a probe 3 bytes into every
         third earlier frame (truncation there cuts everything after). *)
      let cuts =
        List.init (size - last_offset + 1) (fun k -> last_offset + k)
        @ List.filteri (fun i _ -> i mod 3 = 0) (List.map (fun (o, _) -> o + 3) entries)
      in
      List.iter
        (fun cut ->
          with_dir (fun dst ->
              Fault.copy_ledger ~src ~dst;
              let wal =
                match Store.current_wal_path dst with
                | Ok p -> p
                | Error e -> Alcotest.fail e
              in
              Fault.truncate_to wal cut;
              let r =
                check_prefix_consistent
                  ~what:(Printf.sprintf "truncate@%d" cut)
                  dst
              in
              (* A cut on a frame boundary is clean; anywhere else the
                 tail must be flagged. *)
              let on_boundary =
                cut = size || List.exists (fun (o, _) -> o = cut) entries
              in
              Alcotest.(check bool)
                (Printf.sprintf "truncate@%d tail classification" cut)
                on_boundary
                (r.Store.tail = Wal.Clean)))
        cuts)

(* Flip a bit in every byte of the last record, and probe a few earlier
   bytes: recovery stops at the corruption with the prefix state. *)
let test_bit_flip_sweep () =
  with_dir (fun src ->
      let _ = journaled_workload src 29 in
      let wal_src =
        match Store.current_wal_path src with
        | Ok p -> p
        | Error e -> Alcotest.fail e
      in
      let size = (Unix.stat wal_src).Unix.st_size in
      let entries =
        match Wal.scan wal_src with
        | Ok s -> s.Wal.entries
        | Error e -> Alcotest.fail e
      in
      let last_offset =
        match List.rev entries with (o, _) :: _ -> o | [] -> 0
      in
      let bytes_to_flip =
        List.init (size - last_offset) (fun k -> last_offset + k)
        @ List.filteri (fun i _ -> i mod 5 = 0) (List.map fst entries)
      in
      List.iter
        (fun byte ->
          with_dir (fun dst ->
              Fault.copy_ledger ~src ~dst;
              let wal =
                match Store.current_wal_path dst with
                | Ok p -> p
                | Error e -> Alcotest.fail e
              in
              Fault.flip_bit wal ~byte ~bit:(byte mod 8);
              ignore
                (check_prefix_consistent
                   ~what:(Printf.sprintf "bitflip@%d" byte)
                   dst)))
        bytes_to_flip)

(* [resume] = recover + truncate the damaged tail + keep serving: the
   journal after resume must be a clean extension. *)
let test_resume_after_torn_tail () =
  with_dir (fun dir ->
      let wf, pairs, _engine, store = journaled_workload dir 31 in
      Store.close store;
      let wal =
        match Store.current_wal_path dir with
        | Ok p -> p
        | Error e -> Alcotest.fail e
      in
      Fault.truncate_tail wal 5;
      match Store.resume dir with
      | Error e -> Alcotest.fail e
      | Ok (store, r) ->
          (match r.Store.tail with
          | Wal.Torn _ -> ()
          | t ->
              Alcotest.failf "expected torn tail, got %s"
                (Format.asprintf "%a" Wal.pp_tail t));
          Alcotest.(check int) "tail truncated to the valid prefix"
            r.Store.valid_end
            (Unix.stat wal).Unix.st_size;
          (* Serving continues on the recovered engine. *)
          let p = Array.of_list pairs in
          ignore wf;
          Engine.submit r.Store.engine ~user:"dave" (Engine.Add [ p.(0) ]);
          ignore (Engine.drain r.Store.engine);
          Store.close store;
          let r2 = check_prefix_consistent ~what:"post-resume" dir in
          Alcotest.(check bool) "clean after resume" true
            (r2.Store.tail = Wal.Clean);
          Alcotest.(check bool) "dave's session persisted" true
            (List.mem_assoc "dave" (Engine.sessions r2.Store.engine)))

(* A snapshot syncs the WAL it covers before it is published, and a
   WAL that still ends below its snapshot's offset (its covered tail
   lost, as an OS crash could under a lax fsync policy) is never
   extended: [resume] rolls to the next generation, so what it serves
   next recovers. *)
let test_resume_below_snapshot () =
  with_dir (fun dir ->
      let wf = (instance 43).Generator.workflow in
      let p = Array.of_list (connected_pairs wf 7) in
      Alcotest.(check int) "enough connected pairs" 7 (Array.length p);
      let engine =
        Engine.create ~algorithm:Algorithms.Remove_first_edge ~seed:123 wf
      in
      let store =
        Store.create ~fsync:Wal.Never ~dir
          ~algorithm:Algorithms.Remove_first_edge ~seed:123 wf
      in
      Store.attach store engine;
      for u = 0 to 3 do
        Engine.submit engine
          ~user:(Printf.sprintf "u%d" u)
          (Engine.Add [ p.(u) ])
      done;
      ignore (Engine.drain engine);
      let fsyncs () =
        Cdw_engine.Metrics.counter (Engine.metrics engine) "store.wal.fsyncs"
      in
      Alcotest.(check int) "fsync never: no fsync while serving" 0 (fsyncs ());
      Store.write_snapshot store engine;
      Alcotest.(check int) "the snapshot synced the WAL first" 1 (fsyncs ());
      let gen = Store.generation store and offset = Store.wal_length store in
      Store.close store;
      Fault.truncate_to (Store.wal_path dir ~generation:gen) (offset - 30);
      match Store.resume dir with
      | Error e -> Alcotest.fail e
      | Ok (store, r) ->
          Alcotest.(check int) "resume rolled to the next generation" (gen + 1)
            (Store.generation store);
          for u = 4 to 6 do
            Engine.submit r.Store.engine ~user:(Printf.sprintf "u%d" u)
              (Engine.Add [ p.(u) ])
          done;
          ignore (Engine.drain r.Store.engine);
          let served = state_string r.Store.engine in
          Store.close store;
          match Store.recover dir with
          | Error e -> Alcotest.fail e
          | Ok r2 ->
              Alcotest.(check bool) "clean tail" true
                (r2.Store.tail = Wal.Clean);
              Alcotest.(check bool) "the new requests replayed" true
                (r2.Store.replayed > 0);
              Alcotest.(check string) "recovered = served" served
                (state_string r2.Store.engine))

(* ---------------------------------------------------------------- *)
(* Compaction                                                         *)

let test_compact_preserves_state () =
  with_dir (fun dir ->
      let _wf, _pairs, engine, store = journaled_workload dir 37 in
      let before = state_string engine in
      let gen0 = Store.generation store in
      Store.compact store engine;
      Alcotest.(check int) "generation advanced" (gen0 + 1)
        (Store.generation store);
      Alcotest.(check int) "log folded away" 0 (Store.wal_length store);
      Alcotest.(check bool) "old log deleted" false
        (Sys.file_exists (Store.wal_path dir ~generation:gen0));
      Store.close store;
      (match Store.recover dir with
      | Error e -> Alcotest.fail e
      | Ok r ->
          Alcotest.(check int) "nothing to replay" 0 r.Store.replayed;
          Alcotest.(check string) "state preserved byte-for-byte" before
            (state_string r.Store.engine);
          (* Compacting the recovered ledger again is a fixpoint. *)
          match Store.resume dir with
          | Error e -> Alcotest.fail e
          | Ok (store2, r2) ->
              Store.compact store2 r2.Store.engine;
              Store.close store2;
              (match Store.recover dir with
              | Error e -> Alcotest.fail e
              | Ok r3 ->
                  Alcotest.(check string) "second compaction is a fixpoint"
                    before
                    (state_string r3.Store.engine))))

(* Crash windows of compaction: the commit point is the snapshot
   rename. Simulate "new WAL created but snapshot not renamed" by
   creating a spurious next-generation log — recovery must ignore it
   and read the old generation. *)
let test_compact_crash_window () =
  with_dir (fun dir ->
      let _wf, _pairs, engine, store = journaled_workload dir 41 in
      let before = state_string engine in
      let gen = Store.generation store in
      Store.close store;
      (* The crash: gen+1 WAL exists, snapshot still points at gen. *)
      let stray = Wal.create (Store.wal_path dir ~generation:(gen + 1)) in
      Wal.close stray;
      (match Store.recover dir with
      | Error e -> Alcotest.fail e
      | Ok r ->
          Alcotest.(check int) "still reading the old generation" gen
            r.Store.generation;
          Alcotest.(check string) "state unaffected by the stray log" before
            (state_string r.Store.engine));
      Sys.remove (Store.wal_path dir ~generation:(gen + 1)))

(* After compaction the snapshot covers the whole (empty) log; a scan
   from its offset over the empty file must behave (the "snapshot
   offset beyond WAL" recovery rule). *)
let test_verify_report () =
  with_dir (fun dir ->
      let _wf, _pairs, _engine, store = journaled_workload dir 43 in
      Store.close store;
      (match Store.verify dir with
      | Error e -> Alcotest.fail e
      | Ok report ->
          Alcotest.(check bool) "clean" true (Store.report_clean report);
          Alcotest.(check bool) "records counted" true (report.Store.r_records > 0);
          Alcotest.(check int) "three drains" 3 report.Store.r_drains);
      (* Damage → verify flags it, strictness is the caller's choice. *)
      let wal =
        match Store.current_wal_path dir with
        | Ok p -> p
        | Error e -> Alcotest.fail e
      in
      Fault.truncate_tail wal 3;
      match Store.verify dir with
      | Error e -> Alcotest.fail e
      | Ok report ->
          Alcotest.(check bool) "damage detected" false
            (Store.report_clean report))

(* ---------------------------------------------------------------- *)
(* A ledger written by an older build                                 *)

(* [fixtures/refined-ledger] was journaled by a build that still ran
   the anytime refiner (remove-last-edge, 2 shards, under a memory cap
   that parked most refined users); [fixtures/refined-ledger.state] is
   that build's [cdw store replay --state] output for it. Its
   [Cut_refined] and session [open] records must still replay to
   exactly that state. *)
let test_old_ledger_replays () =
  let module Serving = Cdw_shard.Serving in
  let fixture = "fixtures/refined-ledger" in
  let expected =
    In_channel.with_open_bin "fixtures/refined-ledger.state"
      In_channel.input_all
  in
  let shards = [ "shard-0"; "shard-1" ] in
  let records =
    List.concat_map
      (fun d ->
        surviving_records (Filename.concat fixture (d ^ "/wal-000000.log")))
      shards
  in
  let count p = List.length (List.filter p records) in
  Alcotest.(check int) "the fixture holds Cut_refined records" 78
    (count (function Record.Cut_refined _ -> true | _ -> false));
  Alcotest.(check int) "the fixture holds open records" 76
    (count (function Record.Session_open _ -> true | _ -> false));
  let root = temp_dir () in
  Fault.copy_ledger ~src:fixture ~dst:root;
  List.iter
    (fun d ->
      Fault.copy_ledger ~src:(Filename.concat fixture d)
        ~dst:(Filename.concat root d))
    shards;
  Fun.protect ~finally:(fun () -> rm_rf root) @@ fun () ->
  match Serving.resume root with
  | Error e -> Alcotest.failf "resume: %s" e
  | Ok r ->
      let state =
        Serving.engines r.Serving.serving
        |> Array.to_list
        |> List.map (fun e ->
               Json.to_string (Store.snapshot_state_json e) ^ "\n")
        |> String.concat ""
      in
      let shards = Serving.shards r.Serving.serving in
      Serving.close r.Serving.serving;
      Alcotest.(check int) "two shards" 2 shards;
      Alcotest.(check (list int)) "no damaged shard" [] r.Serving.damaged;
      Alcotest.(check string) "recovered state is the recorded one" expected
        state

let suite =
  [
    ("crc32 vectors", `Quick, test_crc_vectors);
    ("frame roundtrip", `Quick, test_frame_roundtrip);
    ("frame tail classification", `Quick, test_frame_tail_classification);
    ("record roundtrip", `Quick, test_record_roundtrip);
    ("fsync policy strings", `Quick, test_fsync_policy_strings);
    ("wal roundtrip + incremental scan", `Quick, test_wal_roundtrip);
    ("wal group commit: one write, one policy check", `Quick, test_wal_group_commit);
    ("journal and recover", `Quick, test_journal_and_recover);
    ("snapshot mid-stream", `Quick, test_snapshot_mid_stream);
    ("snapshot requires drained engine", `Quick, test_snapshot_requires_drained);
    ("auto-snapshot threshold", `Quick, test_auto_snapshot);
    ("concurrent submitters vs journaled drains", `Quick,
     test_concurrent_submit_drain);
    ("truncation sweep over the last record", `Quick, test_truncation_sweep);
    ("bit-flip sweep over the last record", `Quick, test_bit_flip_sweep);
    ("resume after torn tail", `Quick, test_resume_after_torn_tail);
    ("resume never appends below the snapshot", `Quick,
     test_resume_below_snapshot);
    ("compaction preserves state", `Quick, test_compact_preserves_state);
    ("compaction crash window", `Quick, test_compact_crash_window);
    ("verify report", `Quick, test_verify_report);
    ("a ledger with Cut_refined records replays", `Quick, test_old_ledger_replays);
  ]
