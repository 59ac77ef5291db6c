module Trace = Cdw_obs.Trace

type fsync_policy = Always | Every of int | Never

let fsync_policy_of_string s =
  match s with
  | "always" -> Ok Always
  | "never" -> Ok Never
  | _ -> (
      match String.index_opt s ':' with
      | Some i when String.sub s 0 i = "every" -> (
          let n = String.sub s (i + 1) (String.length s - i - 1) in
          match int_of_string_opt n with
          | Some n when n >= 1 -> Ok (Every n)
          | _ -> Error (Printf.sprintf "bad fsync interval %S" n))
      | _ ->
          Error
            (Printf.sprintf
               "unknown fsync policy %S (try: always, never, every:N)" s))

let fsync_policy_to_string = function
  | Always -> "always"
  | Never -> "never"
  | Every n -> Printf.sprintf "every:%d" n

type observer = { on_append : bytes:int -> unit; on_fsync : unit -> unit }

let no_observer = { on_append = (fun ~bytes:_ -> ()); on_fsync = ignore }

type t = {
  oc : out_channel;
  fsync : fsync_policy;
  mutable len : int;
  mutable unsynced : int;  (* appends since the last fsync *)
  mutable closed : bool;
  mutable observer : observer;
  mutable committer : int option;
      (* the thread inside [group_commit]: its appends stay in the
         channel until the group ends *)
  lock : Mutex.t;
}

let with_lock t f =
  Mutex.lock t.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.lock) f

let open_mode truncate =
  let base = [ Open_wronly; Open_creat; Open_binary ] in
  if truncate then Open_trunc :: base else Open_append :: base

let make ?(fsync = Every 32) ~truncate path =
  let oc = open_out_gen (open_mode truncate) 0o644 path in
  {
    oc;
    fsync;
    len = out_channel_length oc;
    unsynced = 0;
    closed = false;
    observer = no_observer;
    committer = None;
    lock = Mutex.create ();
  }

let create ?fsync path = make ?fsync ~truncate:true path
let open_append ?fsync path = make ?fsync ~truncate:false path
let set_observer t observer = with_lock t (fun () -> t.observer <- observer)

let fsync_now t =
  Trace.span "wal.fsync" (fun () ->
      Unix.fsync (Unix.descr_of_out_channel t.oc));
  t.unsynced <- 0;
  t.observer.on_fsync ()

let append t payload =
  let frame = Frame.encode payload in
  Trace.span "wal.append" (fun () ->
      with_lock t (fun () ->
          if t.closed then invalid_arg "Wal.append: log is closed";
          output_string t.oc frame;
          let grouped = t.committer = Some (Thread.id (Thread.self ())) in
          if not grouped then flush t.oc;
          t.len <- t.len + String.length frame;
          t.unsynced <- t.unsynced + 1;
          t.observer.on_append ~bytes:(String.length frame);
          if not grouped then
            match t.fsync with
            | Always -> fsync_now t
            | Every n when t.unsynced >= n -> fsync_now t
            | Every _ | Never -> ()))

(* The group's one write, and its one policy check. Timed as a
   [wal.append] span: it is the appends' path to the kernel. *)
let commit t =
  Trace.span "wal.append" (fun () ->
      with_lock t (fun () ->
          t.committer <- None;
          if not t.closed then begin
            flush t.oc;
            match t.fsync with
            | Always when t.unsynced > 0 -> fsync_now t
            | Every n when t.unsynced >= n -> fsync_now t
            | Always | Every _ | Never -> ()
          end))

let group_commit t f =
  with_lock t (fun () ->
      if t.committer <> None then
        invalid_arg "Wal.group_commit: a group commit is already open";
      t.committer <- Some (Thread.id (Thread.self ())));
  match f () with
  | v ->
      commit t;
      v
  | exception e ->
      let bt = Printexc.get_raw_backtrace () in
      commit t;
      Printexc.raise_with_backtrace e bt

let length t = with_lock t (fun () -> t.len)

let sync t =
  with_lock t (fun () ->
      if not t.closed then begin
        flush t.oc;
        fsync_now t
      end)

let close t =
  with_lock t (fun () ->
      if not t.closed then begin
        flush t.oc;
        fsync_now t;
        close_out t.oc;
        t.closed <- true
      end)

type tail =
  | Clean
  | Torn of { offset : int; reason : string }
  | Corrupt of { offset : int; reason : string }

type scan = { entries : (int * string) list; valid_end : int; tail : tail }

let scan ?(from = 0) path =
  match
    let ic = open_in_bin path in
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  with
  | exception Sys_error msg -> Error msg
  | buf ->
      if from >= String.length buf then
        Ok { entries = []; valid_end = from; tail = Clean }
      else
        let rec loop acc pos =
          match Frame.decode buf ~pos with
          | Ok (payload, next) -> loop ((pos, payload) :: acc) next
          | Error `Eof -> { entries = List.rev acc; valid_end = pos; tail = Clean }
          | Error (`Torn reason) ->
              { entries = List.rev acc; valid_end = pos;
                tail = Torn { offset = pos; reason } }
          | Error (`Corrupt reason) ->
              { entries = List.rev acc; valid_end = pos;
                tail = Corrupt { offset = pos; reason } }
        in
        Ok (loop [] from)

let pp_tail ppf = function
  | Clean -> Format.pp_print_string ppf "clean"
  | Torn { offset; reason } ->
      Format.fprintf ppf "torn tail at byte %d (%s)" offset reason
  | Corrupt { offset; reason } ->
      Format.fprintf ppf "corrupt at byte %d (%s)" offset reason
