module Timing = Cdw_util.Timing
module Trace = Cdw_obs.Trace

let recommended_domains () =
  min 8 (max 1 (Domain.recommended_domain_count ()))

module Worker = struct
  (* The one-slot mailbox. One mutex and one condition carry both
     directions: the worker waits for [job]/[stopping], the sender for
     [outcome]; every state change broadcasts. [domain] is touched only
     by the worker's one controlling thread. *)
  type 'a t = {
    m : Mutex.t;
    cv : Condition.t;
    mutable job : (unit -> 'a) option;
    mutable stopping : bool;
    mutable outcome : ('a, exn) result option;
    mutable domain : unit Domain.t option;
    init : unit -> unit;
    on_idle : (float -> unit) option;
  }

  let create ?on_idle ~init () =
    {
      m = Mutex.create ();
      cv = Condition.create ();
      job = None;
      stopping = false;
      outcome = None;
      domain = None;
      init;
      on_idle;
    }

  (* Park until a job or the stop order arrives; [None] means stop. *)
  let take w =
    let t0 = if Option.is_none w.on_idle then 0.0 else Timing.now_ms () in
    Mutex.lock w.m;
    while Option.is_none w.job && not w.stopping do
      Condition.wait w.cv w.m
    done;
    let job = w.job in
    w.job <- None;
    Mutex.unlock w.m;
    Option.iter (fun f -> f ((Timing.now_ms () -. t0) *. 1000.0)) w.on_idle;
    job

  let rec loop w =
    match take w with
    | None -> ()
    | Some f ->
        let r = match f () with v -> Ok v | exception e -> Error e in
        Mutex.lock w.m;
        w.outcome <- Some r;
        Condition.broadcast w.cv;
        Mutex.unlock w.m;
        loop w

  let start w =
    if Option.is_none w.domain then begin
      w.stopping <- false;
      w.domain <-
        Some
          (Domain.spawn (fun () ->
               w.init ();
               loop w))
    end

  let send w f =
    start w;
    Mutex.lock w.m;
    w.job <- Some f;
    Condition.broadcast w.cv;
    Mutex.unlock w.m

  let await w =
    Mutex.lock w.m;
    while Option.is_none w.outcome do
      Condition.wait w.cv w.m
    done;
    let r = Option.get w.outcome in
    w.outcome <- None;
    Mutex.unlock w.m;
    r

  let stop w =
    Option.iter
      (fun d ->
        Mutex.lock w.m;
        w.stopping <- true;
        Condition.broadcast w.cv;
        Mutex.unlock w.m;
        Domain.join d;
        w.domain <- None)
      w.domain
end

(* [helpers] park [domains - 1] workers; each spawns its domain on the
   first run that needs it. *)
type t = { helpers : unit Worker.t array }

let create ?(domains = recommended_domains ()) () =
  {
    helpers =
      Array.init (max 1 domains - 1) (fun _ ->
          Worker.create ~init:Trace.prewarm ());
  }

let domains t = Array.length t.helpers + 1

let run t tasks =
  let n = Array.length tasks in
  let width = min (domains t) n in
  if width <= 1 then Array.map (fun f -> f ()) tasks
  else begin
    let results = Array.make n None in
    let next = Atomic.make 0 in
    (* Each result cell has exactly one writer (the domain that claimed
       its index) and is read only after every helper's outcome has
       been awaited, which orders the writes before the reads. *)
    let steal () =
      let continue = ref true in
      while !continue do
        let i = Atomic.fetch_and_add next 1 in
        if i >= n then continue := false
        else
          results.(i) <-
            Some (match tasks.(i) () with
                 | v -> Ok v
                 | exception e -> Error e)
      done
    in
    let helpers = Array.sub t.helpers 0 (width - 1) in
    (* Spawn first: a failed spawn leaves no job outstanding. *)
    Array.iter Worker.start helpers;
    Array.iter (fun w -> Worker.send w steal) helpers;
    steal ();
    (* [steal] catches every task's exception, so an outcome is never
       an error. *)
    Array.iter (fun w -> ignore (Worker.await w : (unit, exn) result)) helpers;
    Array.map
      (function
        | Some (Ok v) -> v
        | Some (Error e) -> raise e
        | None -> assert false)
      results
  end

let close t = Array.iter Worker.stop t.helpers
