(* The two ways the benchmark loads the system: as fast as it will go
   (saturated), and at a fixed offered rate on the wall clock (paced).
   One thread generates the load and owns the system under test; over
   the wire it holds exactly one connection.

   Every call into the system is wrapped in a [bench.*] trace span. With
   tracing off a span costs one atomic load, so the untraced runs carry
   them too. *)

module Engine = Cdw_engine.Engine
module Trace = Cdw_obs.Trace

let now = Unix.gettimeofday

type tally = {
  mutable submitted : int;
  mutable rejected : int;  (** submits the system refused *)
  mutable errors : int;  (** error replies *)
  mutable lost : int;  (** accepted submits no drain answered *)
  mutable submit_s : float;  (** wall time inside submit loops *)
  mutable drain_ms : float list;  (** one entry per drain call *)
  mutable migrations : int;
}

let tally () =
  {
    submitted = 0;
    rejected = 0;
    errors = 0;
    lost = 0;
    submit_s = 0.0;
    drain_ms = [];
    migrations = 0;
  }

let failed t = t.rejected + t.errors + t.lost

let submit_one sut (inp : Workloads.inputs) t i =
  t.submitted <- t.submitted + 1;
  match Sut.submit sut ~user:inp.users.(i) inp.requests.(i) with
  | () -> true
  | exception (Failure _ | Invalid_argument _) ->
      t.rejected <- t.rejected + 1;
      false

(* One drain, answering [expected] accepted submits. *)
let drain sut t ~expected =
  let t0 = now () in
  let replies = Trace.span "bench.drain" (fun () -> Sut.drain sut) in
  t.drain_ms <- ((now () -. t0) *. 1000.0) :: t.drain_ms;
  let n =
    List.fold_left
      (fun n (r : Engine.reply) ->
        (match r.Engine.result with
        | Ok () -> ()
        | Error _ -> t.errors <- t.errors + 1);
        n + 1)
      0 replies
  in
  if n < expected then t.lost <- t.lost + (expected - n)

let migrate sut (inp : Workloads.inputs) t =
  Trace.span "bench.migrate" (fun () -> Sut.migrate sut inp.epochs.(t.migrations));
  t.migrations <- t.migrations + 1

(* Stream time at which the next evolve step is due; infinity when the
   workload does not evolve or the schedule is used up. *)
let next_step_ms (inp : Workloads.inputs) ~every t =
  match every with
  | Some e when t.migrations < Array.length inp.epochs ->
      float_of_int (t.migrations + 1) *. e
  | _ -> infinity

let window_ms = 50.0

type saturated = {
  s_tally : tally;
  wall_s : float;
  window_s : float array;
      (** per window, in stream order: wall time of its submits, its
          drain and the evolve steps after it *)
}

(* Saturated: submit every event of one 50 ms window of stream time,
   drain, repeat, as fast as the system allows. Batch boundaries are a
   function of the stream alone, so the final state is deterministic.
   Evolve steps fire at the first drain boundary at or past their stream
   time. *)
let saturated sut (inp : Workloads.inputs) ~n ~every =
  let t = tally () in
  let windows = ref [] in
  let t0 = now () in
  Trace.span "bench.saturated" (fun () ->
      let i = ref 0 in
      while !i < n do
        let w_end =
          (Float.floor (inp.due_ms.(!i) /. window_ms) +. 1.0) *. window_ms
        in
        let ts = now () in
        let accepted = ref 0 in
        Trace.span "bench.submit" (fun () ->
            while !i < n && inp.due_ms.(!i) < w_end do
              if submit_one sut inp t !i then incr accepted;
              incr i
            done);
        t.submit_s <- t.submit_s +. (now () -. ts);
        drain sut t ~expected:!accepted;
        while next_step_ms inp ~every t <= w_end do
          migrate sut inp t
        done;
        windows := (now () -. ts) :: !windows
      done);
  {
    s_tally = t;
    wall_s = now () -. t0;
    window_s = Array.of_list (List.rev !windows);
  }

(* Sleep through most of a long gap, spin through the rest: a sleep
   overshoots by tens of µs, which would land in every latency. *)
let wait_until clock target_ms =
  let rec go () =
    let left = target_ms -. clock () in
    if left > 0.0 then begin
      if left > 1.0 then Unix.sleepf ((left -. 0.5) /. 1000.0)
      else Domain.cpu_relax ();
      go ()
    end
  in
  go ()

type paced = {
  p_tally : tally;
  latency_ms : float array;  (** per request: due time → drain return *)
  lag_ms : float array;  (** per request: due time → submit *)
  backlog_peak : int;  (** most requests one drain answered *)
}

(* Paced: an open loop on the wall clock over the events due before
   [until_ms]. Each event is submitted once due; whenever requests are
   pending they are drained, and each is timed from its due time to the
   return of the drain that answered it, so a stall also charges the
   requests that queued behind it. Evolve steps fire on the wall clock,
   between drains. *)
let paced sut (inp : Workloads.inputs) ~until_ms ~every =
  let n =
    let k = ref 0 in
    while !k < Array.length inp.due_ms && inp.due_ms.(!k) < until_ms do
      incr k
    done;
    !k
  in
  let t = tally () in
  let latency_ms = Array.make n 0.0 and lag_ms = Array.make n 0.0 in
  let backlog_peak = ref 0 in
  let t0 = now () in
  let clock () = (now () -. t0) *. 1000.0 in
  Trace.span "bench.paced" (fun () ->
      let i = ref 0 and first = ref 0 and accepted = ref 0 in
      while !first < n do
        if !first = !i && clock () >= next_step_ms inp ~every t then
          migrate sut inp t
        else begin
          if !i < n && inp.due_ms.(!i) <= clock () then begin
            let ts = now () in
            Trace.span "bench.submit" (fun () ->
                let continue = ref true in
                while !continue && !i < n do
                  let c = clock () in
                  if inp.due_ms.(!i) <= c then begin
                    lag_ms.(!i) <- c -. inp.due_ms.(!i);
                    if submit_one sut inp t !i then incr accepted;
                    incr i
                  end
                  else continue := false
                done);
            t.submit_s <- t.submit_s +. (now () -. ts)
          end;
          if !i > !first then begin
            drain sut t ~expected:!accepted;
            let answered = clock () in
            for k = !first to !i - 1 do
              latency_ms.(k) <- answered -. inp.due_ms.(k)
            done;
            backlog_peak := max !backlog_peak (!i - !first);
            first := !i;
            accepted := 0
          end
          else if !i < n then
            Trace.span "bench.wait" (fun () ->
                wait_until clock
                  (Float.min inp.due_ms.(!i) (next_step_ms inp ~every t)))
        end
      done);
  { p_tally = t; latency_ms; lag_ms; backlog_peak = !backlog_peak }

(* q-quantile of a sample by the nearest-rank rule; 0 when empty. *)
let quantile q a =
  let n = Array.length a in
  if n = 0 then 0.0
  else begin
    let s = Array.copy a in
    Array.sort Float.compare s;
    s.(min (n - 1) (max 0 (int_of_float (Float.ceil (q *. float_of_int n)) - 1)))
  end

let median l =
  let a = Array.of_list l in
  Array.sort Float.compare a;
  let n = Array.length a in
  if n = 0 then 0.0
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0
