type t = {
  emit : unit -> unit;  (* exception-guarded *)
  halt : unit -> unit;  (* raise the stop flag, join the domain *)
  errors : int Atomic.t;
  mutable stopped : bool;
}

let start ?(interval_s = 1.0) emit =
  let interval_s = Float.max 0.05 interval_s in
  let stop_flag = Atomic.make false in
  let errors = Atomic.make 0 in
  let guarded () = try emit () with _ -> Atomic.incr errors in
  (* Sleep in short slices so [stop] is prompt even with long
     intervals. *)
  let rec wait remaining =
    if remaining > 0.0 && not (Atomic.get stop_flag) then begin
      Unix.sleepf (Float.min 0.05 remaining);
      wait (remaining -. 0.05)
    end
  in
  let rec loop () =
    wait interval_s;
    if not (Atomic.get stop_flag) then begin
      guarded ();
      loop ()
    end
  in
  let domain = Domain.spawn loop in
  {
    emit = guarded;
    halt =
      (fun () ->
        Atomic.set stop_flag true;
        Domain.join domain);
    errors;
    stopped = false;
  }

let stop t =
  if not t.stopped then begin
    t.stopped <- true;
    t.halt ();
    t.emit ()
  end

let errors t = Atomic.get t.errors
