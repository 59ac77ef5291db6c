exception Timeout

let now_ms () = Unix.gettimeofday () *. 1000.0

let time_f f =
  let t0 = now_ms () in
  let x = f () in
  (x, now_ms () -. t0)

let deadline_after_ms budget = now_ms () +. budget

let check_deadline deadline =
  if deadline < infinity && now_ms () >= deadline then raise Timeout
