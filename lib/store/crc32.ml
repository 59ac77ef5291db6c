(* Built eagerly: a lazy table forced by two domains at once (the
   per-shard recoveries run in parallel) raises [Lazy.Undefined]. *)
let table =
  Array.init 256 (fun n ->
      let c = ref n in
      for _ = 0 to 7 do
        c := if !c land 1 = 1 then 0xEDB88320 lxor (!c lsr 1) else !c lsr 1
      done;
      !c)

let update t crc byte = t.((crc lxor byte) land 0xff) lxor (crc lsr 8)

let bytes ?(pos = 0) ?len b =
  let len = match len with Some l -> l | None -> Bytes.length b - pos in
  if pos < 0 || len < 0 || pos + len > Bytes.length b then
    invalid_arg "Crc32.bytes: slice out of bounds";
  let t = table in
  let c = ref 0xFFFFFFFF in
  for i = pos to pos + len - 1 do
    c := update t !c (Char.code (Bytes.unsafe_get b i))
  done;
  !c lxor 0xFFFFFFFF

let string s = bytes (Bytes.unsafe_of_string s)
