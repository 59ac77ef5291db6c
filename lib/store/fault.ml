let file_size path = (Unix.stat path).Unix.st_size

let truncate_to path n =
  if n < 0 then invalid_arg "Fault.truncate_to: negative size";
  Unix.truncate path (min n (file_size path))

let truncate_tail path n = truncate_to path (max 0 (file_size path - n))

let with_rw path f =
  let fd = Unix.openfile path [ Unix.O_RDWR ] 0 in
  Fun.protect ~finally:(fun () -> Unix.close fd) (fun () -> f fd)

let flip_bit path ~byte ~bit =
  if bit < 0 || bit > 7 then invalid_arg "Fault.flip_bit: bit out of range";
  let size = file_size path in
  if byte < 0 || byte >= size then
    invalid_arg
      (Printf.sprintf "Fault.flip_bit: byte %d outside file of %d" byte size);
  with_rw path (fun fd ->
      let buf = Bytes.create 1 in
      ignore (Unix.lseek fd byte Unix.SEEK_SET);
      if Unix.read fd buf 0 1 <> 1 then failwith "Fault.flip_bit: short read";
      Bytes.set buf 0
        (Char.chr (Char.code (Bytes.get buf 0) lxor (1 lsl bit)));
      ignore (Unix.lseek fd byte Unix.SEEK_SET);
      if Unix.write fd buf 0 1 <> 1 then failwith "Fault.flip_bit: short write")

let copy_file src dst =
  let ic = open_in_bin src in
  let oc = open_out_bin dst in
  Fun.protect
    ~finally:(fun () ->
      close_in_noerr ic;
      close_out_noerr oc)
    (fun () ->
      let buf = Bytes.create 65536 in
      let rec loop () =
        let n = input ic buf 0 (Bytes.length buf) in
        if n > 0 then begin
          output oc buf 0 n;
          loop ()
        end
      in
      loop ())

let copy_ledger ~src ~dst =
  if not (Sys.file_exists dst) then Unix.mkdir dst 0o755;
  Array.iter
    (fun f ->
      let path = Filename.concat src f in
      if not (Sys.is_directory path) then
        copy_file path (Filename.concat dst f))
    (Sys.readdir src)
