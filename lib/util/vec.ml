type 'a t = {
  mutable data : 'a array;
  mutable len : int;
  mutable dummy : 'a option;
      (* element used to fill freshly grown storage; set on first push *)
}

let create () = { data = [||]; len = 0; dummy = None }

let length v = v.len
let check v i =
  if i < 0 || i >= v.len then
    invalid_arg (Printf.sprintf "Vec: index %d out of bounds [0,%d)" i v.len)

let get v i =
  check v i;
  v.data.(i)

let set v i x =
  check v i;
  v.data.(i) <- x

let grow v x =
  let cap = Array.length v.data in
  let new_cap = if cap = 0 then 8 else 2 * cap in
  let data = Array.make new_cap x in
  Array.blit v.data 0 data 0 v.len;
  v.data <- data

let push v x =
  if v.dummy = None then v.dummy <- Some x;
  if v.len = Array.length v.data then grow v x;
  v.data.(v.len) <- x;
  v.len <- v.len + 1

let iter f v = for i = 0 to v.len - 1 do f v.data.(i) done
let to_array v = Array.sub v.data 0 v.len

let copy v = { data = Array.copy v.data; len = v.len; dummy = v.dummy }
