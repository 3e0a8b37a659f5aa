type buf = (int, Bigarray.int_elt, Bigarray.c_layout) Bigarray.Array1.t

type t = { mutable data : buf; mutable len : int }

(* one shared zero-length backing array for every empty slab, so creating a
   slab per vertex costs one small record until the vertex actually queues
   a message *)
let empty_buf : buf = Bigarray.Array1.create Bigarray.int Bigarray.c_layout 0

let create ?(cap = 0) () =
  if cap <= 0 then { data = empty_buf; len = 0 }
  else { data = Bigarray.Array1.create Bigarray.int Bigarray.c_layout cap; len = 0 }

let length t = t.len

let grow t need =
  let cap = Bigarray.Array1.dim t.data in
  if need > cap then begin
    let cap' = ref (max 16 (2 * cap)) in
    while need > !cap' do
      cap' := 2 * !cap'
    done;
    let d = Bigarray.Array1.create Bigarray.int Bigarray.c_layout !cap' in
    if t.len > 0 then
      Bigarray.Array1.blit
        (Bigarray.Array1.sub t.data 0 t.len)
        (Bigarray.Array1.sub d 0 t.len);
    t.data <- d
  end

let get t i =
  if i < 0 || i >= t.len then invalid_arg "Slab.get: index out of bounds";
  Bigarray.Array1.unsafe_get t.data i

let set t i x =
  if i < 0 || i >= t.len then invalid_arg "Slab.set: index out of bounds";
  Bigarray.Array1.unsafe_set t.data i x

let alloc t k =
  if k < 0 then invalid_arg "Slab.alloc: negative size";
  let base = t.len in
  grow t (base + k);
  t.len <- base + k;
  base

let push t x =
  let i = alloc t 1 in
  Bigarray.Array1.unsafe_set t.data i x

let clear t = t.len <- 0

let shift t k =
  if k < 0 || k > t.len then invalid_arg "Slab.shift: range out of bounds";
  let d = t.data in
  for i = 0 to t.len - k - 1 do
    Bigarray.Array1.unsafe_set d i (Bigarray.Array1.unsafe_get d (k + i))
  done;
  t.len <- t.len - k

let blit ~src ~src_pos ~dst ~dst_pos ~len =
  if
    len < 0 || src_pos < 0 || dst_pos < 0
    || src_pos + len > src.len
    || dst_pos + len > dst.len
  then invalid_arg "Slab.blit: range out of bounds";
  (* manual loop: Array1.sub allocates two views; this is the delivery hot
     path and must not *)
  let s = src.data and d = dst.data in
  if src == dst && dst_pos > src_pos then
    for i = len - 1 downto 0 do
      Bigarray.Array1.unsafe_set d (dst_pos + i)
        (Bigarray.Array1.unsafe_get s (src_pos + i))
    done
  else
    for i = 0 to len - 1 do
      Bigarray.Array1.unsafe_set d (dst_pos + i)
        (Bigarray.Array1.unsafe_get s (src_pos + i))
    done

let set_float t i x =
  let b = Int64.bits_of_float x in
  set t i (Int64.to_int (Int64.shift_right_logical b 32));
  set t (i + 1) (Int64.to_int (Int64.logand b 0xFFFFFFFFL))

let get_float t i =
  let hi = get t i and lo = get t (i + 1) in
  Int64.float_of_bits
    (Int64.logor (Int64.shift_left (Int64.of_int hi) 32) (Int64.of_int lo))
