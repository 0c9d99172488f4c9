(* CRC-32 (the IEEE 802.3 polynomial, as in zlib/PNG), slice-by-8.
   Values fit untagged in OCaml's native int on 64-bit platforms, so
   the whole computation is plain land/lxor/lsr on ints. *)

let polynomial = 0xEDB88320

(* [tables.(k * 256 + n)] is the CRC contribution of byte [n] followed
   by [k] zero bytes.  Row 0 is the classic byte-at-a-time table; with
   all eight rows, eight input bytes fold into the running CRC through
   eight independent lookups instead of a chain of eight dependent
   ones. *)
let tables =
  let t = Array.make (8 * 256) 0 in
  for n = 0 to 255 do
    let c = ref n in
    for _ = 0 to 7 do
      c := if !c land 1 = 1 then polynomial lxor (!c lsr 1) else !c lsr 1
    done;
    t.(n) <- !c
  done;
  for i = 256 to (8 * 256) - 1 do
    let prev = t.(i - 256) in
    t.(i) <- (prev lsr 8) lxor t.(prev land 0xFF)
  done;
  t

let word s i = Int32.to_int (String.get_int32_le s i) land 0xFFFFFFFF
let look row byte = Array.unsafe_get tables ((row * 256) + (byte land 0xFF))

let update crc s =
  let len = String.length s in
  let c = ref (crc lxor 0xFFFFFFFF) in
  let i = ref 0 in
  while !i + 8 <= len do
    let lo = !c lxor word s !i and hi = word s (!i + 4) in
    c :=
      look 7 lo
      lxor look 6 (lo lsr 8)
      lxor look 5 (lo lsr 16)
      lxor look 4 (lo lsr 24)
      lxor look 3 hi
      lxor look 2 (hi lsr 8)
      lxor look 1 (hi lsr 16)
      lxor look 0 (hi lsr 24);
    i := !i + 8
  done;
  for j = !i to len - 1 do
    c := look 0 (!c lxor Char.code (String.unsafe_get s j)) lxor (!c lsr 8)
  done;
  !c lxor 0xFFFFFFFF

let string s = update 0 s
