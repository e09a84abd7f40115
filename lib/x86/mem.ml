(** Sparse paged byte-addressable memory for the emulated address
    space.  Little-endian, 4 KiB pages, allocated on first touch. *)

let page_bits = 12
let page_size = 1 lsl page_bits
let page_mask = page_size - 1

(* Direct-mapped software TLB, keyed by the low page-index bits.  Hot
   loops alternate between code, data-matrix and stack pages, and every
   miss pays a Hashtbl lookup (hash + compare + [Some] allocation).
   Paper-sized matrices stream through hundreds of pages per sweep: on
   a 257x257 Jacobi iteration 8 slots miss 100-170k times, 256 slots
   (1 MiB of reach) 1.5-4k times.  [tlb_misses] counts the slow
   lookups. *)
let tlb_slots = 256

type t = {
  pages : (int, Bytes.t) Hashtbl.t;
  tlb_idx : int array; (* slot = idx land (tlb_slots - 1); -1 = empty *)
  tlb_page : Bytes.t array;
  mutable tlb_misses : int;
}

let create () =
  let p0 = Bytes.make page_size '\000' in
  let pages = Hashtbl.create 64 in
  Hashtbl.replace pages 0 p0;
  let t =
    { pages;
      tlb_idx = Array.make tlb_slots (-1);
      tlb_page = Array.make tlb_slots p0;
      tlb_misses = 0 }
  in
  t.tlb_idx.(0) <- 0;
  t

(** Deep copy for shadow execution: every allocated page is duplicated
    and the clone starts with a cold TLB, so neither side can observe
    writes made through the other. *)
let clone t =
  let pages = Hashtbl.create (max 64 (Hashtbl.length t.pages)) in
  Hashtbl.iter (fun idx p -> Hashtbl.replace pages idx (Bytes.copy p)) t.pages;
  let p0 =
    match Hashtbl.find_opt pages 0 with
    | Some p -> p
    | None ->
      let p = Bytes.make page_size '\000' in
      Hashtbl.replace pages 0 p;
      p
  in
  let c =
    { pages;
      tlb_idx = Array.make tlb_slots (-1);
      tlb_page = Array.make tlb_slots p0;
      tlb_misses = 0 }
  in
  c.tlb_idx.(0) <- 0;
  c

let page t idx =
  let slot = idx land (tlb_slots - 1) in
  if Array.unsafe_get t.tlb_idx slot = idx then Array.unsafe_get t.tlb_page slot
  else begin
    t.tlb_misses <- t.tlb_misses + 1;
    let p =
      match Hashtbl.find_opt t.pages idx with
      | Some p -> p
      | None ->
        let p = Bytes.make page_size '\000' in
        Hashtbl.replace t.pages idx p;
        p
    in
    Array.unsafe_set t.tlb_idx slot idx;
    Array.unsafe_set t.tlb_page slot p;
    p
  end

let read_u8 t a = Char.code (Bytes.get (page t (a lsr page_bits)) (a land page_mask))
let write_u8 t a v =
  Bytes.set (page t (a lsr page_bits)) (a land page_mask)
    (Char.chr (v land 0xff))

let read_u64 t a =
  let off = a land page_mask in
  if off <= page_size - 8 then
    Bytes.get_int64_le (page t (a lsr page_bits)) off
  else begin
    let v = ref 0L in
    for i = 7 downto 0 do
      v := Int64.logor (Int64.shift_left !v 8) (Int64.of_int (read_u8 t (a + i)))
    done;
    !v
  end

let write_u64 t a (v : int64) =
  let off = a land page_mask in
  if off <= page_size - 8 then
    Bytes.set_int64_le (page t (a lsr page_bits)) off v
  else
    for i = 0 to 7 do
      write_u8 t (a + i)
        (Int64.to_int (Int64.shift_right_logical v (8 * i)))
    done

let read_u32 t a =
  let off = a land page_mask in
  if off <= page_size - 4 then
    (* two 16-bit immediate reads: no Int32 boxing on the hot path *)
    let p = page t (a lsr page_bits) in
    Bytes.get_uint16_le p off lor (Bytes.get_uint16_le p (off + 2) lsl 16)
  else
    read_u8 t a lor (read_u8 t (a + 1) lsl 8) lor (read_u8 t (a + 2) lsl 16)
    lor (read_u8 t (a + 3) lsl 24)

let write_u32 t a v =
  let off = a land page_mask in
  if off <= page_size - 4 then begin
    let p = page t (a lsr page_bits) in
    Bytes.set_uint16_le p off (v land 0xFFFF);
    Bytes.set_uint16_le p (off + 2) ((v lsr 16) land 0xFFFF)
  end
  else
    for i = 0 to 3 do
      write_u8 t (a + i) ((v lsr (8 * i)) land 0xff)
    done

let read_u16 t a = read_u8 t a lor (read_u8 t (a + 1) lsl 8)
let write_u16 t a v =
  write_u8 t a (v land 0xff);
  write_u8 t (a + 1) ((v lsr 8) land 0xff)

let read_f64 t a = Int64.float_of_bits (read_u64 t a)
let write_f64 t a v = write_u64 t a (Int64.bits_of_float v)

let write_bytes t a (s : string) =
  String.iteri (fun i c -> write_u8 t (a + i) (Char.code c)) s

let read_bytes t a len = String.init len (fun i -> Char.chr (read_u8 t (a + i)))
