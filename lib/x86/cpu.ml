(** x86-64 emulator: executes decoded instructions against a paged
    memory, tracking a cycle count through {!Cost}.  This is the
    "hardware" on which all five benchmark modes run.

    Two execution engines share the same instruction semantics
    ({!exec}) and therefore the same architectural state and cycle
    accounting:

    - the single-step interpreter ({!step}/{!run_interp}), which
      re-fetches through the per-address decode cache on every
      instruction, and
    - the translation-block engine ({!run}), which pre-decodes
      straight-line superblocks into arrays of translated slots with
      precomputed static cycle costs and executes them with an inner loop
      that touches neither a hash table nor the decoder.  Blocks are
      chained: each block keeps a small inline cache of successor
      blocks, so steady-state loops run entirely inside the code
      cache. *)

open Insn
open Obrew_fault

module Tel = Obrew_telemetry.Telemetry
module Prov = Obrew_provenance.Provenance

(* emulator failures are typed [Err.Emulate] errors *)
let err fmt = Err.fail Err.Emulate fmt

(* engine telemetry: registered counters are direct pointers, so the
   hot loops pay one unconditional increment, never a lookup *)
let c_sb_exec = Tel.counter "sb.blocks_executed"
let c_sb_hit = Tel.counter "sb.cache_hits"
let c_sb_miss = Tel.counter "sb.cache_misses"
let c_sb_chain = Tel.counter "sb.chain_hits"
let c_sb_ic_hit = Tel.counter "sb.ic_hits"
let c_sb_ic_miss = Tel.counter "sb.ic_misses"
let c_sb_flush = Tel.counter "sb.flushes"
let c_sb_trace = Tel.counter "sb.traces_built"
let c_sb_sidexit = Tel.counter "sb.trace_side_exits"
let c_fuse_cmpjcc = Tel.counter "sb.fuse.cmp_jcc"
let c_fl_mat = Tel.counter "sb.flag_materializations"
let c_fl_dead = Tel.counter "sb.flag_dead_writes"
let h_sb_len = Tel.histogram "sb.block_insns"

(** Block kinds: a plain straight-line block, a straight-line block
    whose terminator is a conditional backedge to its own entry (a
    trace candidate), or an already-promoted trace. *)
(* Unboxed 64-bit register files.  Plain [int64 array] cells hold
   pointers to boxed values, so every store pays the GC write barrier
   ([caml_modify]) — measurably the hottest function in the engine.
   Bigarray stores are raw 8-byte writes. *)
module A1 = Bigarray.Array1

type i64buf =
  (int64, Bigarray.int64_elt, Bigarray.c_layout) Bigarray.Array1.t

let i64buf n : i64buf =
  let b = Bigarray.Array1.create Bigarray.Int64 Bigarray.c_layout n in
  Bigarray.Array1.fill b 0L;
  b

type sb_kind = KStraight | KLoopHead | KTrace

(** A pre-decoded superblock: instructions up to and including the
    first control-flow instruction (or a size cap), starting at
    [sb_entry].  Unconditional direct jumps are followed during
    decoding, so a block may cover several disjoint byte ranges
    ([sb_ranges]); hot self-loop blocks are promoted to traces that
    unroll the loop body across the backedge with side-exits.

    A block is an array of execution slots and nothing else: one
    closure per instruction, except that a cmp/test immediately
    followed by a direct jcc shares one predicated slot.  A block built
    while profiling is on ([t.sb_prof]) pairs nothing, and each slot
    closure is wrapped to record its own address's cycles, so one loop
    ({!exec_block}) serves both modes.  Static costs and instruction
    counts are kept as slot-prefix totals: [sb_cost_to.(j)] and
    [sb_insns_to.(j)] cover slots [0 .. j-1], so the last element is
    the whole block's. *)
type sblock = {
  sb_entry : int;
  sb_slots : op_fn array;         (* execution slots *)
  sb_slot_rips : int array;       (* rip after a slot's first insn *)
  sb_cost_to : int array;         (* static cost of the first j slots *)
  sb_insns_to : int array;        (* instructions in the first j slots *)
  sb_exit : op_fn;                (* loop head: side-exit variant of its
                                     final (backedge) slot, placed at
                                     every non-final backedge of a
                                     trace built from it *)
  sb_ranges : (int * int) list;   (* covered byte ranges [lo, hi) *)
  sb_kind : sb_kind;
  mutable sb_execs : int;         (* executions (always counted): drives
                                     trace promotion and the tier
                                     controller's hotness scan *)
  mutable sb_valid : bool;        (* cleared by flush_code *)
  mutable sb_link1 : sblock option; (* chained successors *)
  mutable sb_link2 : sblock option;
  sb_ind : bool;                  (* terminator is an indirect branch
                                     (JmpInd/CallInd/Ret): successors go
                                     through the inline cache below, not
                                     the direct chain links *)
  mutable sb_ic1 : sblock option; (* 2-way inline cache of predicted
                                     targets, MRU first; entries are
                                     revalidated on every transition
                                     (entry match + validity bit) and
                                     replaced on divergent-target
                                     misses *)
  mutable sb_ic2 : sblock option;
}

(* a translated instruction: executes against the CPU state and
   returns the dynamic cycle penalty *)
and op_fn = t -> int

(* Deferred flag state: ALU closures record the operation instead of
   computing all six flags; [materialize] forces the record into the
   eager [zf..af] fields when a flag is actually read. *)
and flag_src = FlEager | FlAdd | FlSub | FlLogic | FlImul

and t = {
  mem : Mem.t;
  regs : i64buf;               (* 16 GPRs + the zero slot [zr] *)
  xlo : i64buf;                (* xmm low halves *)
  xhi : i64buf;                (* xmm high halves *)
  mutable rip : int;
  mutable zf : bool;
  mutable sf : bool;
  mutable cf : bool;
  mutable o_f : bool;          (* overflow flag; `of` is a keyword *)
  mutable pf : bool;
  mutable af : bool;
  mutable fs_base : int;
  mutable gs_base : int;
  mutable cycles : int;
  mutable icount : int;
  code : (int, insn * int) Hashtbl.t; (* decode cache *)
  blocks : (int, sblock) Hashtbl.t;   (* superblock cache, by entry *)
  bcache : sblock array; (* direct-mapped front cache over [blocks]:
                            slot = entry land (len-1); misses fall
                            back to the Hashtbl.  Catches indirect
                            dispatch sites whose many targets thrash
                            the 2-slot inline chain links. *)
  mutable sb_hits : int;
  mutable sb_misses : int;
  mutable sb_flushes : int;
  mutable sb_chained : int;    (* block transitions served by a chain link *)
  mutable sb_ic_hits : int;    (* indirect transitions predicted by an IC *)
  mutable sb_ic_misses : int;  (* indirect transitions that missed the IC *)
  mutable sb_traces : int;     (* blocks promoted to traces *)
  mutable sb_side_exits : int; (* early exits taken out of a trace *)
  mutable fu_cmpjcc : int;     (* cmp/test+jcc pairs created *)
  mutable fl_op : flag_src;    (* pending lazy flag record *)
  mutable fl_w : width;
  flbuf : i64buf;              (* record operands: a, b, result *)
  mutable fl_records : int;    (* lazy flag records created *)
  mutable fl_mats : int;       (* records actually materialized *)
  mutable fl_dead : int;       (* flag writes elided by liveness *)
  mutable pen : int;           (* scratch penalty accumulator of exec *)
  mutable sb_prof : bool;      (* the cached blocks were built for
                                  profiling (see {!run}) *)
  cost : Cost.t;
}

(* [sb_exit] of a block that is not a loop head *)
let no_exit : op_fn = fun _ -> invalid_arg "Cpu: not a loop head"

(* never-valid sentinel filling empty [bcache] slots *)
let dummy_block =
  { sb_entry = -1; sb_slots = [||]; sb_slot_rips = [||];
    sb_cost_to = [| 0 |]; sb_insns_to = [| 0 |]; sb_exit = no_exit;
    sb_ranges = []; sb_kind = KStraight; sb_execs = 0; sb_valid = false;
    sb_link1 = None; sb_link2 = None; sb_ind = false; sb_ic1 = None;
    sb_ic2 = None }

let bcache_slots = 64

(* Register slot 16 always holds 0 and is never written: a missing base
   or index register, and the register part of an immediate operand,
   point at it (see [opnd]). *)
let zr = 16

let create ?(cost = Cost.default) () =
  { mem = Mem.create (); regs = i64buf (zr + 1);
    xlo = i64buf 16; xhi = i64buf 16; rip = 0;
    zf = false; sf = false; cf = false; o_f = false; pf = false; af = false;
    fs_base = 0; gs_base = 0; cycles = 0; icount = 0;
    code = Hashtbl.create 512; blocks = Hashtbl.create 256;
    bcache = Array.make bcache_slots dummy_block;
    sb_hits = 0; sb_misses = 0; sb_flushes = 0; sb_chained = 0;
    sb_ic_hits = 0; sb_ic_misses = 0;
    sb_traces = 0; sb_side_exits = 0;
    fu_cmpjcc = 0;
    fl_op = FlEager; fl_w = W64; flbuf = i64buf 3;
    fl_records = 0; fl_mats = 0; fl_dead = 0;
    pen = 0; sb_prof = false; cost }

(* -------- scalar helpers -------- *)

let addr_mask = (1 lsl 48) - 1

(* The scalar helpers are [@inline]: translated closures call them with
   unboxed [int64]s, and an out-of-line call would box every argument. *)
let[@inline] wmask w =
  match w with
  | W8 -> 0xFFL
  | W16 -> 0xFFFFL
  | W32 -> 0xFFFFFFFFL
  | W64 -> -1L

(* shift that moves bit [width - 1] to bit 63: sign extension is
   [(v lsl sh) asr sh] and the sign test is [v lsl sh < 0] *)
let[@inline] wshift w = 64 - width_bits w

let[@inline] sx sh v = Int64.shift_right (Int64.shift_left v sh) sh
let[@inline] trunc w (v : int64) = Int64.logand v (wmask w)
let[@inline] sext w (v : int64) = sx (wshift w) v
let[@inline] msb w v = Int64.shift_left v (wshift w) < 0L

let[@inline] parity_even (v : int64) =
  let x = Int64.to_int (Int64.logand v 0xFFL) in
  let x = x lxor (x lsr 4) in
  let x = x lxor (x lsr 2) in
  let x = x lxor (x lsr 1) in
  x land 1 = 0

(* -------- register access -------- *)

let get_reg cpu w r = trunc w cpu.regs.{Reg.index r}
let get_reg64 cpu r = cpu.regs.{Reg.index r}

let get_reg8h cpu r =
  Int64.logand (Int64.shift_right_logical cpu.regs.{Reg.index r} 8) 0xFFL

(* width-[w] write to GPR slot [i]: W32 zero-extends, W16/W8 merge *)
let[@inline] wr_gpr cpu w i v =
  match w with
  | W64 -> A1.unsafe_set cpu.regs i v
  | W32 -> A1.unsafe_set cpu.regs i (trunc W32 v)
  | W16 ->
    A1.unsafe_set cpu.regs i
      (Int64.logor
         (Int64.logand (A1.unsafe_get cpu.regs i) 0xFFFFFFFFFFFF0000L)
         (trunc W16 v))
  | W8 ->
    A1.unsafe_set cpu.regs i
      (Int64.logor
         (Int64.logand (A1.unsafe_get cpu.regs i) 0xFFFFFFFFFFFFFF00L)
         (trunc W8 v))

let set_reg cpu w r v = wr_gpr cpu w (Reg.index r) v

let set_reg8h cpu r v =
  let i = Reg.index r in
  cpu.regs.{i} <-
    Int64.logor
      (Int64.logand cpu.regs.{i} 0xFFFFFFFFFFFF00FFL)
      (Int64.shift_left (Int64.logand v 0xFFL) 8)

(* -------- memory access -------- *)

(* full 64-bit effective address (what lea computes).  RIP-relative
   operands resolve against [cpu.rip], which both engines advance to
   the end of the current instruction *before* executing it (see
   {!step} and {!exec_block}), matching hardware semantics where the
   disp32 is relative to the next instruction. *)
let effective cpu (m : mem_addr) : int64 =
  let b =
    match m.base with
    | Some r -> get_reg64 cpu r
    | None -> if m.rip then Int64.of_int cpu.rip else 0L
  in
  let i =
    match m.index with
    | Some (r, s) ->
      Int64.mul (get_reg64 cpu r) (Int64.of_int (scale_factor s))
    | None -> 0L
  in
  let s =
    match m.seg with
    | Some FS -> cpu.fs_base
    | Some GS -> cpu.gs_base
    | None -> 0
  in
  Int64.add (Int64.add b i) (Int64.of_int (m.disp + s))

let resolve cpu (m : mem_addr) = Int64.to_int (effective cpu m) land addr_mask

let load cpu w a =
  match w with
  | W8 -> Int64.of_int (Mem.read_u8 cpu.mem a)
  | W16 -> Int64.of_int (Mem.read_u16 cpu.mem a)
  | W32 -> Int64.of_int (Mem.read_u32 cpu.mem a)
  | W64 -> Mem.read_u64 cpu.mem a

let store cpu w a (v : int64) =
  match w with
  | W8 -> Mem.write_u8 cpu.mem a (Int64.to_int v)
  | W16 -> Mem.write_u16 cpu.mem a (Int64.to_int v)
  | W32 -> Mem.write_u32 cpu.mem a (Int64.to_int (trunc W32 v))
  | W64 -> Mem.write_u64 cpu.mem a v

(* -------- operand access -------- *)

let read_op cpu w = function
  | OReg r -> get_reg cpu w r
  | OReg8H r -> get_reg8h cpu r
  | OMem m -> load cpu w (resolve cpu m)
  | OImm v -> trunc w v

let write_op cpu w op v =
  match op with
  | OReg r -> set_reg cpu w r v
  | OReg8H r -> set_reg8h cpu r v
  | OMem m -> store cpu w (resolve cpu m) v
  | OImm _ -> err "cannot write to an immediate"

(* -------- flags -------- *)

let[@inline] set_szp cpu w r =
  cpu.zf <- trunc w r = 0L;
  cpu.sf <- msb w r;
  cpu.pf <- parity_even r

let[@inline] flags_logic cpu w r =
  set_szp cpu w r;
  cpu.cf <- false;
  cpu.o_f <- false;
  cpu.af <- false

let[@inline] flags_add cpu w cin a b r =
  set_szp cpu w r;
  (if w = W64 then
     cpu.cf <- Int64.unsigned_compare r a < 0 || (cin = 1L && r = a)
   else cpu.cf <- Int64.add (Int64.add a b) cin <> r);
  cpu.o_f <- msb w (Int64.logand (Int64.logxor a r) (Int64.logxor b r));
  cpu.af <- Int64.logand (Int64.logxor (Int64.logxor a b) r) 0x10L <> 0L

let[@inline] flags_sub cpu w cin a b r =
  set_szp cpu w r;
  (let a = trunc w a and b = trunc w b in
   if cin = 1L && b = trunc w (-1L) then cpu.cf <- true
   else cpu.cf <- Int64.unsigned_compare a (Int64.add b cin) < 0);
  cpu.o_f <- msb w (Int64.logand (Int64.logxor a b) (Int64.logxor a r));
  cpu.af <- Int64.logand (Int64.logxor (Int64.logxor a b) r) 0x10L <> 0L

(* Force a pending lazy flag record into the eager flag fields.  The
   invariant: whenever [fl_op <> FlEager], the six flag fields are stale
   and (fl_op, fl_w, flbuf=[a; b; r]) describe the instruction that
   last wrote flags; materializing computes exactly what the eager
   helper would have at execution time.  Every reader of the eager
   fields (cond, exec entry, run exit, fault unwinding) materializes
   first, so lazy evaluation is unobservable. *)
let materialize cpu =
  match cpu.fl_op with
  | FlEager -> ()
  | FlAdd ->
    cpu.fl_op <- FlEager;
    cpu.fl_mats <- cpu.fl_mats + 1;
    Tel.incr_c c_fl_mat;
    flags_add cpu cpu.fl_w 0L (Bigarray.Array1.unsafe_get cpu.flbuf 0) (Bigarray.Array1.unsafe_get cpu.flbuf 1) (Bigarray.Array1.unsafe_get cpu.flbuf 2)
  | FlSub ->
    cpu.fl_op <- FlEager;
    cpu.fl_mats <- cpu.fl_mats + 1;
    Tel.incr_c c_fl_mat;
    flags_sub cpu cpu.fl_w 0L (Bigarray.Array1.unsafe_get cpu.flbuf 0) (Bigarray.Array1.unsafe_get cpu.flbuf 1) (Bigarray.Array1.unsafe_get cpu.flbuf 2)
  | FlLogic ->
    cpu.fl_op <- FlEager;
    cpu.fl_mats <- cpu.fl_mats + 1;
    Tel.incr_c c_fl_mat;
    flags_logic cpu cpu.fl_w (Bigarray.Array1.unsafe_get cpu.flbuf 2)
  | FlImul ->
    cpu.fl_op <- FlEager;
    cpu.fl_mats <- cpu.fl_mats + 1;
    Tel.incr_c c_fl_mat;
    let a = Bigarray.Array1.unsafe_get cpu.flbuf 0 in
    let b = Bigarray.Array1.unsafe_get cpu.flbuf 1 in
    let w = cpu.fl_w in
    let p = Int64.mul a b in
    let r = trunc w p in
    let ovf = sext w r <> p || (w = W64 && a <> 0L && Int64.div p a <> b) in
    set_szp cpu w r;
    cpu.cf <- ovf; cpu.o_f <- ovf; cpu.af <- false

(** Deep-copy the architectural state (registers, flags, segment bases,
    memory) into a fresh CPU for shadow execution.  Pending lazy flags
    are materialized first so the copy needs no [flbuf] transfer.
    Translation caches and statistics start cold — the fork shares no
    mutable structure with the original, so either side can run and
    write freely without the other observing it. *)
let fork (cpu : t) : t =
  materialize cpu;
  let c = { (create ~cost:cpu.cost ()) with mem = Mem.clone cpu.mem } in
  A1.blit cpu.regs c.regs;
  A1.blit cpu.xlo c.xlo;
  A1.blit cpu.xhi c.xhi;
  c.rip <- cpu.rip;
  c.zf <- cpu.zf;
  c.sf <- cpu.sf;
  c.cf <- cpu.cf;
  c.o_f <- cpu.o_f;
  c.pf <- cpu.pf;
  c.af <- cpu.af;
  c.fs_base <- cpu.fs_base;
  c.gs_base <- cpu.gs_base;
  c

let cond cpu c =
  materialize cpu;
  match c with
  | O -> cpu.o_f
  | NO -> not cpu.o_f
  | B -> cpu.cf
  | AE -> not cpu.cf
  | E -> cpu.zf
  | NE -> not cpu.zf
  | BE -> cpu.cf || cpu.zf
  | A -> not (cpu.cf || cpu.zf)
  | S -> cpu.sf
  | NS -> not cpu.sf
  | P -> cpu.pf
  | NP -> not cpu.pf
  | L -> cpu.sf <> cpu.o_f
  | GE -> cpu.sf = cpu.o_f
  | LE -> cpu.zf || cpu.sf <> cpu.o_f
  | G -> (not cpu.zf) && cpu.sf = cpu.o_f

(* -------- inline memory access -------- *)

(* Translated closures open-code the aligned-page fast path of {!Mem}:
   the TLB probe is two loads, and [Bytes.get/set_int64_le] are
   primitives that compile unboxed at the use site, where calling
   [Mem.read_u64] would box its [int64] result on every load.  The
   page-straddling slow paths are assembled from int-valued [Mem] calls,
   so no branch hands back a boxed [int64] either.  The literals
   12/0xFFF/0xFF/0xFF8 are tied to the page and TLB layout by this
   check. *)
let () =
  assert (Mem.page_bits = 12 && Mem.page_size = 4096 && Mem.tlb_slots = 256)

let[@inline] page cpu a =
  let m = cpu.mem in
  let idx = a lsr 12 in
  let slot = idx land 0xFF in
  if Array.unsafe_get m.Mem.tlb_idx slot = idx then
    Array.unsafe_get m.Mem.tlb_page slot
  else Mem.page m idx

let[@inline] load64 cpu a =
  let off = a land 0xFFF in
  if off <= 0xFF8 then Bytes.get_int64_le (page cpu a) off
  else
    Int64.logor
      (Int64.of_int (Mem.read_u32 cpu.mem a))
      (Int64.shift_left (Int64.of_int (Mem.read_u32 cpu.mem (a + 4))) 32)

let[@inline] store64 cpu a v =
  let off = a land 0xFFF in
  if off <= 0xFF8 then Bytes.set_int64_le (page cpu a) off v
  else begin
    Mem.write_u32 cpu.mem a (Int64.to_int v land 0xFFFFFFFF);
    Mem.write_u32 cpu.mem (a + 4)
      (Int64.to_int (Int64.shift_right_logical v 32))
  end

(* zero-extended 32-bit load, as a native int *)
let[@inline] load32 cpu a =
  let off = a land 0xFFF in
  if off <= 0xFFC then
    Int32.to_int (Bytes.get_int32_le (page cpu a) off) land 0xFFFFFFFF
  else Mem.read_u32 cpu.mem a

let[@inline] store32 cpu a v =
  let off = a land 0xFFF in
  if off <= 0xFFC then Bytes.set_int32_le (page cpu a) off (Int32.of_int v)
  else Mem.write_u32 cpu.mem a (v land 0xFFFFFFFF)

let[@inline] load_w cpu w a =
  match w with
  | W64 -> load64 cpu a
  | W32 -> Int64.of_int (load32 cpu a)
  | W16 -> Int64.of_int (Mem.read_u16 cpu.mem a)
  | W8 -> Int64.of_int (Mem.read_u8 cpu.mem a)

let[@inline] store_w cpu w a v =
  match w with
  | W64 -> store64 cpu a v
  | W32 -> store32 cpu a (Int64.to_int v)
  | W16 -> Mem.write_u16 cpu.mem a (Int64.to_int v)
  | W8 -> Mem.write_u8 cpu.mem a (Int64.to_int v)

(* -------- stack -------- *)

let rsp_i = Reg.index Reg.RSP

let[@inline] push64 cpu v =
  let sp = Int64.to_int (A1.unsafe_get cpu.regs rsp_i) - 8 in
  A1.unsafe_set cpu.regs rsp_i (Int64.of_int sp);
  store64 cpu (sp land addr_mask) v

let[@inline] pop64 cpu =
  let sp = Int64.to_int (A1.unsafe_get cpu.regs rsp_i) in
  let v = load64 cpu (sp land addr_mask) in
  A1.unsafe_set cpu.regs rsp_i (Int64.of_int (sp + 8));
  v

(* -------- SSE helpers -------- *)

let f64 (bits : int64) = Int64.float_of_bits bits
let b64 (f : float) = Int64.bits_of_float f

let f32 (bits : int64) =
  Int32.float_of_bits (Int64.to_int32 bits)

let b32 (f : float) =
  Int64.logand (Int64.of_int32 (Int32.bits_of_float f)) 0xFFFFFFFFL

let xop_load64 cpu = function
  | Xr x -> cpu.xlo.{x}
  | Xm m -> Mem.read_u64 cpu.mem (resolve cpu m)

let xop_load128 cpu = function
  | Xr x -> (cpu.xlo.{x}, cpu.xhi.{x})
  | Xm m ->
    let a = resolve cpu m in
    (Mem.read_u64 cpu.mem a, Mem.read_u64 cpu.mem (a + 8))

let xop_load32 cpu = function
  | Xr x -> Int64.logand cpu.xlo.{x} 0xFFFFFFFFL
  | Xm m -> Int64.of_int (Mem.read_u32 cpu.mem (resolve cpu m))

let[@inline] fp_bin op a b =
  match op with
  | FAdd -> a +. b
  | FSub -> a -. b
  | FMul -> a *. b
  | FDiv -> a /. b
  (* x86 min/max semantics: source operand wins on NaN or equality *)
  | FMin -> if a < b then a else b
  | FMax -> if a > b then a else b
  | FSqrt -> sqrt b (* unary: operates on source *)

let lanes32 (lo, hi) = [| trunc W32 lo; Int64.shift_right_logical lo 32;
                          trunc W32 hi; Int64.shift_right_logical hi 32 |]

let pack32 l =
  ( Int64.logor (trunc W32 l.(0)) (Int64.shift_left (trunc W32 l.(1)) 32),
    Int64.logor (trunc W32 l.(2)) (Int64.shift_left (trunc W32 l.(3)) 32) )

let is_16aligned a = a land 15 = 0

(* -------- execution -------- *)

let fetch cpu addr =
  match Hashtbl.find_opt cpu.code addr with
  | Some r -> r
  | None ->
    let r = Decode.decode ~read:(Mem.read_u8 cpu.mem) addr in
    Hashtbl.replace cpu.code addr r;
    r

(* the longest x86-64 instruction: an insn starting up to this many
   bytes before an overwritten range may still cover it *)
let max_insn_len = 15

(** Invalidate the code caches after writing fresh code to memory.
    With [range = (lo, hi)] only decoded instructions and superblocks
    whose bytes overlap [lo, hi) are dropped (plus chain links into
    them, which die with the block's validity bit); without it both
    caches are cleared entirely. *)
let flush_code ?range cpu =
  cpu.sb_flushes <- cpu.sb_flushes + 1;
  Tel.incr_c c_sb_flush;
  if !Tel.enabled then
    Tel.instant "sb.flush"
      ~args:
        (match range with
         | Some (lo, hi) -> Printf.sprintf "0x%x-0x%x" lo hi
         | None -> "all");
  (match range with
   | Some (lo, hi) -> Obrew_observe.Flight.(emit Cache_flush ~a:lo ~b:hi)
   | None -> Obrew_observe.Flight.(emit Cache_flush ~subject:"all"));
  match range with
  | None ->
    Hashtbl.reset cpu.code;
    Hashtbl.iter (fun _ b -> b.sb_valid <- false) cpu.blocks;
    Hashtbl.reset cpu.blocks
  | Some (lo, hi) ->
    let doomed_insns =
      Hashtbl.fold
        (fun a _ acc -> if a > lo - max_insn_len && a < hi then a :: acc else acc)
        cpu.code []
    in
    List.iter (Hashtbl.remove cpu.code) doomed_insns;
    (* a block covers every byte range it decoded instructions from —
       jump-following and traces make these genuinely disjoint, so all
       ranges must be checked, not just the one around the entry *)
    let overlaps b =
      List.exists (fun (blo, bhi) -> bhi > lo && blo < hi) b.sb_ranges
    in
    let doomed_blocks =
      Hashtbl.fold
        (fun e b acc -> if overlaps b then (e, b) :: acc else acc)
        cpu.blocks []
    in
    List.iter
      (fun (e, b) ->
        b.sb_valid <- false;
        Hashtbl.remove cpu.blocks e)
      doomed_blocks

type cache_stats = {
  block_hits : int;      (* superblock served from the cache *)
  block_misses : int;    (* superblock built (pre-decoded) *)
  block_flushes : int;   (* flush_code invocations *)
  block_chained : int;   (* transitions resolved by a chain link *)
  ic_hits : int;         (* indirect transitions predicted by an inline cache *)
  ic_misses : int;       (* indirect transitions that missed the inline cache *)
  blocks_live : int;     (* blocks currently cached *)
  traces_built : int;    (* self-loop blocks promoted to traces *)
  trace_side_exits : int;(* early exits taken out of a trace *)
  fused_pairs : (string * int) list; (* fused pairs created, by pattern *)
  tlb_misses : int;      (* memory accesses that missed the software TLB *)
  flag_records : int;    (* lazy flag records created *)
  flag_materialized : int; (* records forced by an actual flag read *)
  flag_dead_writes : int;  (* flag writes elided by block-local liveness *)
}

let cache_stats cpu =
  { block_hits = cpu.sb_hits; block_misses = cpu.sb_misses;
    block_flushes = cpu.sb_flushes; block_chained = cpu.sb_chained;
    ic_hits = cpu.sb_ic_hits; ic_misses = cpu.sb_ic_misses;
    blocks_live = Hashtbl.length cpu.blocks;
    traces_built = cpu.sb_traces; trace_side_exits = cpu.sb_side_exits;
    fused_pairs = [ ("cmp_jcc", cpu.fu_cmpjcc) ];
    tlb_misses = cpu.mem.Mem.tlb_misses;
    flag_records = cpu.fl_records; flag_materialized = cpu.fl_mats;
    flag_dead_writes = cpu.fl_dead }

(** The engine counters as JSON members, in one schema shared by the
    BENCH_*.json "superblocks" object, the CLI's [--stats-json] export
    and the black-box report's "engine" section (the last two prepend a
    schema_version). *)
let cache_stats_fields s =
  Obrew_telemetry.Json.
    [ ("hits", Int s.block_hits); ("misses", Int s.block_misses);
      ("chained", Int s.block_chained); ("flushes", Int s.block_flushes);
      ("live", Int s.blocks_live); ("traces", Int s.traces_built);
      ("trace_side_exits", Int s.trace_side_exits);
      ("ic_hits", Int s.ic_hits); ("ic_misses", Int s.ic_misses);
      ("fused_pairs",
       Obj (List.map (fun (pat, n) -> (pat, Int n)) s.fused_pairs));
      ("flag_records", Int s.flag_records);
      ("flag_materialized", Int s.flag_materialized);
      ("flag_dead_writes", Int s.flag_dead_writes);
      ("tlb_misses", Int s.tlb_misses) ]

(* whole-block static cost and instruction count: the last prefix total *)
let block_cost b = b.sb_cost_to.(Array.length b.sb_slots)
let block_insns b = b.sb_insns_to.(Array.length b.sb_slots)

(** Fold [f acc entry execs static_cost] over every valid cached
    superblock — the tier controller's hotness scan.  [execs] counts
    executions since the block was translated (a re-translation or
    trace promotion restarts the count, so consumers must treat sums as
    a monotone-per-block but globally lossy signal), [static_cost] is
    the block's static cycle estimate; [execs * static_cost] weights
    hot loop bodies above straight-line glue. *)
let fold_blocks cpu f acc =
  Hashtbl.fold
    (fun e b acc ->
      if b.sb_valid then f acc e b.sb_execs (block_cost b) else acc)
    cpu.blocks acc

let reset_cache_stats cpu =
  cpu.sb_hits <- 0; cpu.sb_misses <- 0;
  cpu.sb_flushes <- 0; cpu.sb_chained <- 0;
  cpu.sb_ic_hits <- 0; cpu.sb_ic_misses <- 0;
  cpu.sb_traces <- 0; cpu.sb_side_exits <- 0;
  cpu.fu_cmpjcc <- 0;
  cpu.mem.Mem.tlb_misses <- 0;
  cpu.fl_records <- 0; cpu.fl_mats <- 0; cpu.fl_dead <- 0

let target_addr = function
  | Abs a -> a
  | Lbl l -> err "cannot execute unresolved label .L%d" l

(* The dynamic penalty (branch direction, vector misalignment) is
   accumulated in [cpu.pen] rather than a local [ref] so that the hot
   loop performs no per-instruction allocation. *)
let exec cpu (i : insn) =
  (* the eager interpreter reads and writes the flag fields directly,
     so any pending lazy record must be forced first *)
  materialize cpu;
  let c = cpu.cost in
  cpu.pen <- 0;
  let check_align16 m =
    let a = resolve cpu m in
    if not (is_16aligned a) then cpu.pen <- cpu.pen + c.unaligned_vec
  in
  (match i with
   | Mov (w, dst, src) -> write_op cpu w dst (read_op cpu w src)
   | Movabs (r, v) -> set_reg cpu W64 r v
   | Movzx (dw, dst, sw, src) -> set_reg cpu dw dst (read_op cpu sw src)
   | Movsx (dw, dst, sw, src) ->
     set_reg cpu dw dst (trunc dw (sext sw (read_op cpu sw src)))
   | Lea (dst, m) -> set_reg cpu W64 dst (effective cpu { m with seg = None })
   | Alu (op, w, dst, src) ->
     let a = read_op cpu w dst in
     let b = read_op cpu w src in
     (match op with
      | Add ->
        let r = trunc w (Int64.add a b) in
        flags_add cpu w 0L a b r;
        write_op cpu w dst r
      | Adc ->
        let cin = if cpu.cf then 1L else 0L in
        let r = trunc w (Int64.add (Int64.add a b) cin) in
        flags_add cpu w cin a b r;
        write_op cpu w dst r
      | Sub ->
        let r = trunc w (Int64.sub a b) in
        flags_sub cpu w 0L a b r;
        write_op cpu w dst r
      | Sbb ->
        let cin = if cpu.cf then 1L else 0L in
        let r = trunc w (Int64.sub (Int64.sub a b) cin) in
        flags_sub cpu w cin a b r;
        write_op cpu w dst r
      | Cmp ->
        let r = trunc w (Int64.sub a b) in
        flags_sub cpu w 0L a b r
      | And ->
        let r = Int64.logand a b in
        flags_logic cpu w r;
        write_op cpu w dst r
      | Or ->
        let r = Int64.logor a b in
        flags_logic cpu w r;
        write_op cpu w dst r
      | Xor ->
        let r = Int64.logxor a b in
        flags_logic cpu w r;
        write_op cpu w dst r)
   | Test (w, a, b) ->
     flags_logic cpu w (Int64.logand (read_op cpu w a) (read_op cpu w b))
   | Imul2 (w, dst, src) ->
     let a = sext w (get_reg cpu w dst) in
     let b = sext w (read_op cpu w src) in
     let p = Int64.mul a b in
     let r = trunc w p in
     let ovf = sext w r <> p ||
               (w = W64 && a <> 0L && Int64.div p a <> b) in
     set_szp cpu w r;
     cpu.cf <- ovf; cpu.o_f <- ovf; cpu.af <- false;
     set_reg cpu w dst r
   | Imul3 (w, dst, src, imm) ->
     let a = sext w (read_op cpu w src) in
     let b = sext w (trunc w imm) in
     let p = Int64.mul a b in
     let r = trunc w p in
     let ovf = sext w r <> p ||
               (w = W64 && a <> 0L && Int64.div p a <> b) in
     set_szp cpu w r;
     cpu.cf <- ovf; cpu.o_f <- ovf; cpu.af <- false;
     set_reg cpu w dst r
   | Idiv (w, src) ->
     let d = sext w (read_op cpu w src) in
     if d = 0L then err "division by zero";
     let dividend =
       match w with
       | W64 ->
         let lo = cpu.regs.{0} and hi = cpu.regs.{2} in
         if hi <> Int64.shift_right lo 63 then
           err "128-bit idiv dividend unsupported";
         lo
       | W32 ->
         let lo = trunc W32 cpu.regs.{0} in
         let hi = trunc W32 cpu.regs.{2} in
         sext W64 (Int64.logor lo (Int64.shift_left hi 32))
       | _ -> err "8/16-bit idiv unsupported"
     in
     let q = Int64.div dividend d in
     let r = Int64.rem dividend d in
     if w = W32 && sext W32 (trunc W32 q) <> q then err "idiv overflow";
     set_reg cpu w Reg.RAX q;
     set_reg cpu w Reg.RDX r
   | Cqo ->
     cpu.regs.{2} <- Int64.shift_right cpu.regs.{0} 63
   | Cdq ->
     let v = Int64.shift_right (sext W32 (trunc W32 cpu.regs.{0})) 31 in
     set_reg cpu W32 Reg.RDX v
   | Shift (op, w, dst, cnt) ->
     let bits = width_bits w in
     let n =
       (match cnt with
        | ShImm n -> n
        | ShCl -> Int64.to_int (trunc W8 cpu.regs.{1}))
       land (if w = W64 then 63 else 31)
     in
     (* count 0 leaves flags alone but the destination write still
        happens architecturally: a W32 write zeroes bits 63:32 *)
     if n = 0 then begin
       let a = read_op cpu w dst in
       write_op cpu w dst a
     end
     else begin
       let a = read_op cpu w dst in
       let r =
         match op with
         | Shl -> trunc w (Int64.shift_left a n)
         | Shr -> if n >= bits then 0L else Int64.shift_right_logical a n
         | Sar ->
           let s = sext w a in
           trunc w (Int64.shift_right s (min n 63))
       in
       (match op with
        | Shl ->
          cpu.cf <-
            n <= bits
            && Int64.logand (Int64.shift_right_logical a (bits - n)) 1L = 1L;
          cpu.o_f <- msb w r <> cpu.cf
        | Shr ->
          cpu.cf <- n <= bits && Int64.logand (Int64.shift_right_logical a (n - 1)) 1L = 1L;
          cpu.o_f <- msb w a
        | Sar ->
          cpu.cf <-
            Int64.logand (Int64.shift_right (sext w a) (min (n - 1) 63)) 1L
            = 1L;
          cpu.o_f <- false);
       set_szp cpu w r;
       write_op cpu w dst r
     end
   | Unop (op, w, dst) ->
     let a = read_op cpu w dst in
     (match op with
      | Neg ->
        let r = trunc w (Int64.neg a) in
        set_szp cpu w r;
        cpu.cf <- a <> 0L;
        cpu.o_f <- msb w (Int64.logand a r);
        write_op cpu w dst r
      | Not -> write_op cpu w dst (trunc w (Int64.lognot a))
      | Inc ->
        let r = trunc w (Int64.add a 1L) in
        let cf = cpu.cf in
        flags_add cpu w 0L a 1L r;
        cpu.cf <- cf;
        write_op cpu w dst r
      | Dec ->
        let r = trunc w (Int64.sub a 1L) in
        let cf = cpu.cf in
        flags_sub cpu w 0L a 1L r;
        cpu.cf <- cf;
        write_op cpu w dst r)
   | Push src -> push64 cpu (read_op cpu W64 src)
   | Pop dst -> write_op cpu W64 dst (pop64 cpu)
   | Leave ->
     cpu.regs.{rsp_i} <- cpu.regs.{Reg.index Reg.RBP};
     cpu.regs.{Reg.index Reg.RBP} <- pop64 cpu
   | Call t ->
     push64 cpu (Int64.of_int cpu.rip);
     cpu.rip <- target_addr t
   | CallInd op ->
     let tgt = Int64.to_int (read_op cpu W64 op) land addr_mask in
     push64 cpu (Int64.of_int cpu.rip);
     cpu.rip <- tgt
   | Ret -> cpu.rip <- Int64.to_int (pop64 cpu) land addr_mask
   | Jmp t -> cpu.rip <- target_addr t
   | JmpInd op -> cpu.rip <- Int64.to_int (read_op cpu W64 op) land addr_mask
   | Jcc (cc, t) ->
     if cond cpu cc then begin
       cpu.rip <- target_addr t;
       cpu.pen <- cpu.pen + c.branch_taken
     end
     else cpu.pen <- cpu.pen + c.branch_not_taken
   | Cmov (cc, w, dst, src) ->
     (* the load happens regardless of the condition *)
     let v = read_op cpu w src in
     if cond cpu cc then set_reg cpu w dst v
     else if w = W32 then set_reg cpu w dst (get_reg cpu W32 dst)
   | Setcc (cc, dst) ->
     write_op cpu W8 dst (if cond cpu cc then 1L else 0L)
   | SseMov (k, dst, src) ->
     (match k, dst, src with
      | (Movsd | Movss), Xr d, Xr s ->
        if k = Movsd then cpu.xlo.{d} <- cpu.xlo.{s}
        else
          cpu.xlo.{d} <-
            Int64.logor
              (Int64.logand cpu.xlo.{d} 0xFFFFFFFF00000000L)
              (Int64.logand cpu.xlo.{s} 0xFFFFFFFFL)
      | Movsd, Xr d, (Xm _ as m) ->
        cpu.xlo.{d} <- xop_load64 cpu m;
        cpu.xhi.{d} <- 0L
      | Movss, Xr d, (Xm _ as m) ->
        cpu.xlo.{d} <- xop_load32 cpu m;
        cpu.xhi.{d} <- 0L
      | Movsd, Xm m, Xr s -> Mem.write_u64 cpu.mem (resolve cpu m) cpu.xlo.{s}
      | Movss, Xm m, Xr s ->
        Mem.write_u32 cpu.mem (resolve cpu m)
          (Int64.to_int (Int64.logand cpu.xlo.{s} 0xFFFFFFFFL))
      | Movq, Xr d, s ->
        cpu.xlo.{d} <- xop_load64 cpu s;
        cpu.xhi.{d} <- 0L
      | Movq, Xm m, Xr s -> Mem.write_u64 cpu.mem (resolve cpu m) cpu.xlo.{s}
      | (Movups | Movupd | Movdqu), Xr d, s ->
        (match s with Xm m -> check_align16 m | Xr _ -> ());
        let lo, hi = xop_load128 cpu s in
        cpu.xlo.{d} <- lo;
        cpu.xhi.{d} <- hi
      | (Movaps | Movapd | Movdqa), Xr d, s ->
        (match s with
         | Xm m ->
           if not (is_16aligned (resolve cpu m)) then
             err "misaligned movaps load"
         | Xr _ -> ());
        let lo, hi = xop_load128 cpu s in
        cpu.xlo.{d} <- lo;
        cpu.xhi.{d} <- hi
      | (Movups | Movupd | Movdqu), Xm m, Xr s ->
        check_align16 m;
        let a = resolve cpu m in
        Mem.write_u64 cpu.mem a cpu.xlo.{s};
        Mem.write_u64 cpu.mem (a + 8) cpu.xhi.{s}
      | (Movaps | Movapd | Movdqa), Xm m, Xr s ->
        let a = resolve cpu m in
        if not (is_16aligned a) then err "misaligned movaps store";
        Mem.write_u64 cpu.mem a cpu.xlo.{s};
        Mem.write_u64 cpu.mem (a + 8) cpu.xhi.{s}
      | _, Xm _, Xm _ -> err "SSE mem-to-mem move")
   | MovqXR (x, r) ->
     cpu.xlo.{x} <- get_reg64 cpu r;
     cpu.xhi.{x} <- 0L
   | MovqRX (r, x) -> set_reg cpu W64 r cpu.xlo.{x}
   | SseArith (op, p, dst, src) ->
     (match p with
      | Sd ->
        let a = f64 cpu.xlo.{dst} in
        let b = f64 (xop_load64 cpu src) in
        cpu.xlo.{dst} <- b64 (fp_bin op a b)
      | Ss ->
        let a = f32 cpu.xlo.{dst} in
        let b = f32 (xop_load32 cpu src) in
        cpu.xlo.{dst} <-
          Int64.logor
            (Int64.logand cpu.xlo.{dst} 0xFFFFFFFF00000000L)
            (b32 (fp_bin op a b))
      | Pd ->
        (match src with Xm m -> check_align16 m | Xr _ -> ());
        let slo, shi = xop_load128 cpu src in
        cpu.xlo.{dst} <- b64 (fp_bin op (f64 cpu.xlo.{dst}) (f64 slo));
        cpu.xhi.{dst} <- b64 (fp_bin op (f64 cpu.xhi.{dst}) (f64 shi))
      | Ps ->
        (match src with Xm m -> check_align16 m | Xr _ -> ());
        let s = lanes32 (xop_load128 cpu src) in
        let d = lanes32 (cpu.xlo.{dst}, cpu.xhi.{dst}) in
        let r =
          Array.init 4 (fun i -> b32 (fp_bin op (f32 d.(i)) (f32 s.(i))))
        in
        let lo, hi = pack32 r in
        cpu.xlo.{dst} <- lo;
        cpu.xhi.{dst} <- hi)
   | SseLogic (op, dst, src) ->
     let slo, shi = xop_load128 cpu src in
     let f =
       match op with
       | Pxor | Xorps | Xorpd -> Int64.logxor
       | Pand | Andps | Andpd -> Int64.logand
       | Por -> Int64.logor
     in
     cpu.xlo.{dst} <- f cpu.xlo.{dst} slo;
     cpu.xhi.{dst} <- f cpu.xhi.{dst} shi
   | Ucomis (p, dst, src) ->
     let a, b =
       if p = Sd then (f64 cpu.xlo.{dst}, f64 (xop_load64 cpu src))
       else (f32 cpu.xlo.{dst}, f32 (xop_load32 cpu src))
     in
     if Float.is_nan a || Float.is_nan b then begin
       cpu.zf <- true; cpu.pf <- true; cpu.cf <- true
     end
     else begin
       cpu.zf <- a = b;
       cpu.pf <- false;
       cpu.cf <- a < b
     end;
     cpu.o_f <- false; cpu.sf <- false; cpu.af <- false
   | Cvtsi2sd (x, w, src) ->
     let v = sext w (read_op cpu w src) in
     cpu.xlo.{x} <- b64 (Int64.to_float v)
   | Cvttsd2si (r, w, src) ->
     let f = f64 (xop_load64 cpu src) in
     let v = Int64.of_float f in (* truncates toward zero *)
     set_reg cpu w r (trunc w v)
   | Cvtsd2ss (x, src) ->
     let f = f64 (xop_load64 cpu src) in
     cpu.xlo.{x} <-
       Int64.logor (Int64.logand cpu.xlo.{x} 0xFFFFFFFF00000000L) (b32 f)
   | Cvtss2sd (x, src) ->
     let f = f32 (xop_load32 cpu src) in
     cpu.xlo.{x} <- b64 f
   | Unpcklpd (x, src) ->
     let slo, _ = xop_load128 cpu src in
     cpu.xhi.{x} <- slo
   | Shufpd (x, src, imm) ->
     let slo, shi = xop_load128 cpu src in
     let dlo, dhi = (cpu.xlo.{x}, cpu.xhi.{x}) in
     cpu.xlo.{x} <- (if imm land 1 = 0 then dlo else dhi);
     cpu.xhi.{x} <- (if imm land 2 = 0 then slo else shi)
   | Padd (w, x, src) ->
     let slo, shi = xop_load128 cpu src in
     (match w with
      | W64 ->
        cpu.xlo.{x} <- Int64.add cpu.xlo.{x} slo;
        cpu.xhi.{x} <- Int64.add cpu.xhi.{x} shi
      | W32 ->
        let s = lanes32 (slo, shi) in
        let d = lanes32 (cpu.xlo.{x}, cpu.xhi.{x}) in
        let r = Array.init 4 (fun i -> trunc W32 (Int64.add d.(i) s.(i))) in
        let lo, hi = pack32 r in
        cpu.xlo.{x} <- lo;
        cpu.xhi.{x} <- hi
      | _ -> err "unsupported padd lane width")
   | Nop _ -> ()
   | Ud2 -> err "ud2 executed"
   | Int3 -> err "int3 executed");
  cpu.pen

let step cpu =
  let a = cpu.rip in
  let i, len = fetch cpu cpu.rip in
  cpu.rip <- cpu.rip + len;
  let penalty = exec cpu i in
  cpu.icount <- cpu.icount + 1;
  let c = Cost.insn_cost cpu.cost i + penalty in
  cpu.cycles <- cpu.cycles + c;
  if !Prov.enabled then Prov.record_insn a c

(* -------- instruction translation -------- *)

(* [translate] pre-compiles one decoded instruction into one flat
   closure.  Operand kinds, register slots, widths, immediates and
   addressing modes are resolved at translation time; the closure body
   then computes addresses, operand values and lazy flag records
   itself.  A translated closure never calls another closure and never
   passes an [int64] across a call that is not inlined — a boxed
   [int64] is one minor-heap allocation per call — so the block
   engine's steady state allocates nothing.  The [@inline] helpers
   below are the vocabulary the bodies are written in; applied to a
   constant operation they fold to straight-line code.  Every closure
   returns the dynamic cycle penalty, exactly like {!exec}, and forms
   that compilers do not emit in hot code simply fall back to [exec]. *)

(* A translation-time operand.  Registers and immediates share one
   formula, [(regs.(r) land m) + k]: a GPR is [(r, width mask, 0)], an
   immediate is [(zr, _, value)].  Memory is [regs.(b) + regs.(i) * s
   + d], a missing base or index pointing at [zr]; a RIP-relative
   displacement is made absolute at translation time, because the
   engine sets [cpu.rip] to the end of the instruction before running
   it.  Segment-relative memory and the legacy high-byte registers only
   take the generic path (segment-relative SSE operands are left to
   [exec]). *)
type opnd =
  | Ri of int * int64 * int64
  | Mm of int * int * int * int
  | Sg of segment * int * int * int * int
  | Hi of int

let addr_parts ~next (m : mem_addr) =
  let b = match m.base with Some r -> Reg.index r | None -> zr in
  let i, s =
    match m.index with
    | Some (r, s) -> (Reg.index r, scale_factor s)
    | None -> (zr, 0)
  in
  (b, i, s, if m.rip then m.disp + next else m.disp)

let opnd ~next w = function
  | OReg r -> Ri (Reg.index r, wmask w, 0L)
  | OImm v -> Ri (zr, 0L, trunc w v)
  | OReg8H r -> Hi (Reg.index r)
  | OMem m ->
    let b, i, s, d = addr_parts ~next m in
    (match m.seg with None -> Mm (b, i, s, d) | Some g -> Sg (g, b, i, s, d))

let[@inline] gpr cpu i = A1.unsafe_get cpu.regs i
let[@inline] set_gpr cpu i v = A1.unsafe_set cpu.regs i v
let[@inline] ri cpu r m k = Int64.add (Int64.logand (gpr cpu r) m) k

(* Native int sums agree with the Int64 path because the final mask to
   48 bits commutes with wrap-around at both 2^63 and 2^64. *)
let[@inline] ea cpu b i s d =
  (Int64.to_int (gpr cpu b) + (Int64.to_int (gpr cpu i) * s) + d)
  land addr_mask

let[@inline] seg_ea cpu g b i s d =
  (ea cpu b i s d + (match g with FS -> cpu.fs_base | GS -> cpu.gs_base))
  land addr_mask

let[@inline] rd cpu w o =
  match o with
  | Ri (r, m, k) -> ri cpu r m k
  | Mm (b, i, s, d) -> load_w cpu w (ea cpu b i s d)
  | Sg (g, b, i, s, d) -> load_w cpu w (seg_ea cpu g b i s d)
  | Hi r -> Int64.logand (Int64.shift_right_logical (gpr cpu r) 8) 0xFFL

let[@inline] wr cpu w o v =
  match o with
  | Ri (r, _, _) ->
    if r = zr then err "cannot write to an immediate" else wr_gpr cpu w r v
  | Mm (b, i, s, d) -> store_w cpu w (ea cpu b i s d) v
  | Sg (g, b, i, s, d) -> store_w cpu w (seg_ea cpu g b i s d) v
  | Hi r ->
    set_gpr cpu r
      (Int64.logor
         (Int64.logand (gpr cpu r) 0xFFFFFFFFFFFF00FFL)
         (Int64.shift_left (Int64.logand v 0xFFL) 8))

(* lazy flag records (see [materialize]) *)
let[@inline] record cpu op w a b r =
  cpu.fl_op <- op; cpu.fl_w <- w;
  A1.unsafe_set cpu.flbuf 0 a;
  A1.unsafe_set cpu.flbuf 1 b;
  A1.unsafe_set cpu.flbuf 2 r;
  cpu.fl_records <- cpu.fl_records + 1

let[@inline] record_logic cpu w r =
  cpu.fl_op <- FlLogic; cpu.fl_w <- w;
  A1.unsafe_set cpu.flbuf 2 r;
  cpu.fl_records <- cpu.fl_records + 1

let[@inline] record_imul cpu w a b =
  cpu.fl_op <- FlImul; cpu.fl_w <- w;
  A1.unsafe_set cpu.flbuf 0 a;
  A1.unsafe_set cpu.flbuf 1 b;
  cpu.fl_records <- cpu.fl_records + 1

(* [a op b] on operands already masked to the width ([m]); records the
   flags unless [live] is false.  [Cmp] returns [a] (nothing is
   written back). *)
let[@inline] alu cpu op live w m a b =
  match op with
  | Add ->
    let r = Int64.logand (Int64.add a b) m in
    if live then record cpu FlAdd w a b r;
    r
  | Sub ->
    let r = Int64.logand (Int64.sub a b) m in
    if live then record cpu FlSub w a b r;
    r
  | Cmp ->
    if live then record cpu FlSub w a b (Int64.logand (Int64.sub a b) m);
    a
  | And ->
    let r = Int64.logand a b in
    if live then record_logic cpu w r;
    r
  | Or ->
    let r = Int64.logor a b in
    if live then record_logic cpu w r;
    r
  | Xor ->
    let r = Int64.logxor a b in
    if live then record_logic cpu w r;
    r
  | Adc | Sbb -> assert false

(* GPR destination, register/immediate source *)
let[@inline] alu_ri cpu op live w m d r k =
  let v = alu cpu op live w m (Int64.logand (gpr cpu d) m) (ri cpu r m k) in
  if op <> Cmp then set_gpr cpu d v

let[@inline] ult a b =
  Int64.logxor a Int64.min_int < Int64.logxor b Int64.min_int

let[@inline] sub_overflows sh a b r =
  Int64.shift_left (Int64.logand (Int64.logxor a b) (Int64.logxor a r)) sh
  < 0L

(* Branch predicates evaluated directly on a comparison's operands: the
   textbook identities between cmp a,b / test a,b flags and the
   condition codes.  Used by the cmp/test+jcc slot, which records the
   lazy flags but never materializes them. *)
let[@inline] sub_holds cc sh a b r =
  match cc with
  | E -> r = 0L
  | NE -> r <> 0L
  | B -> ult a b
  | AE -> not (ult a b)
  | BE -> not (ult b a)
  | A -> ult b a
  | S -> Int64.shift_left r sh < 0L
  | NS -> Int64.shift_left r sh >= 0L
  | L -> sx sh a < sx sh b
  | GE -> sx sh a >= sx sh b
  | LE -> sx sh a <= sx sh b
  | G -> sx sh a > sx sh b
  | O -> sub_overflows sh a b r
  | NO -> not (sub_overflows sh a b r)
  | P -> parity_even r
  | NP -> not (parity_even r)

let[@inline] logic_holds cc sh r =
  match cc with
  | E | BE -> r = 0L
  | NE | A -> r <> 0L
  | B | O -> false
  | AE | NO -> true
  | S | L -> Int64.shift_left r sh < 0L
  | NS | GE -> Int64.shift_left r sh >= 0L
  | LE -> r = 0L || Int64.shift_left r sh < 0L
  | G -> r <> 0L && Int64.shift_left r sh >= 0L
  | P -> parity_even r
  | NP -> not (parity_even r)

let[@inline] fp_bits op a b =
  Int64.bits_of_float
    (fp_bin op (Int64.float_of_bits a) (Int64.float_of_bits b))

let[@inline] xlo cpu x = A1.unsafe_get cpu.xlo x
let[@inline] xhi cpu x = A1.unsafe_get cpu.xhi x
let[@inline] set_xlo cpu x v = A1.unsafe_set cpu.xlo x v
let[@inline] set_xhi cpu x v = A1.unsafe_set cpu.xhi x v

(* packed-double arithmetic on both lanes *)
let[@inline] pd cpu op x lo hi =
  set_xlo cpu x (fp_bits op (xlo cpu x) lo);
  set_xhi cpu x (fp_bits op (xhi cpu x) hi)

let[@inline] sd_mem cpu op x b i s d =
  set_xlo cpu x (fp_bits op (xlo cpu x) (load64 cpu (ea cpu b i s d)))

(* a 16-byte memory source that is not 16-aligned costs [up] *)
let[@inline] pd_mem cpu op x b i s d up =
  let a = ea cpu b i s d in
  pd cpu op x (load64 cpu a) (load64 cpu (a + 8));
  if is_16aligned a then 0 else up

let translate ?(dead_flags = false) ~next (c : Cost.t) (i : insn) : t -> int =
  let live = not dead_flags in
  let opnd w o = opnd ~next w o in
  let mem_ea m = addr_parts ~next m in
  let up = c.unaligned_vec in
  match i with
  (* a dead cmp/test writes nothing but flags: a complete no-op *)
  | Alu (Cmp, _, _, _) | Test _ when dead_flags -> (fun _ -> 0)
  | Alu ((Add | Sub | Cmp | And | Or | Xor) as op, ((W64 | W32) as w),
         OReg d, ((OReg _ | OImm _) as src)) ->
    (* the hottest shape: GPR destination, register or immediate
       source; W32 results are masked, which is the zero extension *)
    let d = Reg.index d and m = wmask w in
    let r, k = match opnd w src with Ri (r, _, k) -> (r, k) | _ -> assert false in
    (match (op, live) with
     | Add, true -> fun cpu -> alu_ri cpu Add true w m d r k; 0
     | Add, false -> fun cpu -> alu_ri cpu Add false w m d r k; 0
     | Sub, true -> fun cpu -> alu_ri cpu Sub true w m d r k; 0
     | Sub, false -> fun cpu -> alu_ri cpu Sub false w m d r k; 0
     | And, true -> fun cpu -> alu_ri cpu And true w m d r k; 0
     | And, false -> fun cpu -> alu_ri cpu And false w m d r k; 0
     | Or, true -> fun cpu -> alu_ri cpu Or true w m d r k; 0
     | Or, false -> fun cpu -> alu_ri cpu Or false w m d r k; 0
     | Xor, true -> fun cpu -> alu_ri cpu Xor true w m d r k; 0
     | Xor, false -> fun cpu -> alu_ri cpu Xor false w m d r k; 0
     | Cmp, _ -> fun cpu -> alu_ri cpu Cmp true w m d r k; 0
     | (Adc | Sbb), _ -> assert false)
  | Alu ((Add | Sub | Cmp | And | Or | Xor) as op, w, dst, src) ->
    let dst = opnd w dst and src = opnd w src and m = wmask w in
    fun cpu ->
      let r = alu cpu op live w m (rd cpu w dst) (rd cpu w src) in
      if op <> Cmp then wr cpu w dst r;
      0
  | Test (w, a, b) ->
    (match (opnd w a, opnd w b) with
     | Ri (ra, ma, ka), Ri (rb, mb, kb) ->
       fun cpu ->
         record_logic cpu w (Int64.logand (ri cpu ra ma ka) (ri cpu rb mb kb));
         0
     | a, b ->
       fun cpu -> record_logic cpu w (Int64.logand (rd cpu w a) (rd cpu w b)); 0)
  | Imul2 (w, dst, src) ->
    (* flags (SF/ZF/PF and the overflow-derived CF/OF) are recorded
       lazily: [FlImul] materialization recomputes the product from the
       sign-extended operands *)
    let d = Reg.index dst and src = opnd w src in
    let m = wmask w and sh = wshift w in
    fun cpu ->
      let a = sx sh (Int64.logand (gpr cpu d) m) in
      let b = sx sh (rd cpu w src) in
      if live then record_imul cpu w a b;
      wr_gpr cpu w d (Int64.logand (Int64.mul a b) m);
      0
  | Imul3 (w, dst, src, imm) ->
    let d = Reg.index dst and m = wmask w and sh = wshift w in
    let b = sx sh (trunc w imm) in
    (match (w, opnd w src) with
     | (W64 | W32), Ri (r, _, k) ->
       fun cpu ->
         let a = sx sh (ri cpu r m k) in
         if live then record_imul cpu w a b;
         set_gpr cpu d (Int64.logand (Int64.mul a b) m);
         0
     | _, src ->
       fun cpu ->
         let a = sx sh (rd cpu w src) in
         if live then record_imul cpu w a b;
         wr_gpr cpu w d (Int64.logand (Int64.mul a b) m);
         0)
  | Mov (w, dst, src) ->
    (* an immediate destination ([d = zr]) takes the generic path,
       whose write raises *)
    (match (w, opnd w dst, opnd w src) with
     | (W64 | W32), Ri (d, _, _), Ri (r, m, k) when d <> zr ->
       fun cpu -> set_gpr cpu d (ri cpu r m k); 0
     | W64, Ri (d, _, _), Mm (b, i, s, dp) when d <> zr ->
       fun cpu -> set_gpr cpu d (load64 cpu (ea cpu b i s dp)); 0
     | W32, Ri (d, _, _), Mm (b, i, s, dp) when d <> zr ->
       fun cpu -> set_gpr cpu d (Int64.of_int (load32 cpu (ea cpu b i s dp))); 0
     | W64, Mm (b, i, s, dp), Ri (r, m, k) ->
       fun cpu -> store64 cpu (ea cpu b i s dp) (ri cpu r m k); 0
     | W32, Mm (b, i, s, dp), Ri (r, m, k) ->
       fun cpu ->
         store32 cpu (ea cpu b i s dp) (Int64.to_int (ri cpu r m k)); 0
     | _, dst, src -> fun cpu -> wr cpu w dst (rd cpu w src); 0)
  | Movabs (r, v) ->
    let d = Reg.index r in
    fun cpu -> set_gpr cpu d v; 0
  | Movzx (dw, d, sw, src) ->
    (* the source read is already zero-extended past [sw] *)
    let d = Reg.index d in
    (match (dw, opnd sw src) with
     | (W64 | W32), Ri (r, m, k) -> fun cpu -> set_gpr cpu d (ri cpu r m k); 0
     | (W64 | W32), src -> fun cpu -> set_gpr cpu d (rd cpu sw src); 0
     | _, src -> fun cpu -> wr_gpr cpu dw d (rd cpu sw src); 0)
  | Movsx (dw, d, sw, src) ->
    let d = Reg.index d and sh = wshift sw and m = wmask dw in
    (match (dw, opnd sw src) with
     | W64, Ri (r, mk, k) -> fun cpu -> set_gpr cpu d (sx sh (ri cpu r mk k)); 0
     | W64, src -> fun cpu -> set_gpr cpu d (sx sh (rd cpu sw src)); 0
     | _, src ->
       fun cpu -> wr_gpr cpu dw d (Int64.logand (sx sh (rd cpu sw src)) m); 0)
  | Lea (dst, m) ->
    (* the full 64-bit effective address; segments do not apply *)
    let d = Reg.index dst and b, i, s, dp = mem_ea m in
    let s = Int64.of_int s and dp = Int64.of_int dp in
    fun cpu ->
      set_gpr cpu d
        (Int64.add (Int64.add (gpr cpu b) (Int64.mul (gpr cpu i) s)) dp);
      0
  | Unop (Inc, w, dst) ->
    let dst = opnd w dst and m = wmask w in
    fun cpu ->
      materialize cpu; (* inc preserves CF: need its live value *)
      let a = rd cpu w dst in
      let r = Int64.logand (Int64.add a 1L) m in
      let cf = cpu.cf in
      flags_add cpu w 0L a 1L r;
      cpu.cf <- cf; wr cpu w dst r; 0
  | Unop (Dec, w, dst) ->
    let dst = opnd w dst and m = wmask w in
    fun cpu ->
      materialize cpu;
      let a = rd cpu w dst in
      let r = Int64.logand (Int64.sub a 1L) m in
      let cf = cpu.cf in
      flags_sub cpu w 0L a 1L r;
      cpu.cf <- cf; wr cpu w dst r; 0
  | Unop (Not, w, dst) ->
    let dst = opnd w dst and m = wmask w in
    fun cpu -> wr cpu w dst (Int64.logand (Int64.lognot (rd cpu w dst)) m); 0
  | Push src ->
    let src = opnd W64 src in
    fun cpu -> push64 cpu (rd cpu W64 src); 0
  | Pop dst ->
    let dst = opnd W64 dst in
    fun cpu -> wr cpu W64 dst (pop64 cpu); 0
  | Call (Abs a) ->
    fun cpu ->
      push64 cpu (Int64.of_int cpu.rip);
      cpu.rip <- a; 0
  | CallInd op ->
    let op = opnd W64 op in
    fun cpu ->
      let tgt = Int64.to_int (rd cpu W64 op) land addr_mask in
      push64 cpu (Int64.of_int cpu.rip);
      cpu.rip <- tgt; 0
  | Ret -> (fun cpu -> cpu.rip <- Int64.to_int (pop64 cpu) land addr_mask; 0)
  | Jmp (Abs a) -> (fun cpu -> cpu.rip <- a; 0)
  | JmpInd op ->
    let op = opnd W64 op in
    fun cpu -> cpu.rip <- Int64.to_int (rd cpu W64 op) land addr_mask; 0
  | Jcc (cc, Abs a) ->
    let taken = c.branch_taken and not_taken = c.branch_not_taken in
    fun cpu ->
      if cond cpu cc then begin cpu.rip <- a; taken end
      else not_taken
  | Cmov (cc, w, dst, src) ->
    let d = Reg.index dst and src = opnd w src in
    fun cpu ->
      (* the load happens regardless of the condition *)
      let v = rd cpu w src in
      if cond cpu cc then wr_gpr cpu w d v
      else if w = W32 then wr_gpr cpu W32 d (gpr cpu d);
      0
  | Setcc (cc, dst) ->
    let dst = opnd W8 dst in
    fun cpu -> wr cpu W8 dst (if cond cpu cc then 1L else 0L); 0
  | SseMov (Movsd, Xr d, Xr s) -> (fun cpu -> set_xlo cpu d (xlo cpu s); 0)
  | SseMov (Movsd, Xr d, Xm ({ seg = None; _ } as m)) ->
    let b, i, s, dp = mem_ea m in
    fun cpu ->
      set_xlo cpu d (load64 cpu (ea cpu b i s dp));
      set_xhi cpu d 0L; 0
  | SseMov (Movsd, Xm ({ seg = None; _ } as m), Xr s) ->
    let b, i, sc, dp = mem_ea m in
    fun cpu -> store64 cpu (ea cpu b i sc dp) (xlo cpu s); 0
  | SseMov (Movq, Xr d, Xr s) ->
    fun cpu -> set_xlo cpu d (xlo cpu s); set_xhi cpu d 0L; 0
  | SseMov ((Movaps | Movapd | Movdqa), Xr d, Xr s) ->
    fun cpu -> set_xlo cpu d (xlo cpu s); set_xhi cpu d (xhi cpu s); 0
  | SseMov ((Movaps | Movapd | Movdqa), Xr d, Xm ({ seg = None; _ } as m)) ->
    let b, i, s, dp = mem_ea m in
    fun cpu ->
      let a = ea cpu b i s dp in
      if not (is_16aligned a) then err "misaligned movaps load";
      set_xlo cpu d (load64 cpu a);
      set_xhi cpu d (load64 cpu (a + 8)); 0
  | SseMov ((Movaps | Movapd | Movdqa), Xm ({ seg = None; _ } as m), Xr s) ->
    let b, i, sc, dp = mem_ea m in
    fun cpu ->
      let a = ea cpu b i sc dp in
      if not (is_16aligned a) then err "misaligned movaps store";
      store64 cpu a (xlo cpu s);
      store64 cpu (a + 8) (xhi cpu s); 0
  | SseMov ((Movups | Movupd | Movdqu), Xr d, Xm ({ seg = None; _ } as m)) ->
    let b, i, s, dp = mem_ea m in
    fun cpu ->
      let a = ea cpu b i s dp in
      set_xlo cpu d (load64 cpu a);
      set_xhi cpu d (load64 cpu (a + 8));
      if is_16aligned a then 0 else up
  | SseMov ((Movups | Movupd | Movdqu), Xm ({ seg = None; _ } as m), Xr s) ->
    let b, i, sc, dp = mem_ea m in
    fun cpu ->
      let a = ea cpu b i sc dp in
      store64 cpu a (xlo cpu s);
      store64 cpu (a + 8) (xhi cpu s);
      if is_16aligned a then 0 else up
  | MovqXR (x, r) ->
    let r = Reg.index r in
    fun cpu -> set_xlo cpu x (gpr cpu r); set_xhi cpu x 0L; 0
  | MovqRX (r, x) ->
    let r = Reg.index r in
    fun cpu -> set_gpr cpu r (xlo cpu x); 0
  | SseArith (op, Sd, x, Xr s) ->
    (* per-op closures keep the bits->float->op->bits chain a straight
       line (a runtime dispatch on [op] is left for the rare ops) *)
    (match op with
     | FAdd -> fun cpu -> set_xlo cpu x (fp_bits FAdd (xlo cpu x) (xlo cpu s)); 0
     | FSub -> fun cpu -> set_xlo cpu x (fp_bits FSub (xlo cpu x) (xlo cpu s)); 0
     | FMul -> fun cpu -> set_xlo cpu x (fp_bits FMul (xlo cpu x) (xlo cpu s)); 0
     | FDiv -> fun cpu -> set_xlo cpu x (fp_bits FDiv (xlo cpu x) (xlo cpu s)); 0
     | _ -> fun cpu -> set_xlo cpu x (fp_bits op (xlo cpu x) (xlo cpu s)); 0)
  | SseArith (op, Sd, x, Xm ({ seg = None; _ } as m)) ->
    let b, i, s, d = mem_ea m in
    (match op with
     | FAdd -> fun cpu -> sd_mem cpu FAdd x b i s d; 0
     | FSub -> fun cpu -> sd_mem cpu FSub x b i s d; 0
     | FMul -> fun cpu -> sd_mem cpu FMul x b i s d; 0
     | FDiv -> fun cpu -> sd_mem cpu FDiv x b i s d; 0
     | _ -> fun cpu -> sd_mem cpu op x b i s d; 0)
  | SseArith (op, Pd, x, Xr s) ->
    (* register source: no alignment penalty possible *)
    (match op with
     | FAdd -> fun cpu -> pd cpu FAdd x (xlo cpu s) (xhi cpu s); 0
     | FSub -> fun cpu -> pd cpu FSub x (xlo cpu s) (xhi cpu s); 0
     | FMul -> fun cpu -> pd cpu FMul x (xlo cpu s) (xhi cpu s); 0
     | FDiv -> fun cpu -> pd cpu FDiv x (xlo cpu s) (xhi cpu s); 0
     | _ -> fun cpu -> pd cpu op x (xlo cpu s) (xhi cpu s); 0)
  | SseArith (op, Pd, x, Xm ({ seg = None; _ } as m)) ->
    let b, i, s, d = mem_ea m in
    (match op with
     | FAdd -> fun cpu -> pd_mem cpu FAdd x b i s d up
     | FSub -> fun cpu -> pd_mem cpu FSub x b i s d up
     | FMul -> fun cpu -> pd_mem cpu FMul x b i s d up
     | FDiv -> fun cpu -> pd_mem cpu FDiv x b i s d up
     | _ -> fun cpu -> pd_mem cpu op x b i s d up)
  | SseLogic (op, x, Xr s) ->
    (match op with
     | Pxor | Xorps | Xorpd ->
       fun cpu ->
         set_xlo cpu x (Int64.logxor (xlo cpu x) (xlo cpu s));
         set_xhi cpu x (Int64.logxor (xhi cpu x) (xhi cpu s)); 0
     | Pand | Andps | Andpd ->
       fun cpu ->
         set_xlo cpu x (Int64.logand (xlo cpu x) (xlo cpu s));
         set_xhi cpu x (Int64.logand (xhi cpu x) (xhi cpu s)); 0
     | Por ->
       fun cpu ->
         set_xlo cpu x (Int64.logor (xlo cpu x) (xlo cpu s));
         set_xhi cpu x (Int64.logor (xhi cpu x) (xhi cpu s)); 0)
  | Unpcklpd (x, Xr s) -> (fun cpu -> set_xhi cpu x (xlo cpu s); 0)
  | Unpcklpd (x, Xm ({ seg = None; _ } as m)) ->
    let b, i, s, dp = mem_ea m in
    fun cpu -> set_xhi cpu x (load64 cpu (ea cpu b i s dp)); 0
  | Nop _ -> (fun _ -> 0)
  | _ -> (fun cpu -> exec cpu i)

(* -------- translation-block engine -------- *)

(* cap on pre-decoded instructions per superblock; straight-line runs
   longer than this are split into consecutive (chained) blocks *)
let max_block_insns = 256

(** Magic return address that stops {!run}. *)
let stop_addr = 0xDEAD0000

(* unconditional direct jumps followed per block: each one opens a new
   (potentially disjoint) byte range in [sb_ranges] *)
let max_jmp_follow = 4

(* Decode the run at [entry], following unconditional direct jumps
   (bounded, never into already-covered bytes), and survive a decode
   failure in the middle: the decodable prefix still becomes a valid
   block (its last rip is the faulting address, so the next lookup
   re-raises the typed error exactly there — the same behaviour as the
   single-step engine, with nothing bogus left in the block cache).
   Only a failure on the very first instruction propagates.  Returns
   the decoded (addr, insn, rip-after) triples plus the covered byte
   ranges. *)
let decode_prefix cpu entry ~max =
  let rec go a n segs seg_lo jmps acc =
    match fetch cpu a with
    | exception Err.Error { stage = Err.Decode; _ } when acc <> [] ->
      (List.rev acc, List.rev ((seg_lo, a) :: segs))
    | i, len ->
      let acc = (a, i, a + len) :: acc in
      let segs_here = (seg_lo, a + len) :: segs in
      if n + 1 >= max then (List.rev acc, List.rev segs_here)
      else if Decode.is_terminator i then
        match i with
        | Jmp (Abs t)
          when jmps < max_jmp_follow && t <> stop_addr
               && t land addr_mask = t && t >= 0
               && not
                    (List.exists
                       (fun (lo, hi) -> t >= lo && t < hi)
                       segs_here) ->
          (* keep decoding at the jump target: the Jmp stays in the
             block (its closure redirects rip, its cost is charged) and
             execution simply continues into the next range *)
          go t (n + 1) segs_here t (jmps + 1) acc
        | _ -> (List.rev acc, List.rev segs_here)
      else go (a + len) (n + 1) segs seg_lo jmps acc
  in
  go entry 0 [] entry 0 []

(* Raised by a trace side-exit: the current slot ran to completion,
   set rip to the fall-through target and stashed its branch penalty
   in [cpu.pen]; the block loop converts this into an exact early
   block completion.  Constant exception: raising it allocates
   nothing. *)
exception Trace_exit

(* -------- block-local flag liveness --------

   The lifter's flag-consumption analysis (lib/lifter/lift.ml flag
   cache) applied at execution time: scanning a block backward, a flag
   write is dead when a later insn overwrites all six flags before any
   possible reader, block exit, or faulting insn (a fault would expose
   the architectural flags mid-block).  Dead writers are translated
   with no lazy-record bookkeeping at all. *)

let flags_killed = function
  | Alu ((Add | Sub | Cmp | And | Or | Xor), _, _, _) | Test _
  | Imul2 _ | Imul3 _ -> true
  | _ -> false

let flags_read = function
  (* conservative: cc consumers and Adc/Sbb read; Inc/Dec preserve CF
     and a shift by zero preserves all flags, so partial/conditional
     writers are treated as readers to keep earlier flags live *)
  | Jcc _ | Setcc _ | Cmov _ -> true
  | Alu ((Adc | Sbb), _, _, _) -> true
  | Unop _ | Shift _ -> true
  | _ -> false

(* Instructions whose translated closures can never raise.  Memory
   never faults — {!Mem} is demand-paged — so the raising forms are
   only traps, division, aligned-move checks and unresolved labels. *)
let never_raises (i : insn) =
  match i with
  | Jcc _ -> true
  | Mov _ | Movabs _ | Movzx _ | Movsx _ | Lea _ -> true
  | Alu ((Add | Sub | Cmp | And | Or | Xor), _, _, _) -> true
  | Test _ | Shift _ -> true
  | Unop ((Inc | Dec | Not), _, _) -> true
  | Push _ | Pop _ -> true
  | Setcc _ | Cmov _ -> true
  | SseMov ((Movsd | Movss | Movq | Movups | Movupd | Movdqu), _, _) -> true
  | SseMov ((Movaps | Movapd | Movdqa), Xr _, Xr _) -> true
  | Imul2 _ | Imul3 _ -> true
  | MovqXR _ | MovqRX _ -> true
  | SseArith (_, (Sd | Ss), _, _) -> true
  | SseLogic _ -> true
  | Nop _ -> true
  | _ -> false

let dead_flag_writes (insns : insn array) =
  let n = Array.length insns in
  let dead = Array.make n false in
  let live = ref true in (* flags are live out of the block *)
  for i = n - 1 downto 0 do
    let ins = insns.(i) in
    let kills = flags_killed ins and reads = flags_read ins in
    if kills && not reads && not !live then dead.(i) <- true;
    if kills && not reads then live := false;
    if reads then live := true;
    if not (never_raises ins) then live := true
  done;
  dead

(* -------- cmp/test+jcc predicate pairs -------- *)

(* The one fusion the engine performs: a cmp or test immediately
   followed by a direct jcc shares one slot, whose closure computes the
   comparison, records the lazy flags and branches on the predicate
   evaluated straight off the operands, so the common path never
   materializes flags.  In a trace ([side_exit]) the fall-through
   leaves by raising {!Trace_exit}; the taken edge stays in the trace
   (the next slot overwrites the rip written here). *)
let[@inline] branch cpu holds tgt ft side_exit taken not_taken =
  if holds then begin cpu.rip <- tgt; taken end
  else begin
    cpu.rip <- ft;
    if side_exit then begin cpu.pen <- not_taken; raise Trace_exit end;
    not_taken
  end

let[@inline] cmp_branch cpu cc w m sh a b tgt ft side_exit taken not_taken =
  let r = Int64.logand (Int64.sub a b) m in
  record cpu FlSub w a b r;
  branch cpu (sub_holds cc sh a b r) tgt ft side_exit taken not_taken

let[@inline] test_branch cpu cc w sh r tgt ft side_exit taken not_taken =
  record_logic cpu w r;
  branch cpu (logic_holds cc sh r) tgt ft side_exit taken not_taken

let pair_jcc (c : Cost.t) ~next (i : insn) cc ~tgt ~ft ~side_exit : op_fn =
  let taken = c.branch_taken and not_taken = c.branch_not_taken in
  match i with
  | Alu (Cmp, w, a, b) ->
    let m = wmask w and sh = wshift w in
    (match (opnd ~next w a, opnd ~next w b) with
     | Ri (ra, ma, ka), Ri (rb, mb, kb) ->
       fun cpu ->
         cmp_branch cpu cc w m sh (ri cpu ra ma ka) (ri cpu rb mb kb) tgt ft
           side_exit taken not_taken
     | a, b ->
       fun cpu ->
         cmp_branch cpu cc w m sh (rd cpu w a) (rd cpu w b) tgt ft side_exit
           taken not_taken)
  | Test (w, a, b) ->
    let sh = wshift w in
    (match (opnd ~next w a, opnd ~next w b) with
     | Ri (ra, ma, ka), Ri (rb, mb, kb) ->
       fun cpu ->
         test_branch cpu cc w sh
           (Int64.logand (ri cpu ra ma ka) (ri cpu rb mb kb))
           tgt ft side_exit taken not_taken
     | a, b ->
       fun cpu ->
         test_branch cpu cc w sh (Int64.logand (rd cpu w a) (rd cpu w b))
           tgt ft side_exit taken not_taken)
  | _ -> invalid_arg "Cpu.pair_jcc"

(* unpaired trace backedge: evaluate the condition (materializing if
   needed) and side-exit on fall-through *)
let side_exit_jcc (c : Cost.t) cc ~ft : op_fn =
  let taken = c.branch_taken and not_taken = c.branch_not_taken in
  fun cpu ->
    if cond cpu cc then taken
    else begin
      cpu.rip <- ft;
      cpu.pen <- not_taken;
      raise Trace_exit
    end

(* A slot of a block built while profiling: runs [op] and attributes
   its static [cost] plus dynamic penalty to [addr], exactly what
   {!step} records for it.  A side exit records the branch penalty it
   stashed in [pen]; a fault records nothing, as in {!step}.  Built at
   translation time, so the block loop itself does no profiling work
   per slot. *)
let profiled addr cost (op : op_fn) : op_fn =
 fun cpu ->
  match op cpu with
  | p ->
    Prov.record_insn addr (cost + p);
    p
  | exception Trace_exit ->
    Prov.record_insn addr (cost + cpu.pen);
    raise Trace_exit

(* [a.(j)] = [f 0 + ... + f (j-1)]: the slot-prefix totals of a block *)
let prefix_sums n f =
  let a = Array.make (n + 1) 0 in
  for j = 0 to n - 1 do
    a.(j + 1) <- a.(j) + f j
  done;
  a

let build_block cpu entry : sblock =
  let args = if !Tel.enabled then Printf.sprintf "0x%x" entry else "" in
  Tel.span "sb.translate" ~args (fun () ->
  let run, ranges = decode_prefix cpu entry ~max:max_block_insns in
  let n = List.length run in
  Tel.observe h_sb_len n;
  let insns = Array.make n Ret in
  let rips = Array.make n 0 in
  let addrs = Array.make n 0 in
  List.iteri
    (fun k (a, i, next) ->
      insns.(k) <- i;
      rips.(k) <- next;
      addrs.(k) <- a)
    run;
  let costs = Cost.insn_costs cpu.cost insns in
  let dead = dead_flag_writes insns in
  Array.iter
    (fun d ->
      if d then begin
        cpu.fl_dead <- cpu.fl_dead + 1;
        Tel.incr_c c_fl_dead
      end)
    dead;
  let prof = cpu.sb_prof in
  let single k op = if prof then profiled addrs.(k) costs.(k) op else op in
  (* group the instructions into slots: one per instruction, except
     that each cmp/test+jcc pair shares a slot unless profiling *)
  let slots = ref [] in
  let k = ref 0 in
  while !k < n do
    let j = !k + 1 in
    let pair =
      if j < n && not prof then (insns.(!k), insns.(j)) else (Ret, Ret)
    in
    match pair with
    | ((Alu (Cmp, _, _, _) | Test _) as i), Jcc (cc, Abs tgt) ->
      cpu.fu_cmpjcc <- cpu.fu_cmpjcc + 1;
      Tel.incr_c c_fuse_cmpjcc;
      let op =
        pair_jcc cpu.cost ~next:rips.(!k) i cc ~tgt ~ft:rips.(j)
          ~side_exit:false
      in
      slots := (op, rips.(!k), costs.(!k) + costs.(j), 2) :: !slots;
      k := !k + 2
    | _ ->
      let op =
        translate ~dead_flags:dead.(!k) ~next:rips.(!k) cpu.cost insns.(!k)
      in
      slots := (single !k op, rips.(!k), costs.(!k), 1) :: !slots;
      incr k
  done;
  let slots = Array.of_list (List.rev !slots) in
  let m = Array.length slots in
  let ranges = List.filter (fun (lo, hi) -> hi > lo) ranges in
  (* a loop head keeps the side-exit variant of its backedge slot for
     {!build_trace}: the same pair (or lone jcc) leaving the trace on
     fall-through *)
  let kind, exit =
    match insns.(n - 1) with
    | Jcc (cc, Abs t) when n >= 2 && t = entry ->
      let _, _, _, w = slots.(m - 1) in
      ( KLoopHead,
        if w = 2 then
          pair_jcc cpu.cost ~next:rips.(n - 2) insns.(n - 2) cc ~tgt:t
            ~ft:rips.(n - 1) ~side_exit:true
        else single (n - 1) (side_exit_jcc cpu.cost cc ~ft:rips.(n - 1)) )
    | _ -> (KStraight, no_exit)
  in
  (* an indirect terminator (unpredictable successor) routes this
     block's transitions through the inline cache instead of the
     two-slot direct chain links; such a block is structurally never a
     KLoopHead (that requires a direct Jcc backedge) and therefore
     never promoted to a trace *)
  let ind =
    match insns.(n - 1) with
    | JmpInd _ | CallInd _ | Ret -> true
    | _ -> false
  in
  { sb_entry = entry;
    sb_slots = Array.map (fun (o, _, _, _) -> o) slots;
    sb_slot_rips = Array.map (fun (_, r, _, _) -> r) slots;
    sb_cost_to = prefix_sums m (fun j -> let _, _, c, _ = slots.(j) in c);
    sb_insns_to = prefix_sums m (fun j -> let _, _, _, w = slots.(j) in w);
    sb_exit = exit; sb_ranges = ranges; sb_kind = kind;
    sb_execs = 0; sb_valid = true; sb_link1 = None; sb_link2 = None;
    sb_ind = ind; sb_ic1 = None; sb_ic2 = None })

(* -------- trace extension -------- *)

(* a self-loop block is promoted to a trace after this many executions *)
let trace_threshold = 4

(* iteration-unroll budget per trace *)
let max_unroll = 16

(* instruction budget for an unrolled trace body; traces may exceed
   [max_block_insns] since their slots are built once and reused *)
let max_trace_insns = 256

(* Promote a hot self-loop block (body + backedge Jcc to its own
   entry) into a trace: the body's slots are repeated [u] times; every
   non-final backedge slot is the base block's [sb_exit], which leaves
   the trace with exact accounting when the loop ends, and the final
   copy keeps the normal backedge whose taken edge chains straight back
   to the trace itself.  The base block's closures are reused as they
   are: every repeated slot is the same insn at the same rip. *)
let build_trace cpu (b : sblock) : sblock =
  let m = Array.length b.sb_slots and n = block_insns b in
  let u = min max_unroll (max_trace_insns / n) in
  let total = u * m in
  (* each repeated pair counts as created, as if re-paired per copy *)
  cpu.fu_cmpjcc <- cpu.fu_cmpjcc + (u * (n - m));
  Tel.add_c c_fuse_cmpjcc (u * (n - m));
  let base k = k mod m in
  let slot_cost k = b.sb_cost_to.(base k + 1) - b.sb_cost_to.(base k) in
  let slot_insns k = b.sb_insns_to.(base k + 1) - b.sb_insns_to.(base k) in
  Tel.observe h_sb_len (u * n);
  { b with
    sb_slots =
      Array.init total (fun k ->
          if base k = m - 1 && k < total - 1 then b.sb_exit
          else b.sb_slots.(base k));
    sb_slot_rips = Array.init total (fun k -> b.sb_slot_rips.(base k));
    sb_cost_to = prefix_sums total slot_cost;
    sb_insns_to = prefix_sums total slot_insns;
    sb_exit = no_exit; sb_kind = KTrace;
    sb_execs = 0; sb_valid = true; sb_link1 = None; sb_link2 = None;
    (* a trace is only ever built from a KLoopHead, whose terminator is
       a direct Jcc backedge — it can never carry an indirect IC *)
    sb_ind = false; sb_ic1 = None; sb_ic2 = None }

let lookup_block cpu addr : sblock =
  let slot = addr land (bcache_slots - 1) in
  let c = Array.unsafe_get cpu.bcache slot in
  if c.sb_entry = addr && c.sb_valid then begin
    cpu.sb_hits <- cpu.sb_hits + 1;
    Tel.incr_c c_sb_hit;
    c
  end
  else
    match Hashtbl.find_opt cpu.blocks addr with
    | Some b when b.sb_valid ->
      cpu.sb_hits <- cpu.sb_hits + 1;
      Tel.incr_c c_sb_hit;
      Array.unsafe_set cpu.bcache slot b;
      b
    | _ ->
      cpu.sb_misses <- cpu.sb_misses + 1;
      Tel.incr_c c_sb_miss;
      let b = build_block cpu addr in
      Hashtbl.replace cpu.blocks addr b;
      Array.unsafe_set cpu.bcache slot b;
      b

(* Account the first [k] slots of [b] plus dynamic penalties [pen],
   and the block total to the profiler when profiling.  Top level, not
   a closure in {!exec_block}: a local closure would allocate on every
   block execution. *)
let finish cpu b k pen =
  let cycles = Array.unsafe_get b.sb_cost_to k + pen in
  cpu.icount <- cpu.icount + Array.unsafe_get b.sb_insns_to k;
  cpu.cycles <- cpu.cycles + cycles;
  if cpu.sb_prof then Prov.record_block b.sb_entry ~cycles

(* Execute one superblock.  Observably equivalent to {!step}-ing
   through it — rip is advanced past the instruction before it
   executes (calls push it, non-taken Jcc falls through to it) — but
   fetch, decode and the static cost computation are all hoisted out
   of the loop, and cycles/icount are written back once per block
   (with the executed prefix accounted exactly if an instruction
   faults).  The same loop runs profiled blocks, whose slots record
   their own cycles (see {!profiled}). *)
let exec_block cpu (b : sblock) =
  Tel.incr_c c_sb_exec;
  let ops = b.sb_slots and rips = b.sb_slot_rips in
  let n = Array.length ops in
  let penalties = ref 0 in
  let k = ref 0 in
  try
    while !k < n do
      cpu.rip <- Array.unsafe_get rips !k;
      penalties := !penalties + (Array.unsafe_get ops !k) cpu;
      incr k
    done;
    finish cpu b n !penalties
  with
  | Trace_exit ->
    (* the side-exit slot ran to completion: account it fully, with
       its branch penalty stashed in [pen] by the raise *)
    finish cpu b (!k + 1) (!penalties + cpu.pen);
    cpu.sb_side_exits <- cpu.sb_side_exits + 1;
    Tel.incr_c c_sb_sidexit
  | e ->
    (* the prefix before the fault, exactly as the single-step engine
       leaves it (a cmp/test+jcc slot never raises, so the faulting
       slot is a single instruction) *)
    finish cpu b !k !penalties;
    materialize cpu;
    raise e

(* Indirect-terminator successor lookup: a 2-way inline cache of
   predicted targets.  A cached prediction is trusted only after
   revalidation (entry match + validity bit), so IC entries survive
   neither a range-granular flush nor a divergent target.  Slot 1 is
   the MRU prediction; a hit in slot 2 swaps it forward, and a miss
   with both slots live (a megamorphic site) evicts the LRU entry. *)
let ic_next cpu (prev : sblock) addr : sblock =
  (* saboteur drill: a fired arm returns the stale predicted block
     without revalidating it against the live rip — exactly the silent
     wrong-code execution the sentinel must catch downstream *)
  let flipped =
    if Fault.sabotage "sabotage.isel.indirect" then
      match prev.sb_ic1 with
      | Some b when b.sb_entry <> addr && b.sb_valid ->
        Fault.note_sabotage_landed ();
        Some b
      | _ -> None
    else None
  in
  match flipped with
  | Some b -> b
  | None -> (
    match prev.sb_ic1 with
    | Some b when b.sb_entry = addr && b.sb_valid ->
      cpu.sb_ic_hits <- cpu.sb_ic_hits + 1;
      Tel.incr_c c_sb_ic_hit;
      b
    | _ -> (
      match prev.sb_ic2 with
      | Some b when b.sb_entry = addr && b.sb_valid ->
        cpu.sb_ic_hits <- cpu.sb_ic_hits + 1;
        Tel.incr_c c_sb_ic_hit;
        (* MRU promotion keeps the hot target in the first probe *)
        prev.sb_ic2 <- prev.sb_ic1;
        prev.sb_ic1 <- Some b;
        b
      | _ ->
        cpu.sb_ic_misses <- cpu.sb_ic_misses + 1;
        Tel.incr_c c_sb_ic_miss;
        let b = lookup_block cpu addr in
        (match prev.sb_ic1 with
         | None -> prev.sb_ic1 <- Some b
         | Some l1 when not l1.sb_valid -> prev.sb_ic1 <- Some b
         | Some _ ->
           (* divergent target: demote the current MRU prediction,
              evicting whatever held the second way *)
           prev.sb_ic2 <- prev.sb_ic1;
           prev.sb_ic1 <- Some b);
        b))

(* Successor lookup through the block's chain links: a link is used
   only if it is still valid and its entry matches the live rip, so
   links survive neither a flush nor a retargeted branch.  Blocks
   ending in an indirect branch dispatch through {!ic_next} instead. *)
let next_block cpu (prev : sblock) addr : sblock =
  if prev.sb_ind then ic_next cpu prev addr
  else
    match prev.sb_link1 with
    | Some b when b.sb_entry = addr && b.sb_valid ->
      cpu.sb_chained <- cpu.sb_chained + 1;
      Tel.incr_c c_sb_chain;
      b
    | _ ->
      (match prev.sb_link2 with
       | Some b when b.sb_entry = addr && b.sb_valid ->
         cpu.sb_chained <- cpu.sb_chained + 1;
         Tel.incr_c c_sb_chain;
         b
       | _ ->
         let b = lookup_block cpu addr in
         (* direct branches have at most two successors (taken /
            fall-through), so two slots capture them *)
         (match prev.sb_link1 with
          | None -> prev.sb_link1 <- Some b
          | Some l1 when not l1.sb_valid -> prev.sb_link1 <- Some b
          | Some _ -> prev.sb_link2 <- Some b);
         b)

(* watchdog: terminate runaway emulation with a typed [Emulate] error
   carrying the rip it was stopped at *)
let budget_exceeded cpu budget =
  Err.fail ~addr:cpu.rip Err.Emulate
    "watchdog: instruction budget of %d exceeded" budget

(** Run until control returns to {!stop_addr}, one superblock at a
    time.  [max_insns] is the watchdog budget on executed instructions
    (the overshoot before the check is at most one block); exceeding
    it raises a typed [Emulate] error instead of hanging on emitted
    infinite loops.  Hot self-loop blocks are promoted to traces here,
    and the watchdog runs on the icount delta because trace side-exits
    make per-block instruction counts dynamic. *)
let run ?(max_insns = 2_000_000_000) cpu =
  Tel.span "emulate.run" (fun () ->
      (* blocks are built for one profiling setting ({!profiled}): a run
         under the other one drops them all first.  Not a flush — no
         code changed, so it is not counted as one. *)
      if !Prov.enabled <> cpu.sb_prof then begin
        cpu.sb_prof <- !Prov.enabled;
        Hashtbl.iter (fun _ b -> b.sb_valid <- false) cpu.blocks;
        Hashtbl.reset cpu.blocks
      end;
      let limit = cpu.icount + max_insns in
      if cpu.rip <> stop_addr then begin
        let blk = ref (lookup_block cpu cpu.rip) in
        let continue = ref true in
        while !continue do
          let b = !blk in
          exec_block cpu b;
          (* always-on hotness counter: one add per block execution,
             read by the tier controller's hotness scan (fold_blocks).
             Trace promotion below still keys off loop heads only. *)
          b.sb_execs <- b.sb_execs + 1;
          (match b.sb_kind with KLoopHead -> begin
            if
              b.sb_execs = trace_threshold
              && 2 * block_insns b <= max_trace_insns
            then begin
              let tr = build_trace cpu b in
              b.sb_valid <- false;
              Hashtbl.replace cpu.blocks b.sb_entry tr;
              cpu.sb_traces <- cpu.sb_traces + 1;
              Tel.incr_c c_sb_trace
            end
          end
          | KStraight | KTrace -> ());
          if cpu.icount > limit then begin
            materialize cpu;
            budget_exceeded cpu max_insns
          end;
          if cpu.rip = stop_addr then continue := false
          else blk := next_block cpu b cpu.rip
        done
      end;
      (* external code reads the flag fields directly *)
      materialize cpu)

(** Run until {!stop_addr} strictly one instruction at a time through
    the decode cache — the reference engine the superblock engine is
    differentially tested against.  Same [max_insns] watchdog as
    {!run}. *)
let run_interp ?(max_insns = 2_000_000_000) cpu =
  Tel.span "emulate.interp" (fun () ->
      let steps = ref 0 in
      while cpu.rip <> stop_addr do
        step cpu;
        incr steps;
        if !steps > max_insns then budget_exceeded cpu max_insns
      done;
      materialize cpu)

(** Execution engine selector for {!call}: the superblock engine is
    the default; [SingleStep] forces the per-instruction interpreter
    (used by the differential tests). *)
type engine = Superblocks | SingleStep

(** Call the function at [fn] following the System V ABI: integer/
    pointer arguments in rdi..., floating point arguments in xmm0...;
    returns (rax, xmm0-as-float). *)
let call ?(engine = Superblocks) ?(args = []) ?(fargs = []) ?max_insns cpu ~fn =
  List.iteri
    (fun i v ->
      match List.nth_opt Reg.arg_regs i with
      | Some r -> set_reg cpu W64 r v
      | None -> err "too many integer arguments")
    args;
  List.iteri
    (fun i v ->
      if i > 7 then err "too many float arguments";
      cpu.xlo.{i} <- Int64.bits_of_float v;
      cpu.xhi.{i} <- 0L)
    fargs;
  (* align stack to 16 then push the stop sentinel: at function entry
     rsp ≡ 8 (mod 16), exactly as after a real call *)
  let sp = Int64.to_int cpu.regs.{rsp_i} land lnot 15 in
  cpu.regs.{rsp_i} <- Int64.of_int sp;
  push64 cpu (Int64.of_int stop_addr);
  cpu.rip <- fn;
  (match engine with
   | Superblocks -> run ?max_insns cpu
   | SingleStep -> run_interp ?max_insns cpu);
  (cpu.regs.{0}, Int64.float_of_bits cpu.xlo.{0})
