(* OBrew benchmark driver.

     obrew_perf --workload NAME --seed N --seconds S --trace 0|1

   Two seeded, closed-loop workloads (one process, one thread, one
   client: the next request is issued only after the previous one
   completed):

     jacobi-exec   every kind x mode x style row of Fig. 9 on a 257x257
                   matrix, 2 iterations; kernels are transformed during
                   set-up, only Modes.run is timed (execution-bound)
     compile-cold  one Modes.transform ~use_memo:false per request,
                   each followed by a 1-iteration check run (the
                   Fig. 10 request path)

   The traced run of either also serves a partially-hot sliced Jacobi
   schedule through the tier controller (Tier.run_slice / Tier.poll,
   every tier-up through Sentinel.serve), so the tier, sentinel and
   memo layers are measured too.

   The seed generates the stencils and schedules; only those reach the
   program.  Every output is compared with the OCaml reference.  With
   --trace 0 the last stdout line carries the end-to-end metrics, with
   --trace 1 the per-layer metrics (see layers.json for definitions). *)

open Obrew_x86
open Obrew_ir
open Obrew_core
module Stencil = Obrew_stencil.Stencil
module Tier = Obrew_tier.Tier
module Sen = Obrew_sentinel.Sentinel
module Err = Obrew_fault.Err
module Api = Obrew_dbrew.Api
module Lift = Obrew_lifter.Lift
module Pipeline = Obrew_opt.Pipeline
module Isel = Obrew_backend.Isel
module Jit = Obrew_backend.Jit

let now = Unix.gettimeofday

(* ------------------------------------------------------------------ *)
(* Statistics                                                          *)
(* ------------------------------------------------------------------ *)

let sorted l = List.sort compare l |> Array.of_list

(* quartiles exactly as Python's statistics.quantiles(data, n=4)
   computes them (the default "exclusive" method) *)
let quartiles l =
  let a = sorted l in
  let ld = Array.length a in
  if ld = 0 then (nan, nan, nan)
  else if ld = 1 then (a.(0), a.(0), a.(0))
  else
    let q i =
      let m = ld + 1 in
      let j = max 1 (min (ld - 1) (i * m / 4)) in
      let delta = float_of_int ((i * m) - (j * 4)) in
      ((a.(j - 1) *. (4.0 -. delta)) +. (a.(j) *. delta)) /. 4.0
    in
    (q 1, q 2, q 3)

let median l =
  let a = sorted l in
  let n = Array.length a in
  if n = 0 then nan
  else if n land 1 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(* nearest-rank percentile *)
let percentile p l =
  let a = sorted l in
  let n = Array.length a in
  if n = 0 then nan
  else a.(max 0 (min (n - 1) (int_of_float (ceil (p *. float_of_int n)) - 1)))

let sum l = List.fold_left ( +. ) 0.0 l

(* ------------------------------------------------------------------ *)
(* Operation accounting                                                *)
(* ------------------------------------------------------------------ *)

let attempted = ref 0
let failed = ref 0
let mismatches = ref 0

(* per-check outcomes of the reference pass, in order: the determinism
   fingerprint requires them to repeat exactly *)
let checks : string list ref = ref []
let recording = ref true

let note_check label ok =
  if !recording then
    checks := (label ^ if ok then ":ok" else ":FAIL") :: !checks

let fail_op ~what ~stage msg =
  incr failed;
  Printf.eprintf "perfbench: FAILED %s [stage %s] %s\n%!" what stage msg

(* Run one operation.  A typed error is a failed operation reported with
   its stage; it is never dropped from the sample. *)
let op ~what f =
  incr attempted;
  match f () with
  | v -> Some v
  | exception Err.Error e ->
    fail_op ~what ~stage:(Err.stage_name e.Err.stage) (Err.to_string e);
    None

(* Per-item samples.  Every pass repeats the same items (a row, a
   request, a slice); each sample keeps the time it was taken at, so it
   can be put at the reference host speed (see [items]), and the
   statistics are taken over items. *)
type samples = { tbl : (string, (float * float) list) Hashtbl.t }

let samples () = { tbl = Hashtbl.create 256 }

let record b key dt =
  let l = Option.value ~default:[] (Hashtbl.find_opt b.tbl key) in
  Hashtbl.replace b.tbl key ((now (), dt) :: l)

(* Time spent in the benchmark's own bookkeeping (reference compares,
   digest cross-checks): subtracted from every measured time. *)
let excluded_s = ref 0.0

(* Wall time of [f] minus the bookkeeping inside it. *)
let timing f =
  let x0 = !excluded_s and t0 = now () in
  let r = f () in
  (r, now () -. t0 -. (!excluded_s -. x0))

(* As [op], recording the operation's latency under [key] whether or not
   it failed: a failure is never dropped from the sample. *)
let timed ~what ~key b f =
  let r, dt = timing (fun () -> op ~what f) in
  record b key dt;
  r

(* ------------------------------------------------------------------ *)
(* Seeded inputs                                                       *)
(* ------------------------------------------------------------------ *)

let neighbours =
  [ (-1, -1); (0, -1); (1, -1); (-1, 0); (1, 0); (-1, 1); (0, 1); (1, 1) ]

let shuffle rng l =
  let a = Array.of_list l in
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  Array.to_list a

(* A stencil of [points] radius-1 neighbours in [ngroups] coefficient
   groups.  The seed picks which neighbours, how they are grouped and
   the factors; the number of points and groups is fixed by the caller,
   and the points are dealt round-robin so group sizes differ by at
   most one (the code DBrew and the lifter produce, and so the work,
   depends mostly on those counts).  The factors are normalized so all
   weights sum to 1: the iteration stays an average and values stay in
   [0, 1] however many iterations run. *)
let stencil rng ~points ~ngroups : (float * (int * int) list) list =
  let pts = List.filteri (fun i _ -> i < points) (shuffle rng neighbours) in
  let groups = Array.make ngroups [] in
  List.iteri (fun i p -> groups.(i mod ngroups) <- p :: groups.(i mod ngroups)) pts;
  let w = Array.init ngroups (fun _ -> 0.5 +. Random.State.float rng 1.0) in
  let total = ref 0.0 in
  Array.iteri
    (fun g ps -> total := !total +. (w.(g) *. float_of_int (List.length ps)))
    groups;
  Array.to_list (Array.mapi (fun g ps -> (w.(g) /. !total, List.rev ps)) groups)

(* One stencil of every size 1..8, with 1, 2, 3, 1, 2, ... groups: each
   run covers the same range of stencil shapes, so the amount of work
   does not depend on the seed. *)
let stencil_set rng =
  List.init 8 (fun i -> stencil rng ~points:(i + 1) ~ngroups:(1 + (i mod 3)))

let stencil_string groups =
  String.concat " | "
    (List.map
       (fun (f, pts) ->
         Printf.sprintf "%.4f x %s" f
           (String.concat ","
              (List.map (fun (dx, dy) -> Printf.sprintf "(%d,%d)" dx dy) pts)))
       groups)

(* ------------------------------------------------------------------ *)
(* Environments and reference results                                  *)
(* ------------------------------------------------------------------ *)

type env = {
  e : Modes.env;
  groups : (float * (int * int) list) list;
  refs : (Modes.kind * int, float array) Hashtbl.t;
      (* (Direct or generic, iters) -> expected result matrix *)
}

let build ~sz groups = { e = Modes.build ~sz ~groups (); groups; refs = Hashtbl.create 4 }

let ref_class = function Modes.Direct -> Modes.Direct | _ -> Modes.Flat

(* Direct kernels hard-code the paper's 4-point stencil; Flat and Sorted
   compute the seeded groups. *)
let expected env kind ~iters =
  let key = (ref_class kind, iters) in
  match Hashtbl.find_opt env.refs key with
  | Some r -> r
  | None ->
    Modes.reset env.e;
    let w = env.e.Modes.w in
    let m1 = Stencil.read_matrix w w.Stencil.m1 in
    let m2 = Stencil.read_matrix w w.Stencil.m2 in
    let sz = w.Stencil.sz in
    let r, _ =
      match kind with
      | Modes.Direct -> Stencil.reference ~sz ~iters m1 m2
      | _ -> Stencil.reference_groups ~groups:env.groups ~sz ~iters m1 m2
    in
    Hashtbl.replace env.refs key r;
    r

let excluded f =
  let t0 = now () in
  Fun.protect ~finally:(fun () -> excluded_s := !excluded_s +. (now () -. t0)) f

(* Compare the result matrix after [iters] iterations with the reference
   (absolute tolerance 1e-9, as the stencil tests use). *)
let check env kind ~iters ~what =
  excluded (fun () ->
      let got = Modes.result_matrix env.e ~iters in
      let want = expected env kind ~iters in
      let worst = ref 0.0 in
      Array.iteri
        (fun i x -> worst := Float.max !worst (Float.abs (x -. got.(i))))
        want;
      let ok = !worst <= 1e-9 in
      note_check what ok;
      if not ok then begin
        incr mismatches;
        fail_op ~what ~stage:"check"
          (Printf.sprintf "result differs from the reference by %g" !worst)
      end)

(* ------------------------------------------------------------------ *)
(* Per-layer counters                                                  *)
(* ------------------------------------------------------------------ *)

(* Counts are taken over the reference pass (set-up and the first timed
   pass), which is deterministic for a given seed. *)
let counts : (string, float) Hashtbl.t = Hashtbl.create 64

let count name v =
  if !recording then
    Hashtbl.replace counts name
      (v +. Option.value ~default:0.0 (Hashtbl.find_opt counts name))

let counted name = Option.value ~default:0.0 (Hashtbl.find_opt counts name)

let opt_passes =
  [ "simplifycfg"; "instcombine"; "mem2reg"; "gvn"; "dce"; "inline"; "licm";
    "unroll"; "vectorize" ]

let count_opt_changes () =
  List.iter
    (fun p ->
      count ("opt.changes." ^ p)
        (float_of_int
           (Option.value ~default:0
              (List.assoc_opt p Pipeline.stats.Pipeline.pass_changes))))
    opt_passes

let module_size (m : Ins.modul) =
  List.fold_left (fun n f -> n + Pp_ir.size f) 0 m.Ins.funcs

let kernel_bytes (env : Modes.env) addr =
  match Image.code_range env.Modes.img addr with
  | Some (lo, hi) -> hi - lo
  | None -> 0

(* ------------------------------------------------------------------ *)
(* The request path                                                    *)
(* ------------------------------------------------------------------ *)

let lifts = function
  | Modes.Llvm | Modes.LlvmFix | Modes.DBrewLlvm -> true
  | Modes.Native | Modes.DBrew -> false

(* Modes.transform decomposed into the calls it makes, each under a
   span: dbrew_rewrite -> Lift.lift -> Pipeline.run ->
   Isel.emit_func_with_prov -> Image.install_code.  Mirrors
   Modes.transform step by step (the cross-check below asserts it
   installs the same bytes). *)
let decomposed (env : Modes.env) kind style mode : int =
  let img = env.Modes.img in
  let sg = Modes.kernel_sig style in
  let orig = Modes.native_addr env kind style in
  let read = Mem.read_u8 img.Image.cpu.Cpu.mem in
  let lift entry name =
    let f =
      Spans.span "lifter.lift" (fun () -> Lift.lift ~read ~entry ~name sg)
    in
    count "lifter.ir_instrs_out" (float_of_int (Pp_ir.size f));
    f
  in
  let dbrew () =
    Spans.span "dbrew.rewrite" (fun () ->
        let r = Api.dbrew_new img orig in
        Api.dbrew_set_par r 0 (Int64.of_int (Modes.stencil_arg env kind));
        let lo, hi = Modes.stencil_range env kind in
        Api.dbrew_set_mem r lo hi;
        let a = Api.dbrew_rewrite ~memo:false r in
        (match r.Api.last_error with Some e -> raise (Err.Error e) | None -> ());
        count "dbrew.items_out"
          (float_of_int (List.length (Api.dbrew_last_code r)));
        a)
  in
  let optimize (m : Ins.modul) =
    count "opt.ir_instrs_in" (float_of_int (module_size m));
    Spans.span "opt.run" (fun () -> Pipeline.run ~opts:Modes.o3_opts m);
    count_opt_changes ();
    count "opt.ir_instrs_out" (float_of_int (module_size m))
  in
  let emit (f : Ins.func) =
    let items, _ =
      Spans.span "backend.emit" (fun () ->
          Isel.emit_func_with_prov ~global_addr:(Image.lookup img)
            ~func_addr:(Image.lookup img) f)
    in
    count "backend.items_out" (float_of_int (List.length items));
    Spans.span "x86.install" (fun () ->
        Image.install_code ~name:f.Ins.fname ~dedup:true img items)
  in
  let lifted_kernel entry =
    let f = lift entry "jit" in
    optimize { Ins.funcs = [ f ]; globals = [] };
    Verify.assert_ok ~ctx:"perfbench" f;
    emit f
  in
  match mode with
  | Modes.Native -> orig
  | Modes.Llvm -> lifted_kernel orig
  | Modes.DBrew -> dbrew ()
  | Modes.DBrewLlvm -> lifted_kernel (dbrew ())
  | Modes.LlvmFix ->
    let f = lift orig "lifted" in
    f.Ins.always_inline <- true;
    let lo, hi = Modes.stencil_range env kind in
    let bytes = Mem.read_bytes img.Image.cpu.Cpu.mem lo (hi - lo) in
    let g = { Ins.gname = "fixmem"; bytes; galign = 16; constant = true } in
    let b = Builder.create ~name:"jit" ~sg in
    let params = (Builder.func b).Ins.params in
    let args =
      Ins.Global "fixmem" :: List.tl (List.map (fun id -> Ins.V id) params)
    in
    ignore (Builder.call b "lifted" sg args);
    Builder.ret b None;
    let wrapper = Builder.func b in
    optimize { Ins.funcs = [ f; wrapper ]; globals = [ g ] };
    Verify.assert_ok ~ctx:"perfbench" wrapper;
    Spans.span "x86.install" (fun () -> ignore (Jit.install_global img g));
    ignore (emit f);
    emit wrapper

let install_counts (img : Image.t) = (img.Image.install_hits, img.Image.install_misses)

(* One transformation request.  Untraced: Modes.transform.  Traced: the
   decomposed pipeline on a fork of the image (timed, under spans),
   then Modes.transform on the real image as the cross-check that the
   decomposition installs the same bytes; the real image thus sees
   exactly what the untraced run does. *)
let transform ~use_memo (env : Modes.env) kind style mode : int =
  let what =
    Printf.sprintf "transform %s/%s/%s" (Modes.kind_name kind)
      (Modes.style_name style) (Modes.transform_name mode)
  in
  if not !Spans.on then begin
    let k, _ = Modes.transform ~use_memo env kind style mode in
    if lifts mode then count_opt_changes ();
    k
  end
  else begin
    let fork =
      excluded (fun () -> { env with Modes.img = Image.fork env.Modes.img })
    in
    let h0, m0 = install_counts fork.Modes.img in
    let k_fork = Spans.span "pipeline" (fun () -> decomposed fork kind style mode) in
    let h1, m1 = install_counts fork.Modes.img in
    count "x86.install_hits" (float_of_int (h1 - h0));
    count "x86.install_misses" (float_of_int (m1 - m0));
    count "x86.code_bytes" (float_of_int (kernel_bytes fork k_fork));
    excluded (fun () ->
        let k, _ =
          Spans.span "core.transform" (fun () ->
              Modes.transform ~use_memo env kind style mode)
        in
        (match
           ( Image.digest_of_addr fork.Modes.img k_fork,
             Image.digest_of_addr env.Modes.img k )
         with
         | Some a, Some b when a = b -> ()
         | _ ->
           fail_op ~what ~stage:"trace"
             "decomposed pipeline installed different bytes than Modes.transform");
        k)
  end

(* ------------------------------------------------------------------ *)
(* Guest execution                                                     *)
(* ------------------------------------------------------------------ *)

(* guest-execution calls during the passes: times and instruction count
   per item *)
let execs = samples ()
let exec_insns : (string, int) Hashtbl.t = Hashtbl.create 256

let in_pass = ref false

(* Time [f], a call that executes guest code and returns (cycles, insns),
   as item [key]; returns the cycles. *)
let executing name ~key f =
  let w0 = Gc.minor_words () in
  let t0 = now () in
  let cycles, insns = Spans.span name f in
  if !in_pass then begin
    record execs key (now () -. t0);
    Hashtbl.replace exec_insns key insns
  end;
  count "x86.insns" (float_of_int insns);
  count "x86.minor_words" (Gc.minor_words () -. w0);
  cycles

let run ~key env kind style ~kernel ~iters =
  executing "x86.exec" ~key (fun () -> Modes.run env.e kind style ~kernel ~iters)

let cpu_stats envs = List.map (fun env -> Cpu.cache_stats env.e.Modes.img.Image.cpu) envs

(* Deltas of the engine counters between two snapshots, summed. *)
let count_cpu_deltas before after =
  List.iter2
    (fun (a : Cpu.cache_stats) (b : Cpu.cache_stats) ->
      let d f = float_of_int (f b - f a) in
      count "x86.block_hits" (d (fun s -> s.Cpu.block_hits));
      count "x86.blocks_built" (d (fun s -> s.Cpu.block_misses));
      count "x86.block_chained" (d (fun s -> s.Cpu.block_chained));
      count "x86.block_flushes" (d (fun s -> s.Cpu.block_flushes));
      count "x86.ic_hits" (d (fun s -> s.Cpu.ic_hits));
      count "x86.ic_misses" (d (fun s -> s.Cpu.ic_misses));
      count "x86.trace_side_exits" (d (fun s -> s.Cpu.trace_side_exits));
      count "x86.flag_records" (d (fun s -> s.Cpu.flag_records));
      count "x86.flag_materialized" (d (fun s -> s.Cpu.flag_materialized)))
    before after

(* ------------------------------------------------------------------ *)
(* Samples of the end-to-end metrics                                   *)
(* ------------------------------------------------------------------ *)

let setup_samples = ref []
let units = samples ()       (* the items a pass is made of *)
let transforms = samples ()
let slices = samples ()      (* guest-execution calls the client waits for *)
let peaks = samples ()       (* time until the code reached its final form *)
let sim_cycles = ref 0   (* reference pass *)
let code_bytes = ref 0   (* reference pass *)

let traced_walls = ref []
let untraced_walls = ref []

let add r v = r := v :: !r

(* Called by the passes between two items. *)
let between_items = ref ignore

(* ------------------------------------------------------------------ *)
(* Host speed                                                          *)
(* ------------------------------------------------------------------ *)

(* A shared host runs the same code up to 1.7x slower for minutes at a
   time, and its speed moves within seconds too, so times taken apart
   are not comparable as measured.  Between items, at most every
   [calib_every_s], the driver times fixed work that shares no code or
   data with the program: a loop of dependent loads from a 256 KiB
   table with data-dependent branches, then a tiny interpreter (a fixed
   64-instruction register program loading from a 1 MiB memory and
   storing to another, boxed int64 registers, decoded instructions
   cached in a hash table).  Each part alone tracks the host's slowdowns
   of the emulator only loosely (the loop moves about half as much, the
   interpreter about twice as much); their sum tracks them closely.
   Every host time is reported at the reference speed: scaled by
   [calib_ref_s] over the fixed work's median time in the [calib_near]
   samples taken nearest to it (see [at_ref]). *)
let calib_every_s = 0.2
let calib_ref_s = 0.004

let random_bytes n =
  let x = ref 0x2545F491 in
  Bytes.init n (fun _ ->
      x := (!x * 1103515245 + 12345) land 0x7fffffff;
      Char.unsafe_chr (!x lsr 16))

let calib_table = random_bytes (1 lsl 18)
let calib_mem = random_bytes (1 lsl 20)
(* stores go to a separate buffer, so every call does the same work *)
let calib_out = Bytes.create (1 lsl 20)

type calib_ins = Load of int * int | Store of int * int | Add of int * int | Mul of int * int | Jnz of int * int

let calib_prog =
  let x = ref 12345 in
  Array.init 64 (fun i ->
      x := (!x * 1103515245 + 12345) land 0x7fffffff;
      let r = !x lsr 8 in
      let a = r land 7 and b = (r lsr 3) land 7 in
      match (r lsr 6) mod 5 with
      | 0 -> Load (a, b)
      | 1 -> Store (a, b)
      | 2 -> Add (a, b)
      | 3 -> Mul (a, b)
      | _ -> if i < 63 then Jnz (a, (r lsr 9) land 63) else Add (a, b))

let calib_loop () =
  let acc = ref 0 in
  for i = 0 to 150_000 do
    let k = ((i * 7919) + !acc) land 0x3ffff in
    let v = Char.code (Bytes.unsafe_get calib_table k) in
    if v land 1 = 0 then acc := (!acc * 31) + v else acc := (!acc lxor (v lsl 7)) + i;
    acc := !acc land 0xffffff
  done;
  ignore (Sys.opaque_identity !acc)

let calib_interp () =
  let regs = Array.init 8 (fun i -> Int64.of_int (i * 977)) in
  let decoded = Hashtbl.create 64 in
  let pc = ref 0 in
  for _ = 1 to 60_000 do
    let ins =
      match Hashtbl.find_opt decoded !pc with
      | Some ins -> ins
      | None ->
        let ins = calib_prog.(!pc) in
        Hashtbl.replace decoded !pc ins;
        ins
    in
    (match ins with
     | Load (a, b) ->
       regs.(a) <- Bytes.get_int64_le calib_mem (Int64.to_int regs.(b) land 0xffff8);
       incr pc
     | Store (a, b) ->
       Bytes.set_int64_le calib_out (Int64.to_int regs.(b) land 0xffff8) regs.(a);
       incr pc
     | Add (a, b) -> regs.(a) <- Int64.add regs.(a) regs.(b); incr pc
     | Mul (a, b) -> regs.(a) <- Int64.mul regs.(a) (Int64.logor regs.(b) 1L); incr pc
     | Jnz (a, t) -> if Int64.logand regs.(a) 3L <> 0L then pc := t else incr pc);
    if !pc >= 64 then pc := 0
  done;
  ignore (Sys.opaque_identity regs)

let calib_samples = ref []
let calib_last = ref neg_infinity

let calibrate () =
  if now () -. !calib_last >= calib_every_s then begin
    let t0 = now () in
    calib_loop ();
    calib_interp ();
    calib_last := now ();
    calib_samples := (!calib_last, !calib_last -. t0) :: !calib_samples
  end

let calib_near = 25

(* the calibration samples in time order, once the run is over *)
let calib_run = lazy (Array.of_list (List.rev !calib_samples))

(* The fixed work's median time over the [calib_near] samples nearest
   to time [t]. *)
let host_speed t =
  let a = Lazy.force calib_run in
  let n = Array.length a in
  let rec first lo hi = (* first index whose time is >= t *)
    if lo >= hi then lo
    else
      let mid = (lo + hi) / 2 in
      if fst a.(mid) < t then first (mid + 1) hi else first lo mid
  in
  let rec widen lo hi =
    if hi - lo >= calib_near || (lo = 0 && hi = n) then (lo, hi)
    else if lo = 0 then widen lo (hi + 1)
    else if hi = n then widen (lo - 1) hi
    else if t -. fst a.(lo - 1) <= fst a.(hi) -. t then widen (lo - 1) hi
    else widen lo (hi + 1)
  in
  let i = first 0 n in
  let lo, hi = widen i i in
  median (List.init (hi - lo) (fun k -> snd a.(lo + k)))

(* A sample [(t, dt)] at the reference host speed. *)
let at_ref (t, dt) = dt *. calib_ref_s /. host_speed t

(* Per item, keyed: the median over the passes of its samples at the
   reference host speed. *)
let item_values b =
  Hashtbl.fold (fun k l acc -> (k, median (List.map at_ref l)) :: acc) b.tbl []

let items b = List.map snd (item_values b)

(* Set up, then repeat [pass] while the next pass is expected to end
   within [seconds].  At least one pass runs, two in the traced run.  The
   first pass is the reference pass whose counts and check results form
   the determinism fingerprint.  Set-up runs [reps] times (the median is
   setup_s): once before the passes, the other times between items,
   spread over the passes in proportion to the time used, so the set-up
   samples do not fall into one spell of the host's speed.  Only the first
   set-up's state is used; the others add set-up samples (and, in
   jacobi-exec, transform samples) but no counts, and are excluded from
   the times around them. *)
let measure ~tracing ~seconds ~reps ~(setup : unit -> 'a)
    ~(pass : 'a -> int -> unit) ~(envs : 'a -> env list) : 'a =
  Spans.on := tracing;
  let set_up () =
    (* every set-up starts from a collected heap, as the first one does,
       so no set-up pays for the garbage of the passes before it *)
    excluded Gc.full_major;
    let s, dt = timing setup in
    add setup_samples (now (), dt);
    s
  in
  let st = set_up () in
  let t_start = now () and spare_s = ref 0.0 in
  let spares = reps - 1 and spared = ref 0 in
  let spare_set_ups ~upto =
    let saved = (!recording, !in_pass) in
    recording := false;
    in_pass := false;
    while !spared < min spares upto do
      incr spared;
      let t0 = now () in
      excluded (fun () -> ignore (set_up ()));
      spare_s := !spare_s +. (now () -. t0)
    done;
    recording := fst saved;
    in_pass := snd saved
  in
  let used () = now () -. t_start -. !spare_s in
  between_items :=
    (fun () ->
      excluded calibrate;
      spare_set_ups
        ~upto:(int_of_float (ceil (float_of_int spares *. used () /. seconds))));
  let min_passes = if tracing then 2 else 1 in
  let rec loop i =
    let est = if i = 0 then 0.0 else used () /. float_of_int i in
    if i < min_passes || used () +. est <= seconds then begin
      (* the traced run alternates traced and untraced passes so the
         tracing overhead can be read off the same process *)
      let traced = tracing && i land 1 = 0 in
      Spans.on := traced;
      let before = cpu_stats (envs st) in
      in_pass := true;
      let (), wall = timing (fun () -> pass st i) in
      in_pass := false;
      if i = 0 then count_cpu_deltas before (cpu_stats (envs st));
      recording := false;
      add (if traced then traced_walls else untraced_walls) wall;
      loop (i + 1)
    end
  in
  loop 0;
  spare_set_ups ~upto:spares;
  between_items := ignore;
  Spans.on := tracing;
  st

(* ------------------------------------------------------------------ *)
(* Workloads                                                           *)
(* ------------------------------------------------------------------ *)

let kinds = [ Modes.Direct; Modes.Flat; Modes.Sorted ]
let styles = [ Modes.Element; Modes.Line ]
let jit_modes = [ Modes.Llvm; Modes.LlvmFix; Modes.DBrew; Modes.DBrewLlvm ]
let all_modes = Modes.Native :: jit_modes

let label kind style mode =
  Printf.sprintf "%s/%s/%s" (Modes.kind_name kind) (Modes.style_name style)
    (Modes.transform_name mode)

let determinism_failures = ref []

let same_every_pass ~what ~first v =
  if v <> first then
    determinism_failures :=
      Printf.sprintf "%s: %d in a later pass, %d in the first" what v first
      :: !determinism_failures

(* --- jacobi-exec ---------------------------------------------------- *)

(* The two matrices (2 x 257^2 doubles) span far more pages than the
   8-slot memory TLB.  Two iterations, so every row also runs the
   driver's buffer swap and reads what the first iteration wrote. *)
let exec_sz = 257
let exec_iters = 2

let rows_of env =
  List.concat_map
    (fun style ->
      List.concat_map
        (fun kind -> List.map (fun mode -> (kind, style, mode)) all_modes)
        kinds)
    styles
  |> List.map (fun (kind, style, mode) ->
         let what = label kind style mode in
         let kernel =
           if mode = Modes.Native then Some (Modes.native_addr env.e kind style)
           else
             Spans.request (fun () ->
                 timed ~what ~key:what transforms (fun () ->
                     transform ~use_memo:false env.e kind style mode))
         in
         (what, kind, style, mode, kernel))

let jacobi_exec rng ~tracing ~seconds =
  (* four points in two groups: the paper's stencil size, so the
     generic kinds do the same work per cell as the direct one, with a
     sorted group loop to run *)
  let groups = stencil rng ~points:4 ~ngroups:2 in
  Printf.eprintf "stencil: %s\n%!" (stencil_string groups);
  let setup () =
    let (env, rows), dt =
      timing (fun () ->
          let env = build ~sz:exec_sz groups in
          (env, rows_of env))
    in
    record peaks "set-up" dt;
    (env, rows)
  in
  let pass (env, rows) i =
    let cycles = ref 0 in
    List.iter
      (fun (what, kind, style, _, kernel) ->
        match kernel with
        | None -> () (* the failed transform is already counted *)
        | Some kernel -> (
          let r, dt =
            timing (fun () ->
                Spans.request (fun () ->
                    op ~what (fun () ->
                        run ~key:what env kind style ~kernel ~iters:exec_iters)))
          in
          record slices what dt;
          record units what dt;
          (match r with
           | Some cy ->
             cycles := !cycles + cy;
             check env kind ~iters:exec_iters ~what
           | None -> ());
          !between_items ()))
      rows;
    if i = 0 then begin
      sim_cycles := !cycles;
      code_bytes :=
        List.fold_left
          (fun acc (_, _, _, mode, kernel) ->
            match kernel with
            | Some k when mode <> Modes.Native -> acc + kernel_bytes env.e k
            | _ -> acc)
          0 rows
    end
    else same_every_pass ~what:"simulated cycles" ~first:!sim_cycles !cycles
  in
  let env, _ =
    measure ~tracing ~seconds ~reps:(if tracing then 1 else 21) ~setup ~pass
      ~envs:(fun (env, _) -> [ env ])
  in
  [ env ]

(* --- compile-cold --------------------------------------------------- *)

let cold_sz = 17

let compile_cold rng ~tracing ~seconds =
  let stencils = stencil_set rng in
  List.iter (fun g -> Printf.eprintf "stencil: %s\n%!" (stencil_string g)) stencils;
  let setup () = List.map (build ~sz:cold_sz) stencils in
  (* one request: a cold transform, then a 1-iteration check run *)
  let request ~key env kind style mode =
    let what = label kind style mode in
    match
      timed ~what ~key transforms (fun () ->
          transform ~use_memo:false env.e kind style mode)
    with
    | None -> None
    | Some kernel -> (
      let installed = now () in
      match
        timed ~what ~key slices (fun () -> run ~key env kind style ~kernel ~iters:1)
      with
      | Some cy ->
        check env kind ~iters:1 ~what;
        Some (kernel, cy, installed)
      | None -> Some (kernel, 0, installed))
  in
  let pass envs i =
    let cycles = ref 0 and bytes = ref 0 in
    List.iteri
      (fun ei env ->
        (* the direct kernels ignore the stencil: request them once *)
        let kinds = if ei = 0 then kinds else [ Modes.Flat; Modes.Sorted ] in
        let t0 = now () and x0 = !excluded_s in
        let last = ref 0.0 in
        List.iter
          (fun style ->
            List.iter
              (fun kind ->
                List.iter
                  (fun mode ->
                    let key = Printf.sprintf "%d/%s" ei (label kind style mode) in
                    let r, dt =
                      timing (fun () ->
                          Spans.request (fun () -> request ~key env kind style mode))
                    in
                    record units key dt;
                    (match r with
                     | Some (kernel, cy, installed) ->
                       cycles := !cycles + cy;
                       bytes := !bytes + kernel_bytes env.e kernel;
                       last := installed -. t0 -. (!excluded_s -. x0)
                     | None -> ());
                    !between_items ())
                  jit_modes)
              kinds)
          styles;
        record peaks (string_of_int ei) !last)
      envs;
    if i = 0 then begin
      sim_cycles := !cycles;
      code_bytes := !bytes
    end
    else same_every_pass ~what:"simulated cycles" ~first:!sim_cycles !cycles
  in
  measure ~tracing ~seconds ~reps:(if tracing then 1 else 15) ~setup ~pass
    ~envs:Fun.id

(* --- tier probe ------------------------------------------------------ *)

(* Neither workload tiers, so the traced run ends with a probe of the
   runtime-rewriting path: a cold and a warm tiered run of one
   partially-hot schedule on a 65x65 environment of the workload's first
   stencil.  The tier, sentinel and memo layers are measured there. *)

let tier_sz = 65
let tier_slices = 48

(* weighted block executions before a Cold site tiers up (x4 for
   Warm -> Hot): at 65x65 the hot site reaches the top tier part-way
   through a run *)
let tier_cfg = { Tier.default_config with Tier.hot_threshold = 1_000_000 }

let tier_sites =
  [ (Modes.Flat, Modes.Element); (Modes.Flat, Modes.Line);
    (Modes.Sorted, Modes.Element); (Modes.Sorted, Modes.Line) ]

(* A partially-hot schedule: the first site takes three slices in four,
   the others round-robin the rest in seeded order. *)
let tier_schedule rng =
  let hot = List.hd tier_sites in
  let cold = shuffle rng (List.tl tier_sites) in
  Tier.partially_hot ~slices:tier_slices ~hot ~cold

(* Sentinel.serve time of every tier-up, as the controller accounts it *)
let serve_samples = ref []

let robust () =
  let r = Robust.stats in
  (r.Robust.degraded, r.Robust.sentinel_divergences)

(* One tiered run of [schedule] on [env]: fresh controller and sentinel
   state; the client calls run_slice then poll for every slice.  A
   [cold] run first drops the transform memos, so its tier-ups compile;
   a warm run serves them from the memo.  Returns the controller's
   compiles and patches and the slices until the last thunk patch. *)
let tier_run env schedule ~cold =
  if cold then begin
    Hashtbl.reset env.e.Modes.memo;
    Api.memo_reset ()
  end;
  Sen.reset ();
  let ctl = Tier.create ~cfg:tier_cfg env.e in
  Array.iter (fun (k, st) -> ignore (Tier.register ctl k st)) schedule;
  Modes.reset env.e;
  let deg0, div0 = robust () in
  let to_peak = ref 0 in
  Array.iteri
    (fun i (k, st) ->
      let s = Tier.register ctl k st in
      let what = Printf.sprintf "slice %d (%s)" i (Tier.site_key s) in
      let key = Printf.sprintf "probe/%b/%d" cold i in
      let slice () =
        ignore (executing "tier.run_slice" ~key (fun () -> Tier.run_slice ctl s ~slice:i));
        let p0 = ctl.Tier.patches and c0 = ctl.Tier.compile_s in
        if Spans.span "tier.poll" (fun () -> Tier.poll ctl) then
          add serve_samples (ctl.Tier.compile_s -. c0);
        if ctl.Tier.patches > p0 then to_peak := i + 1
      in
      Spans.request (fun () -> ignore (op ~what slice)))
    schedule;
  let what = Printf.sprintf "tier run (%s)" (if cold then "cold" else "warm") in
  incr attempted;
  check env Modes.Flat ~iters:(Array.length schedule) ~what;
  (* every tier-up is a serve; fallbacks and sentinel divergences are
     failed serves *)
  attempted := !attempted + ctl.Tier.compiles;
  let deg1, div1 = robust () in
  let bad = deg1 - deg0 + (div1 - div0) in
  if bad > 0 then begin
    failed := !failed + bad;
    Printf.eprintf
      "perfbench: FAILED %s [stage sentinel] %d degraded serve(s), %d \
       divergence(s)\n%!"
      what (deg1 - deg0) (div1 - div0)
  end;
  (ctl.Tier.compiles, ctl.Tier.patches, !to_peak)

(* The probe's counts repeat exactly for a seed; they are added to the
   counts and returned for the determinism fingerprint. *)
let tier_probe rng groups =
  let env = build ~sz:tier_sz groups in
  let schedule = tier_schedule rng in
  let runs = List.map (fun cold -> tier_run env schedule ~cold) [ true; false ] in
  let total f = float_of_int (List.fold_left (fun a r -> a + f r) 0 runs) in
  let tier =
    [ ("tier.compiles", total (fun (c, _, _) -> c));
      ("tier.patches", total (fun (_, p, _) -> p));
      ("tier.slices_to_peak",
       median (List.map (fun (_, _, t) -> float_of_int t) runs)) ]
  in
  recording := true;
  List.iter (fun (name, v) -> count name v) tier;
  recording := false;
  (env, tier)

(* ------------------------------------------------------------------ *)
(* Results                                                             *)
(* ------------------------------------------------------------------ *)

let peak_rss_mb () =
  let ic = open_in "/proc/self/status" in
  Fun.protect ~finally:(fun () -> close_in ic) (fun () ->
      let rec go () =
        match input_line ic with
        | line when String.length line > 6 && String.sub line 0 6 = "VmHWM:" ->
          Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d kB"
            (fun kb -> float_of_int kb /. 1024.0)
        | _ -> go ()
        | exception End_of_file -> nan
      in
      go ())

(* a metric: name, unit, value, and the samples it was taken over *)
type metric = { name : string; unit_ : string; value : float; samples : float list }

let of_samples name unit_ ~scale ~stat samples =
  let samples = List.map (fun v -> v *. scale) samples in
  { name; unit_; value = stat samples; samples }

let exact name unit_ v = { name; unit_; value = v; samples = [ v ] }

let ratio a b = if a +. b > 0.0 then a /. (a +. b) else 0.0

(* Statistics over items, each the median over the passes of its times
   at the reference host speed. *)
let end_to_end () =
  let tf = items transforms in
  let exec_s = sum (items execs) in
  let insns = float_of_int (Hashtbl.fold (fun _ n acc -> acc + n) exec_insns 0) in
  let units = items units in
  [ of_samples "setup_s" "s" ~scale:1.0 ~stat:median (List.map at_ref !setup_samples);
    { (exact "wall_s" "s" (sum units)) with samples = units };
    exact "exec_mips" "MIPS" (insns /. exec_s /. 1e6);
    exact "sim_mcycles" "Mcycles" (float_of_int !sim_cycles /. 1e6);
    exact "code_kb" "KiB" (float_of_int !code_bytes /. 1024.0);
    of_samples "transform_p50_ms" "ms" ~scale:1e3 ~stat:median tf;
    of_samples "transform_p90_ms" "ms" ~scale:1e3 ~stat:(percentile 0.90) tf;
    { (exact "transforms_per_s" "1/s" (float_of_int (List.length tf) /. sum tf)) with
      samples = tf };
    of_samples "slice_p50_ms" "ms" ~scale:1e3 ~stat:median (items slices);
    of_samples "slice_p99_ms" "ms" ~scale:1e3 ~stat:(percentile 0.99) (items slices);
    of_samples "time_to_peak_s" "s" ~scale:1.0 ~stat:median (items peaks);
    exact "peak_rss_mb" "MB" (peak_rss_mb ()) ]

let span_ms name =
  of_samples (name ^ "_ms") "ms" ~scale:1e3 ~stat:median (Spans.self_times name)

(* Robust.stats and the memo counters start at zero in this process. *)
let per_layer envs =
  let c = counted in
  let r = Robust.stats in
  let mh, mm =
    List.fold_left
      (fun (h, m) env ->
        let h', m' = Modes.memo_stats env.e in
        (h + h', m + m'))
      (0, 0) envs
  in
  let mh = float_of_int mh and mm = float_of_int mm in
  [ span_ms "dbrew.rewrite"; exact "dbrew.items_out" "count" (c "dbrew.items_out");
    span_ms "lifter.lift"; exact "lifter.ir_instrs_out" "count" (c "lifter.ir_instrs_out");
    span_ms "opt.run"; exact "opt.ir_instrs_in" "count" (c "opt.ir_instrs_in");
    exact "opt.ir_instrs_out" "count" (c "opt.ir_instrs_out") ]
  @ List.map (fun p -> exact ("opt.changes." ^ p) "count" (c ("opt.changes." ^ p))) opt_passes
  @ [ span_ms "backend.emit"; exact "backend.items_out" "count" (c "backend.items_out");
      span_ms "x86.install";
      exact "x86.install_dedup_ratio" "ratio"
        (ratio (c "x86.install_hits") (c "x86.install_misses"));
      exact "x86.code_bytes" "bytes" (c "x86.code_bytes");
      span_ms "x86.exec"; exact "x86.insns" "count" (c "x86.insns");
      exact "x86.minor_words_per_insn" "words"
        (if c "x86.insns" > 0.0 then c "x86.minor_words" /. c "x86.insns" else 0.0);
      exact "x86.block_hit_ratio" "ratio" (ratio (c "x86.block_hits") (c "x86.blocks_built"));
      exact "x86.blocks_built" "count" (c "x86.blocks_built");
      exact "x86.chain_ratio" "ratio"
        (ratio (c "x86.block_chained") (c "x86.block_hits" +. c "x86.blocks_built"));
      exact "x86.ic_hit_ratio" "ratio" (ratio (c "x86.ic_hits") (c "x86.ic_misses"));
      exact "x86.trace_side_exits" "count" (c "x86.trace_side_exits");
      exact "x86.flag_records" "count" (c "x86.flag_records");
      exact "x86.flag_materialized" "count" (c "x86.flag_materialized");
      exact "x86.block_flushes" "count" (c "x86.block_flushes");
      span_ms "core.transform";
      exact "core.memo_hit_ratio" "ratio" (ratio mh mm);
      of_samples "sentinel.serve_ms" "ms" ~scale:1e3 ~stat:median !serve_samples;
      exact "sentinel.checks" "count" (float_of_int r.Robust.sentinel_checks);
      exact "sentinel.divergences" "count" (float_of_int r.Robust.sentinel_divergences);
      span_ms "tier.poll"; span_ms "tier.run_slice";
      exact "tier.compiles" "count" (c "tier.compiles");
      exact "tier.patches" "count" (c "tier.patches");
      exact "tier.slices_to_peak" "count" (c "tier.slices_to_peak");
      exact "fault.failures" "count" (float_of_int r.Robust.failures);
      exact "fault.degraded" "count" (float_of_int r.Robust.degraded);
      exact "trace.overhead_ratio" "ratio" (median !traced_walls /. median !untraced_walls) ]

let row_json m =
  let q1, med, q3 = quartiles m.samples in
  let fin v = if Float.is_finite v then Json.Float v else Json.Null in
  Json.Obj
    [ ("metric", Json.Str m.name); ("unit", Json.Str m.unit_);
      ("value", fin m.value); ("median", fin med); ("q1", fin q1); ("q3", fin q3);
      ("n", Json.Int (List.length m.samples)) ]

let print_table workload metrics =
  Printf.eprintf "\n%-28s %-8s %14s %14s %14s %7s   [%s]\n" "metric" "unit" "value"
    "q1" "q3" "n" workload;
  List.iter
    (fun m ->
      let q1, _, q3 = quartiles m.samples in
      Printf.eprintf "%-28s %-8s %14.6g %14.6g %14.6g %7d\n" m.name m.unit_ m.value q1 q3
        (List.length m.samples))
    metrics;
  prerr_newline ()

(* ------------------------------------------------------------------ *)
(* Determinism fingerprint                                             *)
(* ------------------------------------------------------------------ *)

(* reports, spans and fingerprints, relative to the repository root *)
let out_dir = "_perfbench"

(* Counts that must repeat exactly for a given seed and build: those of
   the measured passes, shared by traced and untraced runs, and those of
   the tier probe, which only the traced run makes. *)
let fingerprint () =
  Json.Obj
    ([ ("sim_cycles", Json.Int !sim_cycles); ("code_bytes", Json.Int !code_bytes);
       ("x86.insns", Json.Float (counted "x86.insns")) ]
    @ List.map
        (fun p -> ("opt.changes." ^ p, Json.Float (counted ("opt.changes." ^ p))))
        opt_passes
    @ [ ("checks", Json.Str (Digest.to_hex (Digest.string (String.concat ";" (List.rev !checks))))) ])

let mkdir_p dir =
  let rec go d =
    if d <> "." && d <> "/" && not (Sys.file_exists d) then begin
      go (Filename.dirname d);
      Sys.mkdir d 0o755
    end
  in
  go dir

let write_file path s =
  mkdir_p (Filename.dirname path);
  let oc = open_out path in
  output_string oc s;
  output_char oc '\n';
  close_out oc

let read_file path =
  let ic = open_in path in
  Fun.protect ~finally:(fun () -> close_in ic) (fun () ->
      String.trim (really_input_string ic (in_channel_length ic)))

(* Kept under the output directory keyed by [name] (workload and seed)
   and the executable's digest, and compared on every later run. *)
let check_fingerprint ~name fp =
  let fp = Json.to_string fp in
  let exe = Digest.to_hex (Digest.file Sys.executable_name) in
  let path =
    Filename.concat out_dir (Printf.sprintf "fingerprints/%s-%s.json" name exe)
  in
  if Sys.file_exists path then begin
    let prev = read_file path in
    if prev <> fp then
      determinism_failures :=
        Printf.sprintf "counts differ from an earlier run of this seed:\n  was %s\n  now %s"
          prev fp
        :: !determinism_failures
  end
  else write_file path fp

(* ------------------------------------------------------------------ *)
(* Main                                                                *)
(* ------------------------------------------------------------------ *)

let usage () =
  prerr_endline
    "usage: obrew_perf --workload jacobi-exec|compile-cold --seed N \
     --seconds S --trace 0|1";
  exit 2

let () =
  let workload = ref "" and seed = ref None and seconds = ref None in
  let trace = ref None in
  let rec parse = function
    | "--workload" :: w :: tl -> workload := w; parse tl
    | "--seed" :: n :: tl -> seed := int_of_string_opt n; parse tl
    | "--seconds" :: n :: tl -> seconds := float_of_string_opt n; parse tl
    | "--trace" :: ("0" | "1" as t) :: tl -> trace := Some (t = "1"); parse tl
    | "--json-selftest" :: _ ->
      (* strings that OCaml's %S would escape differently from JSON *)
      print_endline
        (Json.to_string
           (Json.Obj
              [ ("quote\"back\\slash", Json.Str "tab\tnl\ncr\rnul\000bel\007del\127");
                ("utf8", Json.Str "\xc3\xa9\xe2\x86\x92");
                ("nums", Json.List [ Json.Int (-3); Json.Float 0.1; Json.Float 1e-300;
                                     Json.Float 123456789.125; Json.Float 2.0 ]) ]));
      exit 0
    | [] -> ()
    | _ -> usage ()
  in
  parse (List.tl (Array.to_list Sys.argv));
  let seed, seconds, tracing =
    match (!seed, !seconds, !trace) with
    | Some s, Some t, Some tr when t > 0.0 -> (s, t, tr)
    | _ -> usage ()
  in
  let workload = !workload in
  let rng = Random.State.make [| seed; Hashtbl.hash workload |] in
  let envs =
    match workload with
    | "jacobi-exec" -> jacobi_exec rng ~tracing ~seconds
    | "compile-cold" -> compile_cold rng ~tracing ~seconds
    | _ -> usage ()
  in
  let name = Printf.sprintf "%s-seed%d" workload seed in
  check_fingerprint ~name (fingerprint ());
  let metrics =
    if not tracing then end_to_end ()
    else begin
      let probe_env, tier =
        tier_probe rng (match envs with env :: _ -> env.groups | [] -> [])
      in
      check_fingerprint ~name:(name ^ "-tier")
        (Json.Obj (List.map (fun (k, v) -> (k, Json.Float v)) tier));
      per_layer (envs @ [ probe_env ])
    end
  in
  let tag = Printf.sprintf "%s-seed%d-trace%d" workload seed (if tracing then 1 else 0) in
  print_table workload metrics;
  let calib = List.map snd !calib_samples in
  let q1, m, q3 = quartiles calib in
  Printf.eprintf
    "host: fixed work median %.3f ms (quartiles %.3f %.3f, %d samples; reference %.3f ms)\n%!"
    (m *. 1e3) (q1 *. 1e3) (q3 *. 1e3) (List.length calib) (calib_ref_s *. 1e3);
  write_file
    (Filename.concat out_dir ("report-" ^ tag ^ ".json"))
    (Json.to_string
       (Json.Obj
          [ ("workload", Json.Str workload); ("seed", Json.Int seed);
            ("traced", Json.Bool tracing); ("attempted", Json.Int !attempted);
            ("failed", Json.Int !failed); ("rows", Json.List (List.map row_json metrics));
            ("reference_ms", Json.Float (calib_ref_s *. 1e3));
            (* the fixed work's samples: seconds since the first, time *)
            ("calibration_ms",
             Json.List
               (let t0 = match Lazy.force calib_run with [||] -> 0.0 | a -> fst a.(0) in
                List.rev_map
                  (fun (t, v) -> Json.List [ Json.Float (t -. t0); Json.Float (v *. 1e3) ])
                  !calib_samples));
            (* the items of a pass (rows, requests) at the reference speed *)
            ("items",
             Json.Obj
               (List.sort compare
                  (List.map (fun (k, v) -> (k, Json.Float v)) (item_values units))))
          ]));
  if tracing then
    write_file (Filename.concat out_dir ("spans-" ^ tag ^ ".json")) (Json.to_string (Spans.to_json ()));
  if !determinism_failures <> [] then begin
    List.iter (Printf.eprintf "perfbench: NOT DETERMINISTIC: %s\n") !determinism_failures;
    exit 3
  end;
  (match List.find_opt (fun m -> not (Float.is_finite m.value)) metrics with
   | Some m ->
     Printf.eprintf "perfbench: metric %s has no samples\n" m.name;
     exit 4
   | None -> ());
  let correct = !mismatches = 0 && Robust.stats.Robust.sentinel_divergences = 0 in
  print_endline
    (Json.to_string
       (Json.Obj
          [ ("correct", Json.Bool correct); ("attempted", Json.Int !attempted);
            ("failed", Json.Int !failed);
            ("metrics",
             Json.Obj
               (List.map
                  (fun m ->
                    (m.name, Json.Obj [ ("value", Json.Float m.value); ("unit", Json.Str m.unit_) ]))
                  metrics)) ]))
