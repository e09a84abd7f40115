(* Provenance layer tests: guest-address stamping at lift time,
   preservation through the optimizer, remark recording, cycle
   attribution in both execution engines, and the annotated
   disassembly. *)

open Obrew_x86
open Obrew_ir
open Obrew_opt
open Ins
module Prov = Obrew_provenance.Provenance
module Json = Obrew_telemetry.Json

let check = Alcotest.check
let cint = Alcotest.int

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  m = 0 || go 0

(* run [f] with provenance enabled and a clean slate, restoring the
   disabled default afterwards *)
let with_prov f =
  Prov.reset ();
  Prov.enable ();
  Fun.protect ~finally:(fun () -> Prov.disable (); Prov.reset ()) f

let max_code =
  let open Insn in
  [ I (Mov (W64, OReg Reg.RAX, OReg Reg.RDI));
    I (Alu (Cmp, W64, OReg Reg.RDI, OReg Reg.RSI));
    I (Cmov (L, W64, Reg.RAX, OReg Reg.RSI));
    I Ret ]

let lift_max ?(flag_cache = true) img =
  let fn = Image.install_code img max_code in
  ( fn,
    Obrew_lifter.Lift.lift
      ~config:{ Obrew_lifter.Lift.default_config with flag_cache }
      ~read:(Mem.read_u8 img.Image.cpu.Cpu.mem)
      ~entry:fn ~name:"max"
      { args = [ I64; I64 ]; ret = Some I64 } )

(* --- stamping and preservation --- *)

(* Every instruction lifted from guest code carries a valid guest
   address (the entry block holds only synthetic scaffolding). *)
let test_lift_stamps () =
  let img = Image.create () in
  let fn, f = lift_max img in
  let entry_bid = (entry_block f).bid in
  let checked = ref 0 in
  List.iter
    (fun (b : block) ->
      if b.bid <> entry_bid then
        List.iter
          (fun i ->
            incr checked;
            if not (Prov.is_some i.prov) then
              Alcotest.failf "instr %%%d in bb%d has no provenance" i.id
                b.bid;
            let a = Prov.addr i.prov in
            if a < fn || a >= fn + 16 then
              Alcotest.failf "instr %%%d: guest addr 0x%x outside kernel"
                i.id a)
          b.instrs)
    f.blocks;
  check Alcotest.bool "checked some instrs" true (!checked > 0)

(* The full -O3 pipeline may merge and delete, but every surviving
   instruction outside the entry block still maps into the kernel. *)
let test_opt_preserves () =
  let img = Image.create () in
  let fn, f = lift_max img in
  Pipeline.run { funcs = [ f ]; globals = [] };
  Verify.assert_ok f;
  let entry_bid = (entry_block f).bid in
  List.iter
    (fun (b : block) ->
      if b.bid <> entry_bid then
        List.iter
          (fun i ->
            if not (Prov.is_some i.prov) then
              Alcotest.failf "optimized instr %%%d lost provenance" i.id;
            let a = Prov.addr i.prov in
            if a < fn || a >= fn + 16 then
              Alcotest.failf "optimized instr %%%d: addr 0x%x escaped" i.id a)
          b.instrs)
    f.blocks

(* --- remarks --- *)

(* DCE records exactly one Deleted remark per removed instruction,
   carrying that instruction's provenance. *)
let test_dce_remarks () =
  with_prov (fun () ->
      let b =
        Builder.create ~name:"f" ~sg:{ args = [ I64 ]; ret = Some I64 }
      in
      Builder.set_prov b (Prov.make ~addr:0x400010 ~ord:1);
      let d1 = Builder.bin b Add I64 (V 0) (CInt (I64, 1L)) in
      Builder.set_prov b (Prov.make ~addr:0x400013 ~ord:2);
      let _d2 = Builder.bin b Mul I64 d1 (CInt (I64, 3L)) in
      Builder.set_prov b (Prov.make ~addr:0x400016 ~ord:3);
      let live = Builder.bin b Sub I64 (V 0) (CInt (I64, 2L)) in
      Builder.ret b (Some live);
      let f = Builder.func b in
      ignore (Dce.run f);
      check cint "one instruction survives" 1
        (List.length (entry_block f).instrs);
      let deleted = ref [] in
      Prov.iter_remarks (fun r ->
          if r.Prov.pass = "dce" && r.Prov.action = Prov.Deleted then
            deleted := Prov.addr r.Prov.prov :: !deleted);
      check
        Alcotest.(list int)
        "one Deleted remark per dead instr, with its provenance"
        [ 0x400010; 0x400013 ]
        (List.sort compare !deleted);
      (* the --remarks export, read back, lists the same remarks *)
      match
        Json.member "remarks"
          (Json.parse (Json.to_string (Prov.export_remarks ())))
      with
      | Json.List rs ->
        check Alcotest.(list int) "exported dce remarks" [ 0x400010; 0x400013 ]
          (List.filter_map
             (fun r ->
               match (Json.member "pass" r, Json.member "guest_addr" r) with
               | Json.String "dce", Json.Int a -> Some a
               | _ -> None)
             rs
           |> List.sort compare)
      | _ -> Alcotest.fail "remarks export is not a list")

(* The lifter's flag cache leaves a remark attributed to the flag
   consumer (the reconstruction happens where the condition is read). *)
let test_flag_cache_remark () =
  with_prov (fun () ->
      let img = Image.create () in
      let fn, _ = lift_max ~flag_cache:true img in
      let cmov_addr = fn + 6 (* mov and cmp are 3 bytes each *) in
      let found = ref false in
      Prov.iter_remarks (fun r ->
          if
            r.Prov.pass = "lift"
            && r.Prov.action = Prov.Specialized
            && Prov.addr r.Prov.prov = cmov_addr
          then found := true);
      check Alcotest.bool "flag-cache remark on the consumer" true !found)

(* A pass rolled back by the verifier gate takes its remarks with it:
   an injected fault in dce must leave no dce remarks behind. *)
let test_rollback_drops_remarks () =
  with_prov (fun () ->
      let img = Image.create () in
      let _, f = lift_max img in
      (match Obrew_fault.Fault.parse "opt.dce:0:100" with
       | Ok plan -> Obrew_fault.Fault.install plan
       | Error m -> Alcotest.fail m);
      Fun.protect ~finally:Obrew_fault.Fault.clear (fun () ->
          let dropped =
            Pipeline.run_checked { funcs = [ f ]; globals = [] }
          in
          check Alcotest.bool "dce was dropped" true
            (List.exists (fun (n, _) -> n = "dce") dropped);
          Prov.iter_remarks (fun r ->
              if r.Prov.pass = "dce" then
                Alcotest.fail "rolled-back dce left a remark")))

(* --- profiler --- *)

(* Per-address cycle totals sum exactly to the engine's cycle counter,
   under both the single-step and the superblock engine. *)
let profiled_run engine =
  with_prov (fun () ->
      let img = Image.create () in
      let fn, _ = lift_max img in
      let c0 = img.Image.cpu.Cpu.cycles in
      ignore (Image.call ~engine img ~fn ~args:[ 7L; 9L ]);
      ignore (Image.call ~engine img ~fn ~args:[ 9L; 7L ]);
      let engine_cycles = img.Image.cpu.Cpu.cycles - c0 in
      let prof_cycles, prof_execs = Prov.profile_totals () in
      check cint "profiler sums to the engine total" engine_cycles
        prof_cycles;
      check Alcotest.bool "execs recorded" true (prof_execs > 0);
      (* the --profile-out export, read back, carries the same totals *)
      let j = Json.parse (Json.to_string (Prov.export_profile ())) in
      check cint "exported total_cycles" prof_cycles
        (match Json.member "total_cycles" j with
         | Json.Int n -> n
         | _ -> Alcotest.fail "total_cycles is not an int");
      (* and every profiled address is inside the installed kernel *)
      Prov.iter_insn_profile (fun ~addr ~cycles:_ ~execs:_ ->
          if addr < fn || addr >= fn + 16 then
            Alcotest.failf "profiled addr 0x%x outside kernel" addr))

let test_profile_superblocks () = profiled_run Cpu.Superblocks
let test_profile_single_step () = profiled_run Cpu.SingleStep

(* The superblock profile equals the single-step one address by
   address, not just in total.  Blocks are built unpaired while
   profiling and each slot records its own cycles, so this holds across
   trace side exits, a faulting block and blocks built before profiling
   was switched on.  The per-block totals sum to the engine's cycles. *)

let insn_rows () =
  let rows = ref [] in
  Prov.iter_insn_profile (fun ~addr ~cycles ~execs ->
      rows := (addr, cycles, execs) :: !rows);
  List.sort compare !rows

let block_total () =
  let t = ref 0 in
  Prov.iter_block_profile (fun ~entry:_ ~cycles ~execs:_ -> t := !t + cycles);
  !t

(* Install [code] on a fresh image, make the [warm] calls with
   profiling off, then the [calls] with profiling on.  A faulting call
   is swallowed.  Returns the per-address rows, the engine's cycle
   delta over [calls], the block-profile total and the cache stats. *)
let profile_calls ?(warm = []) engine code calls =
  let img = Image.create () in
  let fn = Image.install_code img code in
  let call args =
    try ignore (Image.call ~engine img ~fn ~args)
    with Obrew_fault.Err.Error _ -> ()
  in
  List.iter call warm;
  with_prov (fun () ->
      let cpu = img.Image.cpu in
      let c0 = cpu.Cpu.cycles in
      List.iter call calls;
      (insn_rows (), cpu.Cpu.cycles - c0, block_total (), Cpu.cache_stats cpu))

let check_equiv ?warm code calls =
  let sb_rows, sb_cycles, sb_blocks, stats =
    profile_calls ?warm Cpu.Superblocks code calls
  in
  let ss_rows, ss_cycles, _, _ = profile_calls Cpu.SingleStep code calls in
  check
    Alcotest.(list (triple int int int))
    "per-address profile equals single-step" ss_rows sb_rows;
  check Alcotest.bool "profile is not empty" true (sb_rows <> []);
  check cint "engine cycles equal single-step" ss_cycles sb_cycles;
  check cint "block profile sums to the engine delta" sb_cycles sb_blocks;
  stats

(* two counted loops: a cmp+jl backedge and a lone dec+jnz backedge *)
let loop_code =
  let open Insn in
  [ I (Alu (Xor, W32, OReg Reg.RAX, OReg Reg.RAX));
    I (Alu (Xor, W32, OReg Reg.RCX, OReg Reg.RCX));
    L 0;
    I (Alu (Add, W64, OReg Reg.RAX, OReg Reg.RCX));
    I (Alu (Add, W64, OReg Reg.RCX, OImm 1L));
    I (Alu (Cmp, W64, OReg Reg.RCX, OReg Reg.RDI));
    I (Jcc (L, Lbl 0));
    L 1;
    I (Alu (Add, W64, OReg Reg.RAX, OReg Reg.RSI));
    I (Unop (Dec, W64, OReg Reg.RSI));
    I (Jcc (NE, Lbl 1));
    I Ret ]

let loop_calls = [ [ 37L; 20L ]; [ 100L; 41L ]; [ 5L; 3L ] ]

let test_equiv_trace () =
  let s = check_equiv loop_code loop_calls in
  check Alcotest.bool "both loops became traces" true
    (s.Cpu.traces_built >= 2);
  check Alcotest.bool "traces side-exited" true (s.Cpu.trace_side_exits >= 2)

let test_equiv_fault () =
  let open Insn in
  ignore
    (check_equiv
       [ I (Mov (W64, OReg Reg.RAX, OReg Reg.RDI));
         I (Alu (Add, W64, OReg Reg.RAX, OReg Reg.RSI));
         I (Alu (Cmp, W64, OReg Reg.RAX, OReg Reg.RDI));
         I Ud2;
         I Ret ]
       [ [ 3L; 4L ] ])

let test_equiv_built_unprofiled () =
  let cold = check_equiv loop_code loop_calls in
  let warm = check_equiv ~warm:loop_calls loop_code loop_calls in
  check Alcotest.bool "traces were rebuilt for profiling" true
    (warm.Cpu.traces_built > cold.Cpu.traces_built);
  check cint "dropping stale blocks is not a flush" cold.Cpu.block_flushes
    warm.Cpu.block_flushes

(* Profiling off must leave the counters untouched. *)
let test_disabled_records_nothing () =
  Prov.reset ();
  Prov.disable ();
  let img = Image.create () in
  let fn, _ = lift_max img in
  ignore (Image.call img ~fn ~args:[ 1L; 2L ]);
  let cy, ex = Prov.profile_totals () in
  check cint "no cycles recorded" 0 cy;
  check cint "no execs recorded" 0 ex;
  check cint "no remarks recorded" 0 (Prov.remarks_recorded ())

(* --- annotated disassembly (Fig. 6 golden) --- *)

let test_annotate_fig6 () =
  with_prov (fun () ->
      let img = Image.create () in
      let _, f = lift_max ~flag_cache:true img in
      let m = { funcs = [ f ]; globals = [] } in
      Pipeline.run m;
      ignore (Obrew_backend.Jit.install_func img f);
      let out = Obrew_core.Annotate.annotate ~img ~modul:m ~fn:"max" () in
      (* the lifted compare appears with its guest bytes *)
      check Alcotest.bool "guest cmp shown" true
        (contains out "cmp rdi, rsi");
      (* the flag-cache reconstruction remark is attributed to it *)
      check Alcotest.bool "flag-cache remark shown" true
        (contains out "flag cache: condition reconstructed");
      (* the surviving IR (icmp + select) is interleaved *)
      check Alcotest.bool "surviving icmp shown" true
        (contains out "icmp slt i64");
      (* and the final host bytes are listed *)
      check Alcotest.bool "host bytes shown" true (contains out "  host | "))

let () =
  Alcotest.run "provenance"
    [ ( "stamping",
        [ Alcotest.test_case "lift stamps every instr" `Quick
            test_lift_stamps;
          Alcotest.test_case "o3 preserves provenance" `Quick
            test_opt_preserves ] );
      ( "remarks",
        [ Alcotest.test_case "dce: one Deleted per dead instr" `Quick
            test_dce_remarks;
          Alcotest.test_case "flag-cache remark" `Quick
            test_flag_cache_remark;
          Alcotest.test_case "rollback drops remarks" `Quick
            test_rollback_drops_remarks ] );
      ( "profiler",
        [ Alcotest.test_case "superblocks: cycles sum exactly" `Quick
            test_profile_superblocks;
          Alcotest.test_case "single-step: cycles sum exactly" `Quick
            test_profile_single_step;
          Alcotest.test_case "superblocks equal single-step: traces" `Quick
            test_equiv_trace;
          Alcotest.test_case "superblocks equal single-step: fault" `Quick
            test_equiv_fault;
          Alcotest.test_case
            "superblocks equal single-step: blocks built unprofiled" `Quick
            test_equiv_built_unprofiled;
          Alcotest.test_case "disabled records nothing" `Quick
            test_disabled_records_nothing ] );
      ( "annotate",
        [ Alcotest.test_case "fig6 golden" `Quick test_annotate_fig6 ] ) ]
