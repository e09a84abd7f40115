(* Schema validator for the machine-readable exports.

     validate_bench BENCH_fig9a.json [BENCH_fig9b.json ...]
     validate_bench --trace trace.json
     validate_bench --remarks remarks.json --profile profile.json
     validate_bench --sentinel sentinel.json --tier BENCH_tier.json
     validate_bench --engine-stats engine_stats.json --blackbox report.json
     validate_bench compare BASELINE.json CURRENT.json [--tol PCT]
     validate_bench compare-tier BASELINE.json CURRENT.json [--tol PCT]

   Checks BENCH_*.json files (written by `bench --json`),
   chrome://tracing files (`--trace`), optimizer-remark dumps
   (`--remarks`), cycle profiles (`--profile`), sentinel stats
   (`--sentinel-json`), engine stats (`--stats-json`) and black-box
   reports (`--blackbox`) against the shapes CI depends on, so a schema
   drift fails the pipeline instead of silently producing unreadable
   artifacts.  The `compare` subcommand diffs two BENCH files row by
   row and exits nonzero when any row's wall time regressed by more
   than the tolerance (default 10%) — the first consumer of the
   cross-PR bench trajectory.  It also prints the aggregate
   emulated-MIPS delta, and `--tol-mips PCT` makes a throughput drop
   beyond PCT a hard failure.  Files are read with the parser of
   [Obrew_telemetry.Json], the module every exporter prints with, so
   integers are compared exactly. *)

module Json = Obrew_telemetry.Json

exception Bad of string

let fail fmt = Printf.ksprintf (fun m -> raise (Bad m)) fmt

(* ------------------------------------------------------------------ *)
(* Accessors                                                           *)
(* ------------------------------------------------------------------ *)

let field ctx o k =
  match o with
  | Json.Obj kvs -> (
    match List.assoc_opt k kvs with
    | Some v -> v
    | None -> fail "%s: missing field %S" ctx k)
  | _ -> fail "%s: expected an object" ctx

let as_num ctx = function
  | Json.Int i -> float_of_int i
  | Json.Float f -> f
  | _ -> fail "%s: expected a number" ctx

let as_int ctx = function
  | Json.Int i -> i
  | Json.Float f when Float.is_integer f -> int_of_float f
  | Json.Float f -> fail "%s: expected an integer, got %g" ctx f
  | _ -> fail "%s: expected a number" ctx

let as_str ctx = function
  | Json.String s -> s
  | _ -> fail "%s: expected a string" ctx

let as_obj ctx = function
  | Json.Obj kvs -> kvs
  | _ -> fail "%s: expected an object" ctx

let as_arr ctx = function
  | Json.List l -> l
  | _ -> fail "%s: expected an array" ctx

(* ------------------------------------------------------------------ *)
(* Schemas                                                             *)
(* ------------------------------------------------------------------ *)

(* Counter objects may nest one level (e.g. superblocks.fused_pairs is a
   per-pattern breakdown); every leaf must be a non-negative integer. *)
let rec check_counts ctx v =
  List.iter
    (fun (k, n) ->
      let kctx = ctx ^ "." ^ k in
      match n with
      | Json.Obj _ -> check_counts kctx n
      | _ -> if as_int kctx n < 0 then fail "%s: negative" kctx)
    (as_obj ctx v)

(* The engine-counter object, one schema for BENCH files' "superblocks"
   and the `obrew_cli --stats-json` export.  The indirect-branch
   inline-cache counters travel as a pair: a file reporting hits without
   misses (or vice versa) is malformed.  Both absent is fine — baselines
   predating the counters stay readable.  The engine fuses exactly one
   shape, cmp/test+jcc; any other fused_pairs name is a stale file from
   the generic mega-op fusion. *)
let check_engine_counts ctx v =
  check_counts ctx v;
  let sb = as_obj ctx v in
  (match (List.mem_assoc "ic_hits" sb, List.mem_assoc "ic_misses" sb) with
   | true, false | false, true ->
     fail "%s: needs ic_hits and ic_misses together" ctx
   | _ -> ());
  match List.assoc_opt "fused_pairs" sb with
  | Some fp ->
    List.iter
      (fun (pat, _) ->
        if pat <> "cmp_jcc" then
          fail "%s.fused_pairs: unknown pattern %S" ctx pat)
      (as_obj (ctx ^ ".fused_pairs") fp)
  | None -> ()

(* Engine stats (written by `stencil --stats-json`): the counter object
   above at top level, behind a schema_version. *)
let check_engine_stats path (j : Json.t) =
  let ctx = Filename.basename path in
  let sv = as_int (ctx ^ ".schema_version") (field ctx j "schema_version") in
  if sv <> 1 then fail "%s: unsupported schema_version %d" ctx sv;
  check_engine_counts ctx j;
  Printf.printf "%s: OK (schema v%d, %d counters)\n" ctx sv
    (List.length (as_obj ctx j) - 1)

(* BENCH files: v1 lacked the tail-latency objects, v2 added
   serve_latency/stage_latency to the fig9 sections; both shapes remain
   readable so old baselines stay comparable. *)
let check_bench path (j : Json.t) =
  let ctx = Filename.basename path in
  let sv = as_int (ctx ^ ".schema_version") (field ctx j "schema_version") in
  if sv <> 1 && sv <> 2 then
    fail "%s: unsupported schema_version %d" ctx sv;
  let section = as_str (ctx ^ ".section") (field ctx j "section") in
  if not (String.length section > 3 && String.sub section 0 3 = "fig") then
    fail "%s: bad section %S" ctx section;
  if as_int (ctx ^ ".sz") (field ctx j "sz") < 3 then fail "%s: sz < 3" ctx;
  if as_int (ctx ^ ".iters") (field ctx j "iters") < 1 then
    fail "%s: iters < 1" ctx;
  let rows = as_obj (ctx ^ ".rows") (field ctx j "rows") in
  if rows = [] then fail "%s: rows is empty" ctx;
  List.iter
    (fun (name, row) ->
      let rctx = Printf.sprintf "%s.rows[%s]" ctx name in
      ignore (as_str (rctx ^ ".kind") (field rctx row "kind"));
      ignore (as_str (rctx ^ ".mode") (field rctx row "mode"));
      if as_int (rctx ^ ".cycles") (field rctx row "cycles") <= 0 then
        fail "%s: cycles <= 0" rctx;
      if as_int (rctx ^ ".insns") (field rctx row "insns") <= 0 then
        fail "%s: insns <= 0" rctx;
      if as_int (rctx ^ ".wall_ns") (field rctx row "wall_ns") < 0 then
        fail "%s: wall_ns < 0" rctx;
      ignore (as_num (rctx ^ ".wall_s") (field rctx row "wall_s")))
    rows;
  if as_num (ctx ^ ".emulated_mips") (field ctx j "emulated_mips") < 0.0 then
    fail "%s: emulated_mips < 0" ctx;
  let hr =
    as_num (ctx ^ ".superblock_hit_rate") (field ctx j "superblock_hit_rate")
  in
  if hr < 0.0 || hr > 1.0 then
    fail "%s: superblock_hit_rate %g out of [0,1]" ctx hr;
  check_engine_counts (ctx ^ ".superblocks") (field ctx j "superblocks");
  check_counts (ctx ^ ".transform_memo") (field ctx j "transform_memo");
  check_counts (ctx ^ ".dbrew_memo") (field ctx j "dbrew_memo");
  if sv >= 2 then begin
    let sl = field ctx j "serve_latency" in
    let sctx = ctx ^ ".serve_latency" in
    let g k = as_int (sctx ^ "." ^ k) (field sctx sl k) in
    if g "serves" < 1 then fail "%s: serves < 1" sctx;
    let p50 = g "p50_us" and p90 = g "p90_us" in
    let p99 = g "p99_us" and p999 = g "p999_us" in
    if p50 < 0 then fail "%s: negative p50_us" sctx;
    if not (p50 <= p90 && p90 <= p99 && p99 <= p999) then
      fail "%s: percentiles not monotone (%d/%d/%d/%d)" sctx p50 p90 p99
        p999;
    if as_num (sctx ^ ".throughput_rps") (field sctx sl "throughput_rps")
       <= 0.0
    then fail "%s: throughput_rps <= 0" sctx;
    let stages = as_obj (ctx ^ ".stage_latency") (field ctx j "stage_latency") in
    if stages = [] then fail "%s: stage_latency is empty" ctx;
    List.iter
      (fun (name, row) ->
        let rctx = Printf.sprintf "%s.stage_latency[%s]" ctx name in
        if as_int (rctx ^ ".spans") (field rctx row "spans") < 1 then
          fail "%s: spans < 1" rctx;
        let q50 = as_int (rctx ^ ".p50_ns") (field rctx row "p50_ns") in
        let q90 = as_int (rctx ^ ".p90_ns") (field rctx row "p90_ns") in
        let q99 = as_int (rctx ^ ".p99_ns") (field rctx row "p99_ns") in
        if q50 < 0 then fail "%s: negative p50_ns" rctx;
        if not (q50 <= q90 && q90 <= q99) then
          fail "%s: percentiles not monotone (%d/%d/%d)" rctx q50 q90 q99)
      stages
  end;
  Printf.printf "%s: OK (schema v%d, %d rows)\n" ctx sv (List.length rows)

let remark_actions =
  [ "deleted"; "merged"; "hoisted"; "unrolled"; "specialized" ]

let check_remarks path (j : Json.t) =
  let ctx = Filename.basename path in
  let sv = as_int (ctx ^ ".schema_version") (field ctx j "schema_version") in
  if sv <> 1 then fail "%s: unsupported schema_version %d" ctx sv;
  let rs = as_arr (ctx ^ ".remarks") (field ctx j "remarks") in
  List.iteri
    (fun i r ->
      let rctx = Printf.sprintf "%s.remarks[%d]" ctx i in
      if as_str (rctx ^ ".pass") (field rctx r "pass") = "" then
        fail "%s: empty pass" rctx;
      let action = as_str (rctx ^ ".action") (field rctx r "action") in
      if not (List.mem action remark_actions) then
        fail "%s: unknown action %S" rctx action;
      if as_int (rctx ^ ".guest_addr") (field rctx r "guest_addr") < 0 then
        fail "%s: negative guest_addr" rctx;
      if as_int (rctx ^ ".ord") (field rctx r "ord") < 0 then
        fail "%s: negative ord" rctx;
      ignore (as_str (rctx ^ ".detail") (field rctx r "detail")))
    rs;
  Printf.printf "%s: OK (%d remarks)\n" ctx (List.length rs)

let check_profile path (j : Json.t) =
  let ctx = Filename.basename path in
  let sv = as_int (ctx ^ ".schema_version") (field ctx j "schema_version") in
  if sv <> 1 then fail "%s: unsupported schema_version %d" ctx sv;
  let total = as_int (ctx ^ ".total_cycles") (field ctx j "total_cycles") in
  if total < 0 then fail "%s: negative total_cycles" ctx;
  if as_int (ctx ^ ".total_execs") (field ctx j "total_execs") < 0 then
    fail "%s: negative total_execs" ctx;
  let rows = as_arr (ctx ^ ".rows") (field ctx j "rows") in
  List.iteri
    (fun i r ->
      let rctx = Printf.sprintf "%s.rows[%d]" ctx i in
      if as_int (rctx ^ ".addr") (field rctx r "addr") < 0 then
        fail "%s: negative addr" rctx;
      let cy = as_int (rctx ^ ".cycles") (field rctx r "cycles") in
      if cy < 0 then fail "%s: negative cycles" rctx;
      if cy > total then fail "%s: cycles exceed total_cycles" rctx;
      if as_int (rctx ^ ".execs") (field rctx r "execs") <= 0 then
        fail "%s: execs <= 0" rctx;
      let share = as_num (rctx ^ ".share") (field rctx r "share") in
      if share < 0.0 || share > 1.0 then
        fail "%s: share %g out of [0,1]" rctx share)
    rows;
  let blocks = as_arr (ctx ^ ".blocks") (field ctx j "blocks") in
  List.iteri
    (fun i b ->
      let bctx = Printf.sprintf "%s.blocks[%d]" ctx i in
      if as_int (bctx ^ ".entry") (field bctx b "entry") < 0 then
        fail "%s: negative entry" bctx;
      if as_int (bctx ^ ".cycles") (field bctx b "cycles") < 0 then
        fail "%s: negative cycles" bctx;
      if as_int (bctx ^ ".execs") (field bctx b "execs") <= 0 then
        fail "%s: execs <= 0" bctx)
    blocks;
  Printf.printf "%s: OK (%d rows, %d blocks, %d cycles)\n" ctx
    (List.length rows) (List.length blocks) total

(* Sentinel runtime-validation stats (written by `stencil
   --sentinel-json`).  The counter inequalities are structural: every
   quarantine entry was produced by a divergence, and every demotion
   implies at least one check ran. *)
let sentinel_counters =
  [ "checks"; "divergences"; "quarantined"; "demotions"; "healed";
    "heal_retries"; "blocked_serves" ]

let check_sentinel ~min_divergences ~min_demotions path (j : Json.t) =
  let ctx = Filename.basename path in
  let sv = as_int (ctx ^ ".schema_version") (field ctx j "schema_version") in
  if sv <> 1 then fail "%s: unsupported schema_version %d" ctx sv;
  let get k = as_int (ctx ^ "." ^ k) (field ctx j k) in
  List.iter
    (fun k -> if get k < 0 then fail "%s: negative %s" ctx k)
    sentinel_counters;
  if get "quarantined" > get "divergences" then
    fail "%s: quarantined (%d) exceeds divergences (%d)" ctx
      (get "quarantined") (get "divergences");
  if get "demotions" > 0 && get "checks" = 0 then
    fail "%s: demotions without any checks" ctx;
  if get "divergences" < min_divergences then
    fail "%s: divergences %d below required minimum %d" ctx
      (get "divergences") min_divergences;
  if get "demotions" < min_demotions then
    fail "%s: demotions %d below required minimum %d" ctx (get "demotions")
      min_demotions;
  Printf.printf
    "%s: OK (checks %d, divergences %d, quarantined %d, demotions %d, \
     healed %d)\n"
    ctx (get "checks") (get "divergences") (get "quarantined")
    (get "demotions") (get "healed")

(* Tiered-compilation figure (written by `bench --only tier --json`):
   per-strategy totals plus per-site tier rows.  Beyond shape, the
   structural invariants of the controller are re-checked here: the
   never-tier control must not have tiered or patched anything, every
   strategy must agree on slice count, and the figure's headline claim
   — the tiered run spends fewer simulated cycles than the never-tier
   control — must hold in the file CI archives. *)
let tier_strategies = [ "tiered"; "always"; "never" ]
let tier_levels = [ "cold"; "warm"; "hot" ]

let check_tier path (j : Json.t) =
  let ctx = Filename.basename path in
  let sv = as_int (ctx ^ ".schema_version") (field ctx j "schema_version") in
  if sv <> 1 && sv <> 2 then
    fail "%s: unsupported schema_version %d" ctx sv;
  let section = as_str (ctx ^ ".section") (field ctx j "section") in
  if section <> "tier" then fail "%s: bad section %S" ctx section;
  if as_int (ctx ^ ".sz") (field ctx j "sz") < 3 then fail "%s: sz < 3" ctx;
  let slices = as_int (ctx ^ ".slices") (field ctx j "slices") in
  if slices < 1 then fail "%s: slices < 1" ctx;
  if as_int (ctx ^ ".hot_threshold") (field ctx j "hot_threshold") < 1 then
    fail "%s: hot_threshold < 1" ctx;
  let strategies = field ctx j "strategies" in
  let strat name =
    field (ctx ^ ".strategies") strategies name
  in
  let get s k = as_int (Printf.sprintf "%s.%s.%s" ctx s k) (field s (strat s) k) in
  let getf s k = as_num (Printf.sprintf "%s.%s.%s" ctx s k) (field s (strat s) k) in
  List.iter
    (fun s ->
      List.iter
        (fun k -> if get s k < 0 then fail "%s.%s: negative %s" ctx s k)
        [ "total_cycles"; "total_insns"; "cycles_to_peak"; "slices_to_peak";
          "reached_peak"; "hot_sites"; "patches"; "tierups"; "demotions";
          "compiles" ];
      List.iter
        (fun k -> if getf s k < 0.0 then fail "%s.%s: negative %s" ctx s k)
        [ "compile_s"; "wall_s"; "time_to_peak_s" ];
      if get s "total_cycles" = 0 then fail "%s.%s: total_cycles = 0" ctx s;
      if get s "tierups" > get s "compiles" then
        fail "%s.%s: tierups exceed compiles" ctx s;
      if get s "demotions" > get s "compiles" then
        fail "%s.%s: demotions exceed compiles" ctx s;
      let sites =
        as_obj (Printf.sprintf "%s.%s.sites" ctx s) (field s (strat s) "sites")
      in
      if sites = [] then fail "%s.%s: no sites" ctx s;
      let total_slices = ref 0 in
      List.iter
        (fun (name, row) ->
          let rctx = Printf.sprintf "%s.%s.sites[%s]" ctx s name in
          let lvl = as_str (rctx ^ ".level") (field rctx row "level") in
          if not (List.mem lvl tier_levels) then
            fail "%s: unknown level %S" rctx lvl;
          total_slices :=
            !total_slices + as_int (rctx ^ ".slices") (field rctx row "slices");
          if as_int (rctx ^ ".compiles") (field rctx row "compiles") < 0 then
            fail "%s: negative compiles" rctx;
          if as_int (rctx ^ ".patches") (field rctx row "patches") < 0 then
            fail "%s: negative patches" rctx)
        sites;
      if !total_slices <> slices then
        fail "%s.%s: site slices sum to %d, expected %d" ctx s !total_slices
          slices)
    tier_strategies;
  if get "never" "tierups" <> 0 || get "never" "patches" <> 0 then
    fail "%s: never-tier control tiered up or patched" ctx;
  if get "tiered" "total_cycles" >= get "never" "total_cycles" then
    fail "%s: tiered total_cycles (%d) not below never-tier (%d)" ctx
      (get "tiered" "total_cycles")
      (get "never" "total_cycles");
  if get "tiered" "reached_peak" <> 1 then
    fail "%s: tiered run did not reach the top tier" ctx;
  Printf.printf
    "%s: OK (tiered %d cycles vs never %d, peak after %d of %d slices)\n" ctx
    (get "tiered" "total_cycles")
    (get "never" "total_cycles")
    (get "tiered" "slices_to_peak")
    slices

(* Black-box crash report (written by `stencil --blackbox` / `obrew
   report --json`): reason must be one of the typed triggers, the
   flight-recorder tail must carry strictly-increasing logical
   sequence numbers, and the section registry must have produced at
   least one section.  --blackbox-require-chain additionally asserts
   that a given causal chain of event kinds appears in the tail as an
   ordered subsequence (e.g. inject -> divergence -> quarantine ->
   demote). *)
let blackbox_reasons =
  [ "typed-error"; "sentinel-divergence"; "uncaught-exception"; "manual" ]

let check_blackbox ~require_chain path (j : Json.t) =
  let ctx = Filename.basename path in
  let sv = as_int (ctx ^ ".schema_version") (field ctx j "schema_version") in
  if sv <> 1 then fail "%s: unsupported schema_version %d" ctx sv;
  let reason = as_str (ctx ^ ".reason") (field ctx j "reason") in
  if not (List.mem reason blackbox_reasons) then
    fail "%s: unknown reason %S" ctx reason;
  ignore (as_str (ctx ^ ".detail") (field ctx j "detail"));
  List.iteri
    (fun i s -> ignore (as_str (Printf.sprintf "%s.active_spans[%d]" ctx i) s))
    (as_arr (ctx ^ ".active_spans") (field ctx j "active_spans"));
  let fl = field ctx j "flight" in
  let fctx = ctx ^ ".flight" in
  if as_int (fctx ^ ".recorded") (field fctx fl "recorded") < 0 then
    fail "%s: negative recorded" fctx;
  if as_int (fctx ^ ".dropped") (field fctx fl "dropped") < 0 then
    fail "%s: negative dropped" fctx;
  let evs = as_arr (fctx ^ ".events") (field fctx fl "events") in
  let last_seq = ref (-1) in
  let kinds =
    List.mapi
      (fun i e ->
        let ectx = Printf.sprintf "%s.events[%d]" fctx i in
        let seq = as_int (ectx ^ ".seq") (field ectx e "seq") in
        if seq <= !last_seq then
          fail "%s: seq %d not strictly increasing (prev %d)" ectx seq
            !last_seq;
        last_seq := seq;
        let kind = as_str (ectx ^ ".kind") (field ectx e "kind") in
        if kind = "" then fail "%s: empty kind" ectx;
        kind)
      evs
  in
  let sections = as_obj (ctx ^ ".sections") (field ctx j "sections") in
  if sections = [] then fail "%s: sections is empty" ctx;
  (match require_chain with
   | [] -> ()
   | chain ->
     let rec sub need have =
       match (need, have) with
       | [], _ -> true
       | _, [] -> false
       | n :: ns, h :: hs -> if n = h then sub ns hs else sub need hs
     in
     if not (sub chain kinds) then
       fail "%s: event tail lacks the ordered chain %s" ctx
         (String.concat " -> " chain));
  Printf.printf "%s: OK (reason %s, %d event(s), %d section(s)%s)\n" ctx
    reason (List.length evs) (List.length sections)
    (if require_chain = [] then ""
     else ", causal chain " ^ String.concat " -> " require_chain)

let check_trace path (j : Json.t) =
  let ctx = Filename.basename path in
  let evs = as_arr (ctx ^ ".traceEvents") (field ctx j "traceEvents") in
  if evs = [] then fail "%s: traceEvents is empty" ctx;
  List.iteri
    (fun i e ->
      let ectx = Printf.sprintf "%s.traceEvents[%d]" ctx i in
      let name = as_str (ectx ^ ".name") (field ectx e "name") in
      if name = "" then fail "%s: empty name" ectx;
      let ph = as_str (ectx ^ ".ph") (field ectx e "ph") in
      (match ph with
       | "X" ->
         if as_num (ectx ^ ".dur") (field ectx e "dur") < 0.0 then
           fail "%s: negative dur" ectx
       | "i" -> ()
       | _ -> fail "%s: unexpected phase %S" ectx ph);
      if as_num (ectx ^ ".ts") (field ectx e "ts") < 0.0 then
        fail "%s: negative ts" ectx)
    evs;
  let dropped =
    as_int (ctx ^ ".otherData.dropped_events")
      (field ctx (field ctx j "otherData") "dropped_events")
  in
  Printf.printf "%s: OK (%d events, %d dropped)\n" ctx (List.length evs)
    dropped

(* ------------------------------------------------------------------ *)

let read_file path =
  let ic = open_in_bin path in
  let len = in_channel_length ic in
  let s = really_input_string ic len in
  close_in ic;
  s

(* a malformed file fails with its name and the parser's offset *)
let load path =
  try Json.parse (read_file path)
  with Json.Parse_error m -> fail "%s: %s" (Filename.basename path) m

(* ------------------------------------------------------------------ *)
(* compare: wall-time regression gate over two BENCH files             *)
(* ------------------------------------------------------------------ *)

(* Index a BENCH file's rows by their "Kind/Mode" name. *)
let bench_rows ctx (j : Json.t) : (string * (int * int)) list =
  List.map
    (fun (name, row) ->
      let rctx = Printf.sprintf "%s.rows[%s]" ctx name in
      ( name,
        ( as_int (rctx ^ ".wall_ns") (field rctx row "wall_ns"),
          as_int (rctx ^ ".cycles") (field rctx row "cycles") ) ))
    (as_obj (ctx ^ ".rows") (field ctx j "rows"))

(* serve-latency tail: only present in schema-v2 files, so the gate is
   conditional — a v1 baseline compares cleanly against a v2 current *)
let serve_p99 ctx (j : Json.t) =
  match j with
  | Json.Obj kvs -> (
    match List.assoc_opt "serve_latency" kvs with
    | Some sl ->
      Some (as_int (ctx ^ ".serve_latency.p99_us") (field ctx sl "p99_us"))
    | None -> None)
  | _ -> None

let compare_bench ~tol ~tol_mips ~tol_p99 base_path cur_path =
  let base = load base_path and cur = load cur_path in
  let bctx = Filename.basename base_path in
  let cctx = Filename.basename cur_path in
  let bsec = as_str (bctx ^ ".section") (field bctx base "section") in
  let csec = as_str (cctx ^ ".section") (field cctx cur "section") in
  if bsec <> csec then
    fail "compare: section mismatch (%s vs %s)" bsec csec;
  let brows = bench_rows bctx base in
  let crows = bench_rows cctx cur in
  let regressions = ref [] in
  List.iter
    (fun (name, (bw, bc)) ->
      match List.assoc_opt name crows with
      | None -> Printf.printf "  %-28s dropped from current\n" name
      | Some (cw, cc) ->
        let dw =
          if bw = 0 then 0.0
          else 100.0 *. (float_of_int cw /. float_of_int bw -. 1.0)
        in
        let dc =
          if bc = 0 then 0.0
          else 100.0 *. (float_of_int cc /. float_of_int bc -. 1.0)
        in
        Printf.printf "  %-28s wall %+7.1f%%  cycles %+7.1f%%\n" name dw dc;
        if dw > tol then regressions := (name, dw) :: !regressions)
    brows;
  List.iter
    (fun (name, _) ->
      if not (List.mem_assoc name brows) then
        Printf.printf "  %-28s new in current\n" name)
    crows;
  (* Throughput gate: the aggregate emulated-MIPS figure is the PR
     trajectory's headline metric, so compare always prints the delta and
     --tol-mips turns a drop beyond the given percentage into a failure.
     MIPS regressions are drops (current below baseline), unlike wall
     time where regressions are increases. *)
  let bmips = as_num (bctx ^ ".emulated_mips") (field bctx base "emulated_mips") in
  let cmips = as_num (cctx ^ ".emulated_mips") (field cctx cur "emulated_mips") in
  let dmips =
    if bmips = 0.0 then 0.0 else 100.0 *. (cmips /. bmips -. 1.0)
  in
  Printf.printf "  %-28s %8.2f -> %8.2f  (%+.1f%%)\n" "emulated_mips" bmips
    cmips dmips;
  let mips_failed =
    match tol_mips with
    | Some t when -.dmips > t ->
      Printf.eprintf
        "FAIL %s: emulated_mips dropped %.1f%% (%.2f -> %.2f, tolerance \
         %.0f%%)\n"
        bsec (-.dmips) bmips cmips t;
      true
    | _ -> false
  in
  (* Tail-latency gate: serve p99 is a wall-clock figure, so regressions
     are increases; --tol-p99 turns a rise beyond the band into a hard
     failure.  Skipped when either file predates the latency schema. *)
  let p99_failed =
    match (serve_p99 bctx base, serve_p99 cctx cur) with
    | Some bp, Some cp ->
      let d =
        if bp = 0 then 0.0
        else 100.0 *. (float_of_int cp /. float_of_int bp -. 1.0)
      in
      Printf.printf "  %-28s %8d -> %8d us (%+.1f%%)\n" "serve_p99_us" bp cp
        d;
      (match tol_p99 with
       | Some t when d > t ->
         Printf.eprintf
           "FAIL %s: serve p99 regressed %.1f%% (%d -> %d us, tolerance \
            %.0f%%)\n"
           bsec d bp cp t;
         true
       | _ -> false)
    | _ ->
      if tol_p99 <> None then
        Printf.printf "  %-28s (not present in both files, gate skipped)\n"
          "serve_p99_us";
      false
  in
  match !regressions with
  | [] ->
    if mips_failed || p99_failed then exit 1;
    Printf.printf "compare %s: OK (%d rows, tolerance %.0f%%)\n" bsec
      (List.length brows) tol
  | rs ->
    List.iter
      (fun (name, dw) ->
        Printf.eprintf "FAIL %s: wall time of %s regressed %.1f%% (> %.0f%%)\n"
          bsec name dw tol)
      (List.rev rs);
    exit 1

(* ------------------------------------------------------------------ *)
(* compare-tier: per-strategy cycle gate over two tier figures         *)
(* ------------------------------------------------------------------ *)

(* The tier workload is fixed and its simulated cycles deterministic,
   so the default tolerance is 0%: any drift in a strategy's
   total_cycles fails the gate.  Wall-clock fields (compile_s,
   time_to_peak_s) are printed for the record, never gated. *)
let compare_tier ~tol base_path cur_path =
  let base = load base_path and cur = load cur_path in
  let bctx = Filename.basename base_path in
  let cctx = Filename.basename cur_path in
  let section ctx j = as_str (ctx ^ ".section") (field ctx j "section") in
  if section bctx base <> "tier" || section cctx cur <> "tier" then
    fail "compare-tier: both files must have section \"tier\"";
  let strat ctx j name =
    field (ctx ^ ".strategies") (field ctx j "strategies") name
  in
  let regressions = ref [] in
  List.iter
    (fun name ->
      let b = strat bctx base name and c = strat cctx cur name in
      let bcy = as_int (name ^ ".total_cycles") (field name b "total_cycles") in
      let ccy = as_int (name ^ ".total_cycles") (field name c "total_cycles") in
      let d =
        if bcy = 0 then 0.0
        else 100.0 *. (float_of_int ccy /. float_of_int bcy -. 1.0)
      in
      let bt = as_num (name ^ ".time_to_peak_s") (field name b "time_to_peak_s") in
      let ct = as_num (name ^ ".time_to_peak_s") (field name c "time_to_peak_s") in
      Printf.printf
        "  %-8s cycles %9d -> %9d (%+.2f%%)  time-to-peak %.3f -> %.3f ms\n"
        name bcy ccy d (bt *. 1e3) (ct *. 1e3);
      if d > tol then regressions := (name, d) :: !regressions)
    tier_strategies;
  match !regressions with
  | [] ->
    Printf.printf "compare-tier: OK (%d strategies, tolerance %.1f%%)\n"
      (List.length tier_strategies) tol
  | rs ->
    List.iter
      (fun (name, d) ->
        Printf.eprintf
          "FAIL tier: total_cycles of %s regressed %.2f%% (> %.1f%%)\n" name d
          tol)
      (List.rev rs);
    exit 1

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  if args = [] then begin
    prerr_endline
      "usage: validate_bench [--trace FILE | --remarks FILE | --profile \
       FILE | --sentinel FILE | --tier FILE | --engine-stats FILE | \
       --blackbox FILE | BENCH_*.json] ...\n\
      \       [--sentinel-min-divergences N] [--sentinel-min-demotions N]\n\
      \       [--blackbox-require-chain k1,k2,...]\n\
      \       validate_bench compare BASELINE.json CURRENT.json [--tol PCT] \
       [--tol-mips PCT] [--tol-p99 PCT]\n\
      \       validate_bench compare-tier BASELINE.json CURRENT.json \
       [--tol PCT]";
    exit 2
  end;
  let failed = ref false in
  let checked kind f check =
    try check f (load f) with
    | Bad m -> Printf.eprintf "FAIL %s\n" m; failed := true
    | Sys_error m -> Printf.eprintf "FAIL %s\n" m; failed := true
    | exception_ ->
      Printf.eprintf "FAIL %s %s: %s\n" kind f
        (Printexc.to_string exception_);
      failed := true
  in
  (match args with
   | "compare" :: rest ->
     let tol = ref 10.0 in
     let tol_mips = ref None in
     let tol_p99 = ref None in
     let files = ref [] in
     let rec go = function
       | "--tol" :: t :: tl -> tol := float_of_string t; go tl
       | "--tol-mips" :: t :: tl ->
         tol_mips := Some (float_of_string t);
         go tl
       | "--tol-p99" :: t :: tl ->
         tol_p99 := Some (float_of_string t);
         go tl
       | ("--tol" | "--tol-mips" | "--tol-p99") :: [] ->
         prerr_endline "--tol/--tol-mips/--tol-p99 need a percentage argument";
         exit 2
       | f :: tl -> files := f :: !files; go tl
       | [] -> ()
     in
     go rest;
     (match List.rev !files with
      | [ base; cur ] -> (
        try
          compare_bench ~tol:!tol ~tol_mips:!tol_mips ~tol_p99:!tol_p99 base
            cur
        with
        | Bad m -> Printf.eprintf "FAIL %s\n" m; exit 1
        | Sys_error m -> Printf.eprintf "FAIL %s\n" m; exit 1)
      | _ ->
        prerr_endline
          "usage: validate_bench compare BASELINE.json CURRENT.json \
           [--tol PCT] [--tol-mips PCT] [--tol-p99 PCT]";
        exit 2)
   | "compare-tier" :: rest ->
     let tol = ref 0.0 in
     let files = ref [] in
     let rec go = function
       | "--tol" :: t :: tl -> tol := float_of_string t; go tl
       | "--tol" :: [] ->
         prerr_endline "--tol needs a percentage argument";
         exit 2
       | f :: tl -> files := f :: !files; go tl
       | [] -> ()
     in
     go rest;
     (match List.rev !files with
      | [ base; cur ] -> (
        try compare_tier ~tol:!tol base cur with
        | Bad m -> Printf.eprintf "FAIL %s\n" m; exit 1
        | Sys_error m -> Printf.eprintf "FAIL %s\n" m; exit 1)
      | _ ->
        prerr_endline
          "usage: validate_bench compare-tier BASELINE.json CURRENT.json \
           [--tol PCT]";
        exit 2)
   | _ ->
     (* thresholds apply to every --sentinel file, wherever they appear
        on the command line, so hoist them before the file sweep *)
     let min_div = ref 0 in
     let min_dem = ref 0 in
     let chain = ref [] in
     let rec hoist = function
       | "--sentinel-min-divergences" :: n :: tl ->
         min_div := int_of_string n;
         hoist tl
       | "--sentinel-min-demotions" :: n :: tl ->
         min_dem := int_of_string n;
         hoist tl
       | "--blackbox-require-chain" :: ks :: tl ->
         chain :=
           List.filter (fun k -> k <> "")
             (List.map String.trim (String.split_on_char ',' ks));
         hoist tl
       | ("--sentinel-min-divergences" | "--sentinel-min-demotions") :: [] ->
         prerr_endline "--sentinel-min-* need an integer argument";
         exit 2
       | [ "--blackbox-require-chain" ] ->
         prerr_endline
           "--blackbox-require-chain needs a comma-separated kind list";
         exit 2
       | a :: tl -> a :: hoist tl
       | [] -> []
     in
     let args = hoist args in
     let rec go = function
       | [] -> ()
       | "--trace" :: f :: tl -> checked "trace" f check_trace; go tl
       | "--remarks" :: f :: tl -> checked "remarks" f check_remarks; go tl
       | "--profile" :: f :: tl -> checked "profile" f check_profile; go tl
       | "--sentinel" :: f :: tl ->
         checked "sentinel" f
           (check_sentinel ~min_divergences:!min_div ~min_demotions:!min_dem);
         go tl
       | "--tier" :: f :: tl -> checked "tier" f check_tier; go tl
       | "--engine-stats" :: f :: tl ->
         checked "engine-stats" f check_engine_stats;
         go tl
       | "--blackbox" :: f :: tl ->
         checked "blackbox" f (check_blackbox ~require_chain:!chain);
         go tl
       | ("--trace" | "--remarks" | "--profile" | "--sentinel" | "--tier"
         | "--engine-stats" | "--blackbox")
         :: [] ->
         prerr_endline "flag needs a file argument";
         exit 2
       | f :: tl -> checked "bench" f check_bench; go tl
     in
     go args);
  if !failed then exit 1
