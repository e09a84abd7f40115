(* The observability layer.

   Three layers of coverage:
   - the flight recorder's ring (QCheck: any N events pushed through a
     capacity-K ring are readable back as exactly the last min(N,K)
     events, in order, with exact logical timestamps);
   - black-box crash forensics, golden-tested under a deterministic
     saboteur fault plan: the report must be produced, carry the
     schema, and its event tail must contain the causal chain
     inject -> divergence -> quarantine -> demote in order;
   - the HDR histogram's exact-rank percentiles (QCheck against a
     naive sorted reference: estimate within the documented +6.25%
     band, exact below 16). *)

open Obrew_core
open Obrew_fault
module Tel = Obrew_telemetry.Telemetry
module Json = Obrew_telemetry.Json
module Flight = Obrew_observe.Flight
module Blackbox = Obrew_observe.Blackbox
module Sen = Obrew_sentinel.Sentinel
module H = Obrew_sentinel.Health

let check = Alcotest.check
let cint = Alcotest.int

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  go 0

let cjson =
  Alcotest.testable
    (fun ppf v -> Format.pp_print_string ppf (Json.to_string v))
    ( = )

(* a report as written to disk, read back: parsing is the
   well-formedness check *)
let reparse v = Json.parse (Json.to_string v)
let mem = Json.member

(* ------------------------------------------------------------------ *)
(* Flight recorder: ring exactness                                     *)
(* ------------------------------------------------------------------ *)

(* a small rotation of kinds so wraparound is visible in more than the
   subject payload *)
let kind_of_i i =
  match i mod 4 with
  | 0 -> Flight.Tier_up
  | 1 -> Flight.Sentinel_probe
  | 2 -> Flight.Cache_flush
  | _ -> Flight.Dbrew_rewrite

let test_ring_wraparound_qcheck =
  QCheck.Test.make ~count:200 ~name:"ring keeps the last K in order"
    QCheck.(pair (int_range 1 64) (int_range 0 300))
    (fun (cap, n) ->
      Flight.resize cap;
      Flight.enabled := true;
      for i = 0 to n - 1 do
        Flight.emit ~a:i ~b:(i * 2) ~subject:(string_of_int i) (kind_of_i i)
      done;
      let want = min n cap in
      let got = Flight.last max_int in
      let ok_meta =
        Flight.recorded () = n
        && Flight.dropped () = max 0 (n - cap)
        && Flight.retained () = want
        && List.length got = want
      in
      let ok_events =
        List.for_all2
          (fun e i ->
            e.Flight.seq = i && e.Flight.a = i && e.Flight.b = i * 2
            && e.Flight.subject = string_of_int i
            && e.Flight.ekind = kind_of_i i)
          got
          (List.init want (fun k -> n - want + k))
      in
      Flight.resize Flight.default_capacity;
      ok_meta && ok_events)

let test_ring_disabled () =
  Flight.clear ();
  Flight.enabled := false;
  Fun.protect ~finally:(fun () -> Flight.enabled := true) (fun () ->
      Flight.emit ~subject:"x" Flight.Tier_up;
      check cint "nothing recorded" 0 (Flight.recorded ()))

let test_ring_json_escapes () =
  Flight.clear ();
  Flight.emit ~subject:"with \"quotes\"" ~detail:"and \\slash"
    Flight.Error;
  let j = Json.to_string (Flight.to_json ()) in
  Alcotest.(check bool) "escaped quote" true (contains j "\\\"quotes\\\"");
  Alcotest.(check bool) "escaped slash" true (contains j "\\\\slash")

(* ------------------------------------------------------------------ *)
(* Black box: golden report under a deterministic saboteur             *)
(* ------------------------------------------------------------------ *)

let sz = 9
let shared = lazy (Modes.build ~sz ())

let test_policy =
  { H.first_k = 4; sample_n = 2; suspect_n = 2; decay_streak = 2;
    heal_max = 3; heal_base = 1; heal_cap = 2 }

let fresh_case () =
  Fault.clear ();
  Sen.reset ();
  Quarantine.clear ();
  Robust.reset ();
  Flight.clear ()

(* the ordered-subsequence check CI's validator applies to the tail *)
let chain_holds chain kinds =
  let rec sub need have =
    match (need, have) with
    | [], _ -> true
    | _, [] -> false
    | n :: ns, h :: hs -> if n = h then sub ns hs else sub need hs
  in
  sub chain kinds

let test_blackbox_causal_chain () =
  fresh_case ();
  let env = Lazy.force shared in
  Fault.install [ Fault.arm ~fires:1 "sabotage.rewrite.item" ];
  (* first serve is sabotaged and must be caught; the retry after
     quarantine lands on the demoted tier *)
  for _ = 1 to 3 do
    ignore (Sen.serve ~policy:test_policy env Modes.Flat Modes.Element
              Modes.DBrewLlvm)
  done;
  let kinds = ref [] in
  Flight.iter (fun e -> kinds := Flight.kind_name e.Flight.ekind :: !kinds);
  let kinds = List.rev !kinds in
  Alcotest.(check bool) "causal chain in order" true
    (chain_holds
       [ "fault.sabotaged"; "sentinel.divergence"; "sentinel.quarantine";
         "sentinel.demote" ]
       kinds);
  (* the report renders the same tail plus every registered section *)
  Blackbox.register_section "quarantine" (fun () -> Quarantine.to_json ());
  Blackbox.register_section "health" (fun () -> Sen.health_json ());
  let r =
    reparse
      (Blackbox.report ~reason:Blackbox.Sentinel_divergence
         ~detail:"test divergence" ())
  in
  Blackbox.unregister_section "quarantine";
  Blackbox.unregister_section "health";
  check cjson "schema_version" (Json.Int 1) (mem "schema_version" r);
  check cjson "reason" (Json.String "sentinel-divergence") (mem "reason" r);
  let tail =
    match mem "events" (mem "flight" r) with
    | Json.List evs -> List.map (mem "kind") evs
    | _ -> Alcotest.fail "flight.events is not a list"
  in
  List.iter
    (fun k ->
      Alcotest.(check bool) ("tail has " ^ k) true
        (List.mem (Json.String k) tail))
    [ "fault.sabotaged"; "sentinel.quarantine" ];
  (* the quarantine and health sections are the registries' own
     exports, one row per entry *)
  let sections = mem "sections" r in
  (match mem "quarantine" sections with
   | Json.List (q :: _) ->
     (match mem "digest" q with
      | Json.String d -> check cint "hex digest" 32 (String.length d)
      | _ -> Alcotest.fail "quarantine digest is not a string")
   | _ -> Alcotest.fail "quarantine section is empty");
  match mem "health" sections with
  | Json.List (h :: _) ->
    check cjson "health row mode" (Json.String "DBrew+LLVM") (mem "mode" h)
  | _ -> Alcotest.fail "health section is empty"

let test_blackbox_section_failure_contained () =
  Flight.clear ();
  Blackbox.register_section "bad" (fun () -> failwith "provider died");
  let r =
    reparse (Blackbox.report ~reason:Blackbox.Manual ~detail:"section crash" ())
  in
  Blackbox.unregister_section "bad";
  check cjson "report still renders" (Json.Int 1) (mem "schema_version" r);
  match mem "error" (mem "bad" (mem "sections" r)) with
  | Json.String e ->
    Alcotest.(check bool) "provider error is contained" true
      (contains e "provider died")
  | _ -> Alcotest.fail "bad section has no error string"

let test_blackbox_attribution () =
  Flight.clear ();
  let prev = !Blackbox.attribution in
  Blackbox.attribution :=
    (fun a ->
      if a = 4096 then Some (Json.Obj [ ("guest_addr", Json.Int 77) ])
      else None);
  Fun.protect ~finally:(fun () -> Blackbox.attribution := prev) (fun () ->
      let r =
        reparse
          (Blackbox.report ~addr:4096 ~reason:Blackbox.Typed_error
             ~detail:"attributed" ())
      in
      check cjson "fault_addr present" (Json.Int 4096) (mem "fault_addr" r);
      check cjson "origin attributed" (Json.Int 77)
        (mem "guest_addr" (mem "fault_origin" r)))

(* ------------------------------------------------------------------ *)
(* Percentiles: exact-rank vs a naive sorted reference                 *)
(* ------------------------------------------------------------------ *)

let naive_pct sorted p =
  let n = Array.length sorted in
  sorted.(max 0
            (min (n - 1)
               (int_of_float (ceil (p /. 100. *. float_of_int n)) - 1)))

let test_percentile_qcheck =
  QCheck.Test.make ~count:300
    ~name:"histogram percentile within +6.25% of exact rank"
    QCheck.(list_of_size Gen.(int_range 1 400) (int_range 0 3_000_000))
    (fun vs ->
      Tel.reset ();
      let h = Tel.histogram "q.pct" in
      List.iter (Tel.observe h) vs;
      let sorted = Array.of_list vs in
      Array.sort compare sorted;
      List.for_all
        (fun p ->
          let v = naive_pct sorted p in
          let est = Tel.percentile h p in
          if v < 16 then est = v
          else v <= est && est <= v + (v / 16))
        [ 50.0; 90.0; 99.0; 99.9 ])

let test_bucket_relative_error =
  QCheck.Test.make ~count:500 ~name:"bucket relative error <= 6.25%"
    QCheck.(int_range 0 max_int)
    (fun v ->
      let idx = Tel.bucket_of v in
      let lo = Tel.bucket_low idx and w = Tel.bucket_width idx in
      (* v - lo, not lo + w: for the topmost sub-bucket lo + w is 2^62,
         which overflows the OCaml int *)
      lo <= v && v - lo < w && (v < 16 || w <= v / 16))

let test_histogram_export_v2 () =
  Tel.reset ();
  Tel.enable ();
  Fun.protect ~finally:Tel.disable (fun () ->
      let h = Tel.histogram "h.v2" in
      List.iter (Tel.observe h) [ 5; 100; 1000 ];
      let m = Json.to_string (Tel.export_metrics ()) in
      List.iter
        (fun sub ->
          Alcotest.(check bool) (Printf.sprintf "metrics has %s" sub) true
            (contains m sub))
        [ "\"schema_version\": 2"; "\"p50\""; "\"p99\""; "\"p999\"";
          "\"buckets\"" ])

(* ------------------------------------------------------------------ *)
(* Clock injection                                                     *)
(* ------------------------------------------------------------------ *)

let test_clock_injection () =
  Tel.Clock.with_fixed ~step:0.5 100.0 (fun () ->
      let a = Tel.Clock.now () and b = Tel.Clock.now () in
      Alcotest.(check (float 1e-9)) "first tick" 100.0 a;
      Alcotest.(check (float 1e-9)) "stepped tick" 100.5 b);
  (* restored: consecutive wall readings are monotone non-decreasing *)
  let a = Tel.Clock.now () in
  let b = Tel.Clock.now () in
  Alcotest.(check bool) "wall clock restored" true (b >= a && a > 1e9)

let () =
  Alcotest.run "observe"
    [ ("flight",
       [ QCheck_alcotest.to_alcotest test_ring_wraparound_qcheck;
         Alcotest.test_case "disabled is silent" `Quick test_ring_disabled;
         Alcotest.test_case "json escapes" `Quick test_ring_json_escapes ]);
      ("blackbox",
       [ Alcotest.test_case "causal chain under saboteur" `Quick
           test_blackbox_causal_chain;
         Alcotest.test_case "section failure contained" `Quick
           test_blackbox_section_failure_contained;
         Alcotest.test_case "fault attribution" `Quick
           test_blackbox_attribution ]);
      ("percentiles",
       [ QCheck_alcotest.to_alcotest test_percentile_qcheck;
         QCheck_alcotest.to_alcotest test_bucket_relative_error;
         Alcotest.test_case "metrics export v2" `Quick
           test_histogram_export_v2 ]);
      ("clock",
       [ Alcotest.test_case "injectable clock" `Quick test_clock_injection ])
    ]
