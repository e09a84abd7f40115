(* Telemetry layer: sink behaviour, the enabled gate, counters,
   histograms, the two exporters and the shared JSON printer/parser. *)

module Tel = Obrew_telemetry.Telemetry
module Json = Obrew_telemetry.Json

let check = Alcotest.check
let cint = Alcotest.int

let cjson =
  Alcotest.testable
    (fun ppf v -> Format.pp_print_string ppf (Json.to_string v))
    ( = )

(* each test starts from a clean, enabled sink *)
let with_tel ?capacity f =
  Tel.reset ();
  Tel.enable ?capacity ();
  Fun.protect ~finally:Tel.disable f

let test_disabled_records_nothing () =
  Tel.reset ();
  Tel.disable ();
  Tel.span "s" (fun () -> ()) |> ignore;
  Tel.instant "i";
  check cint "no events" 0 (Tel.events_recorded ())

let test_span_records () =
  with_tel (fun () ->
      let r = Tel.span "work" ~args:"x" (fun () -> 41 + 1) in
      check cint "return value" 42 r;
      check cint "one event" 1 (Tel.events_recorded ()))

let test_span_reraises () =
  with_tel (fun () ->
      (match Tel.span "boom" (fun () -> failwith "no") with
       | exception Failure _ -> ()
       | _ -> Alcotest.fail "expected the exception to propagate");
      check cint "event still recorded" 1 (Tel.events_recorded ()))

let test_ring_wraps () =
  with_tel ~capacity:8 (fun () ->
      for _ = 1 to 20 do Tel.instant "tick" done;
      check cint "recorded" 20 (Tel.events_recorded ());
      check cint "dropped" 12 (Tel.dropped ());
      (* oldest-first iteration sees only the retained tail *)
      let n = ref 0 in
      Tel.iter_events (fun ~name:_ ~kind:_ ~ts:_ ~dur:_ ~args:_ -> incr n);
      check cint "retained" 8 !n)

let test_counters () =
  with_tel (fun () ->
      let c = Tel.counter "test.c" in
      Tel.incr_c c;
      Tel.add_c c 4;
      (* registration is find-or-create: same name, same cell *)
      let c' = Tel.counter "test.c" in
      Tel.incr_c c';
      Alcotest.(check bool) "same cell" true (c == c');
      check cint "count" 6 c.Tel.n)

let test_histogram_buckets () =
  with_tel (fun () ->
      let h = Tel.histogram "test.h" in
      List.iter (Tel.observe h) [ 0; 1; 2; 3; 4; 1000 ];
      check cint "count" 6 h.Tel.hcount;
      check cint "sum" 1010 h.Tel.hsum)

let test_exports_parse () =
  with_tel (fun () ->
      let detail = "with \"quotes\" and \\slash" in
      ignore (Tel.span "a" ~args:detail (fun () -> ()));
      Tel.instant "b";
      Tel.incr_c (Tel.counter "c");
      Tel.observe (Tel.histogram "h") 7;
      (* both exporters must print well-formed JSON even with args
         that need escaping *)
      let trace = Json.parse (Json.to_string (Tel.export_chrome_trace ())) in
      let metrics = Json.parse (Json.to_string (Tel.export_metrics ())) in
      let span =
        match Json.member "traceEvents" trace with
        | Json.List evs ->
          List.find (fun e -> Json.member "name" e = Json.String "a") evs
        | _ -> Alcotest.fail "traceEvents is not a list"
      in
      check cjson "trace span phase" (Json.String "X") (Json.member "ph" span);
      check cjson "trace args survive escaping" (Json.String detail)
        (Json.member "detail" (Json.member "args" span));
      check cjson "metrics schema" (Json.Int Tel.metrics_schema_version)
        (Json.member "schema_version" metrics);
      let h = Json.member "h" (Json.member "histograms" metrics) in
      check cjson "metrics histogram" (Json.Int 1) (Json.member "count" h))

(* ------------------------------------------------------------------ *)
(* Json: what the printer writes, the parser reads back                *)
(* ------------------------------------------------------------------ *)

let gen_json =
  let open QCheck.Gen in
  (* every byte value, so quotes, backslashes, control bytes and
     non-UTF-8 bytes >= 0x80 all occur *)
  let str =
    string_size ~gen:(map Char.chr (int_range 0 255)) (int_range 0 8)
  in
  let finite f = if Float.is_finite f then f else 0.5 in
  let fl =
    map finite
      (oneof
         [ float; map Int64.float_of_bits ui64;
           oneofl [ 0.0; -0.0; 0.1; 1e15; 1e16; 5e-324; max_float ] ])
  in
  let leaf =
    oneof
      [ return Json.Null; map (fun b -> Json.Bool b) bool;
        map (fun i -> Json.Int i)
          (oneof [ int; oneofl [ min_int; max_int; 0 ] ]);
        map (fun f -> Json.Float f) fl; map (fun s -> Json.String s) str ]
  in
  sized
  @@ fix (fun self n ->
         if n <= 1 then leaf
         else
           frequency
             [ (2, leaf);
               (1,
                map (fun l -> Json.List l)
                  (list_size (int_range 0 4) (self (n / 4))));
               (1,
                map (fun kvs -> Json.Obj kvs)
                  (list_size (int_range 0 4) (pair str (self (n / 4))))) ])

let test_json_roundtrip =
  QCheck.Test.make ~count:500 ~name:"parse (to_string v) = v"
    (QCheck.make ~print:Json.to_string gen_json)
    (fun v -> Json.parse (Json.to_string v) = v)

let test_json_non_finite () =
  List.iter
    (fun f ->
      match Json.to_string (Json.List [ Json.Float f ]) with
      | exception Invalid_argument _ -> ()
      | s -> Alcotest.failf "%h printed as %s" f s)
    [ Float.nan; Float.infinity; Float.neg_infinity ]

let test_json_unicode_escapes () =
  (* \u escapes decode to UTF-8; a surrogate code unit is no code
     point and decodes to U+FFFD *)
  check cjson "decoded"
    (Json.String "\x01A\xc3\xa9\xe2\x82\xac\xef\xbf\xbd")
    (Json.parse {|"\u0001\u0041\u00e9\u20ac\ud83d"|})

let () =
  Alcotest.run "telemetry"
    [ ("sink",
       [ Alcotest.test_case "disabled is silent" `Quick
           test_disabled_records_nothing;
         Alcotest.test_case "span records" `Quick test_span_records;
         Alcotest.test_case "span re-raises" `Quick test_span_reraises;
         Alcotest.test_case "ring wraps" `Quick test_ring_wraps ]);
      ("metrics",
       [ Alcotest.test_case "counters" `Quick test_counters;
         Alcotest.test_case "histograms" `Quick test_histogram_buckets;
         Alcotest.test_case "exports parse" `Quick test_exports_parse ]);
      ("json",
       [ QCheck_alcotest.to_alcotest test_json_roundtrip;
         Alcotest.test_case "non-finite floats raise" `Quick
           test_json_non_finite;
         Alcotest.test_case "unicode escapes" `Quick
           test_json_unicode_escapes ])
    ]
