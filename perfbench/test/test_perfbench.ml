(* The benchmark's own arithmetic: percentile choice, failure accounting,
   span self time, the unattributed residual and the calibration factor. *)

open Perfbench

let feq = Alcotest.float 1e-9
let seq n = List.init n (fun i -> float_of_int (i + 1))

let test_median () =
  Alcotest.check feq "odd" 3. (Stats.median [ 5.; 1.; 3.; 2.; 4. ]);
  Alcotest.check feq "even" 2.5 (Stats.median [ 4.; 1.; 3.; 2. ]);
  Alcotest.check feq "one" 7. (Stats.median [ 7. ])

let test_tail_small () =
  (* fewer than twenty samples: not even the median has ten beyond it *)
  let t = Stats.tail (seq 19) in
  Alcotest.check feq "max" 19. t.Stats.value;
  Alcotest.(check int) "beyond" 0 t.Stats.beyond;
  Alcotest.check feq "percentile" 100. t.Stats.percentile

let test_tail_choice () =
  let t = Stats.tail (seq 20) in
  Alcotest.check feq "n=20 value" 10. t.Stats.value;
  Alcotest.check feq "n=20 is the median" 50. t.Stats.percentile;
  Alcotest.(check int) "n=20 beyond" 10 t.Stats.beyond;
  let t = Stats.tail (List.rev (seq 100)) in
  Alcotest.check feq "n=100 value" 90. t.Stats.value;
  Alcotest.check feq "n=100 percentile" 90. t.Stats.percentile;
  let t = Stats.tail (seq 1000) in
  Alcotest.check feq "n=1000 value" 990. t.Stats.value;
  Alcotest.check feq "n=1000 percentile" 99. t.Stats.percentile;
  Alcotest.(check int) "n=1000 beyond" 10 t.Stats.beyond;
  (* exactly ten samples lie above the reported value *)
  let xs = seq 137 in
  let t = Stats.tail xs in
  Alcotest.(check int) "samples above" 10
    (List.length (List.filter (fun x -> x > t.Stats.value) xs))

let test_failures () =
  let outcomes =
    Stats.
      [
        Done 0.1;
        Failed Refused;
        Done 0.3;
        Failed (Transport "reset");
        Failed (Mismatch "answers differ");
        Failed (Error_reply "conflict");
        Done 0.2;
      ]
  in
  let c = Stats.count outcomes in
  Alcotest.(check int) "attempted" 7 c.Stats.attempted;
  Alcotest.(check int) "refused, transport, mismatch and error all fail" 4 c.Stats.failed;
  Alcotest.check feq "error rate" (4. /. 7.) (Stats.error_rate c);
  let within limit = List.length (List.filter (fun s -> s <= limit) (Stats.latencies outcomes)) in
  Alcotest.(check int) "within 0.25 s" 2 (within 0.25);
  Alcotest.(check int) "a failure misses every finite limit" 3 (within Float.max_float);
  (* failures enter the percentiles as infinitely slow: four of seven
     failed, so even the median is a failure *)
  Alcotest.(check bool) "median is a failure" true
    (Stats.median (Stats.latencies outcomes) = Float.infinity);
  let completed = List.filter (function Stats.Done _ -> true | _ -> false) outcomes in
  Alcotest.check feq "median of the three that completed" 0.2
    (Stats.median (Stats.latencies completed));
  Alcotest.check feq "one failure of four lifts the median" 0.25
    (Stats.median (Stats.latencies Stats.[ Done 0.1; Done 0.2; Done 0.3; Failed Refused ]));
  Alcotest.(check bool) "tail is a failure" true
    ((Stats.tail (Stats.latencies outcomes)).Stats.value = Float.infinity);
  Alcotest.check feq "nothing attempted" 0. (Stats.error_rate (Stats.count []))

let test_failure_codes () =
  Alcotest.(check bool) "busy is a refusal" true (Stats.failure_of_code "busy" = Stats.Refused);
  Alcotest.(check bool) "transport" true
    (match Stats.failure_of_code "transport" with Stats.Transport _ -> true | _ -> false);
  Alcotest.(check bool) "other codes are error replies" true
    (Stats.failure_of_code "not_found" = Stats.Error_reply "not_found")

let span id ?parent name start stop = { Trace.id; name; parent; req = 1; start; stop }

(* root [0,10] with children a [1,4] and b [3,6] overlapping each other,
   a grandchild c [2,3] inside a, and a child d [9,12] running past the
   root's end. *)
let spans =
  [
    span 0 "op" 0. 10.;
    span 1 ~parent:0 "a" 1. 4.;
    span 2 ~parent:0 "b" 3. 6.;
    span 3 ~parent:1 "c" 2. 3.;
    span 4 ~parent:0 "d" 9. 12.;
    span 5 "diag" 20. 30.;
  ]

let test_self_time () =
  let self = Trace.self_times spans in
  (* children cover [1,6] and [9,10] of the root: 6 of 10 *)
  Alcotest.check feq "root" 4. (Hashtbl.find self 0);
  Alcotest.check feq "a minus its grandchild" 2. (Hashtbl.find self 1);
  Alcotest.check feq "b" 3. (Hashtbl.find self 2);
  Alcotest.check feq "leaf" 1. (Hashtbl.find self 3);
  Alcotest.check feq "unrelated root" 10. (Hashtbl.find self 5);
  let by_name = Trace.by_name spans ~roots:(fun s -> s.Trace.name = "op") in
  Alcotest.(check (list string)) "names under the selected roots"
    [ "a"; "b"; "c"; "d"; "op" ] (List.map fst by_name);
  Alcotest.check feq "d" 3. (List.assoc "d" by_name)

let test_unattributed () =
  (* Layer spans clipped to the root explain 6 of its 10 s; d's part
     beyond the root's end counts toward d's own self time (3 s) but the
     residual is measured against the root: 1 - (2 + 3 + 1 + 3) / 10. *)
  Alcotest.check feq "residual" 0.1
    (Trace.unattributed_share spans ~roots:(fun s -> s.Trace.name = "op"));
  Alcotest.check feq "no roots" 0. (Trace.unattributed_share spans ~roots:(fun _ -> false));
  Alcotest.check feq "a root with no children is all residual" 1.
    (Trace.unattributed_share spans ~roots:(fun s -> s.Trace.name = "diag"))

let test_recording () =
  let tr = Trace.create () in
  let v =
    Trace.with_span (Some tr) ~req:7 "op" (fun root ->
        Trace.with_span (Some tr) ~parent:root ~req:7 "wire" (fun id ->
            Trace.rename (Some tr) id "service.hit";
            42))
  in
  Alcotest.(check int) "value passes through" 42 v;
  (match Trace.spans tr with
  | [ child; root ] ->
    Alcotest.(check string) "renamed" "service.hit" child.Trace.name;
    Alcotest.(check (option int)) "parent" (Some root.Trace.id) child.Trace.parent;
    Alcotest.(check int) "request id" 7 child.Trace.req;
    Alcotest.(check bool) "nested" true
      (root.Trace.start <= child.Trace.start && child.Trace.stop <= root.Trace.stop)
  | l -> Alcotest.failf "expected two spans, got %d" (List.length l));
  Alcotest.(check int) "untraced runs the body" 3 (Trace.with_span None ~req:0 "op" (fun _ -> 3))

let test_calib () =
  let r = Calib.reference in
  Alcotest.check feq "at reference speed" 1. (Calib.factor ~before:r ~after:r);
  (* the kernel took 1.5 and 2.5 references around the stretch, twice the
     reference on average: wall times are scaled by the square root of 1/2 *)
  Alcotest.check feq "mean of before and after" (Float.sqrt 0.5)
    (Calib.factor ~before:(1.5 *. r) ~after:(2.5 *. r));
  let x, wall, calibrated, samples = Calib.time (fun () -> 42) in
  Alcotest.(check int) "result" 42 x;
  Alcotest.(check int) "two samples" 2 (List.length samples);
  List.iter
    (fun k -> Alcotest.(check bool) "sample is a positive time" true (k > 0. && Float.is_finite k))
    samples;
  match samples with
  | [ before; after ] ->
    Alcotest.check feq "calibrated time" (wall *. Calib.factor ~before ~after) calibrated
  | _ -> ()

let () =
  Alcotest.run "perfbench"
    [
      ( "stats",
        [
          Alcotest.test_case "median" `Quick test_median;
          Alcotest.test_case "tail below twenty samples" `Quick test_tail_small;
          Alcotest.test_case "tail percentile choice" `Quick test_tail_choice;
          Alcotest.test_case "failure accounting" `Quick test_failures;
          Alcotest.test_case "failure codes" `Quick test_failure_codes;
        ] );
      ( "trace",
        [
          Alcotest.test_case "self time of nested spans" `Quick test_self_time;
          Alcotest.test_case "unattributed residual" `Quick test_unattributed;
          Alcotest.test_case "recording" `Quick test_recording;
        ] );
      ("calib", [ Alcotest.test_case "factor" `Quick test_calib ]);
    ]
