open Urm_util

let test_prng_deterministic () =
  let a = Prng.create 7 and b = Prng.create 7 in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Prng.next a) (Prng.next b)
  done

let test_prng_split_independent () =
  let a = Prng.create 7 in
  let c = Prng.split a in
  Alcotest.(check bool) "streams differ" false (Prng.next a = Prng.next c)

let test_prng_bounds () =
  let r = Prng.create 11 in
  for _ = 1 to 1000 do
    let v = Prng.int r 10 in
    Alcotest.(check bool) "in [0,10)" true (v >= 0 && v < 10);
    let w = Prng.in_range r 5 9 in
    Alcotest.(check bool) "in [5,9]" true (w >= 5 && w <= 9);
    let f = Prng.float r in
    Alcotest.(check bool) "in [0,1)" true (f >= 0. && f < 1.)
  done

let test_prng_float_mean () =
  let r = Prng.create 3 in
  let w = Stats.Welford.create () in
  for _ = 1 to 20000 do
    Stats.Welford.add w (Prng.float r)
  done;
  Alcotest.(check bool) "mean near 0.5" true
    (abs_float (Stats.Welford.mean w -. 0.5) < 0.02)

let test_shuffle_permutation () =
  let r = Prng.create 5 in
  let arr = Array.init 50 (fun i -> i) in
  Prng.shuffle r arr;
  let sorted = Array.copy arr in
  Array.sort compare sorted;
  Alcotest.(check (array int)) "is a permutation" (Array.init 50 (fun i -> i)) sorted

let test_zipf_skew () =
  let r = Prng.create 9 in
  let z = Prng.Zipf.create ~n:100 ~theta:1.0 in
  let counts = Array.make 100 0 in
  for _ = 1 to 10000 do
    let v = Prng.Zipf.draw z r in
    Alcotest.(check bool) "in range" true (v >= 1 && v <= 100);
    counts.(v - 1) <- counts.(v - 1) + 1
  done;
  Alcotest.(check bool) "rank 1 beats rank 50" true (counts.(0) > counts.(49))

let test_welford () =
  let w = Stats.Welford.create () in
  List.iter (Stats.Welford.add w) [ 2.; 4.; 4.; 4.; 5.; 5.; 7.; 9. ];
  Alcotest.(check (float 1e-9)) "mean" 5.0 (Stats.Welford.mean w);
  Alcotest.(check (float 1e-6)) "stddev" 2.13808993529939 (Stats.Welford.stddev w)

let test_percentile () =
  let xs = [ 1.; 2.; 3.; 4.; 5. ] in
  Alcotest.(check (float 1e-9)) "median" 3. (Stats.percentile 0.5 xs);
  Alcotest.(check (float 1e-9)) "min" 1. (Stats.percentile 0. xs);
  Alcotest.(check (float 1e-9)) "max" 5. (Stats.percentile 1. xs)

let test_entropy () =
  Alcotest.(check (float 1e-9)) "uniform 4" 2. (Stats.entropy [ 0.25; 0.25; 0.25; 0.25 ]);
  Alcotest.(check (float 1e-9)) "point mass" 0. (Stats.entropy [ 1.0 ]);
  (* The paper's Fig. 7 example: E(o1) = 1.53, ties to 3 partitions of
     40/30/30 percent; E(o2) = 1.36 for 10/70/10/10. *)
  Alcotest.(check bool) "SEF example ordering" true
    (Stats.entropy [ 0.1; 0.7; 0.1; 0.1 ] < Stats.entropy [ 0.4; 0.3; 0.3 ])

let test_heap_sorts () =
  let h = Heap.of_list compare [ 5; 1; 4; 2; 3 ] in
  Alcotest.(check (list int)) "sorted drain" [ 1; 2; 3; 4; 5 ] (Heap.to_sorted_list h);
  Alcotest.(check int) "peek min" 1 (Heap.peek h);
  Alcotest.(check int) "pop min" 1 (Heap.pop h);
  Alcotest.(check int) "len" 4 (Heap.length h)

let test_heap_empty () =
  let h = Heap.create compare in
  Alcotest.check_raises "pop empty" Not_found (fun () -> ignore (Heap.pop h));
  Alcotest.(check bool) "is_empty" true (Heap.is_empty h)

let test_percentile_single () =
  (* A single observation is every percentile. *)
  Alcotest.(check (float 1e-9)) "p=0" 42. (Stats.percentile 0. [ 42. ]);
  Alcotest.(check (float 1e-9)) "p=0.3" 42. (Stats.percentile 0.3 [ 42. ]);
  Alcotest.(check (float 1e-9)) "p=1" 42. (Stats.percentile 1. [ 42. ])

let test_percentile_empty () =
  Alcotest.check_raises "empty input"
    (Invalid_argument "Stats.percentile: empty input") (fun () ->
      ignore (Stats.percentile 0.5 []))

let test_percentile_or_zero () =
  (* The total variant: an empty window (the server's latency ring before
     any request) reads as 0 instead of raising. *)
  Alcotest.(check (float 1e-9)) "empty is zero" 0. (Stats.percentile_or_zero 0.99 []);
  Alcotest.(check (float 1e-9)) "single sample" 42.
    (Stats.percentile_or_zero 0.5 [ 42. ]);
  Alcotest.(check (float 1e-9)) "single sample, extreme p" 42.
    (Stats.percentile_or_zero 0.99 [ 42. ]);
  (* Ties: every percentile of a constant list is that constant. *)
  let ties = [ 7.; 7.; 7.; 7. ] in
  List.iter
    (fun p ->
      Alcotest.(check (float 1e-9))
        (Printf.sprintf "ties at p=%g" p)
        7.
        (Stats.percentile_or_zero p ties))
    [ 0.; 0.5; 0.95; 1. ];
  (* And it agrees with the raising variant on non-empty input. *)
  let xs = [ 5.; 1.; 3.; 2.; 4. ] in
  List.iter
    (fun p ->
      Alcotest.(check (float 1e-9))
        (Printf.sprintf "agrees at p=%g" p)
        (Stats.percentile p xs)
        (Stats.percentile_or_zero p xs))
    [ 0.; 0.25; 0.5; 0.75; 1. ]

let test_histogram_top_edge () =
  (* x = hi must land in the last bucket, not fall off the end. *)
  let counts = Stats.histogram ~buckets:4 [ 0.; 1.; 2.; 3.; 4. ] in
  Alcotest.(check (array int)) "top edge in last bucket" [| 1; 1; 1; 2 |] counts;
  Alcotest.(check int) "no sample dropped" 5 (Array.fold_left ( + ) 0 counts)

let test_histogram_all_equal () =
  (* Zero-width range: everything in the first bucket, nothing crashes. *)
  let counts = Stats.histogram ~buckets:3 [ 5.; 5.; 5. ] in
  Alcotest.(check (array int)) "all in first bucket" [| 3; 0; 0 |] counts

let test_histogram_invalid () =
  Alcotest.check_raises "non-positive buckets"
    (Invalid_argument "Stats.histogram: buckets must be positive") (fun () ->
      ignore (Stats.histogram ~buckets:0 [ 1. ]));
  Alcotest.check_raises "empty input"
    (Invalid_argument "Stats.histogram: empty input") (fun () ->
      ignore (Stats.histogram ~buckets:4 []))

let qcheck_heap =
  QCheck.Test.make ~name:"heap drains sorted" ~count:200
    QCheck.(list int)
    (fun xs ->
      let h = Urm_util.Heap.of_list compare xs in
      Urm_util.Heap.to_sorted_list h = List.sort compare xs)

let qcheck_heap_push_pop =
  (* Interleaved pushes and pops still drain in sorted order: pops always
     remove the current minimum, so the final drain must equal sorting what
     is left. *)
  QCheck.Test.make ~name:"heap push/pop interleaved" ~count:200
    QCheck.(list (pair int bool))
    (fun ops ->
      let h = Urm_util.Heap.create compare in
      let model = ref [] in
      let rec remove_one x = function
        | [] -> []
        | y :: rest -> if y = x then rest else y :: remove_one x rest
      in
      List.iter
        (fun (x, pop) ->
          if pop && not (Urm_util.Heap.is_empty h) then begin
            let v = Urm_util.Heap.pop h in
            let expected = List.fold_left min max_int !model in
            if v <> expected then QCheck.Test.fail_report "pop not minimum";
            model := remove_one expected !model
          end
          else begin
            Urm_util.Heap.push h x;
            model := x :: !model
          end)
        ops;
      Urm_util.Heap.to_sorted_list h = List.sort compare !model)

let qcheck_heap_copy_independent =
  QCheck.Test.make ~name:"heap copy is independent" ~count:200
    QCheck.(pair (list small_int) small_int)
    (fun (xs, y) ->
      let h = Urm_util.Heap.of_list compare xs in
      let c = Urm_util.Heap.copy h in
      (* Mutate the original: drain it and push something new. *)
      while not (Urm_util.Heap.is_empty h) do
        ignore (Urm_util.Heap.pop h)
      done;
      Urm_util.Heap.push h y;
      Urm_util.Heap.to_sorted_list c = List.sort compare xs
      && Urm_util.Heap.to_sorted_list h = [ y ])

let qcheck_percentile_bounds =
  QCheck.Test.make ~name:"percentile within min/max" ~count:200
    QCheck.(pair (list_of_size Gen.(1 -- 30) (float_bound_exclusive 1000.)) (float_bound_inclusive 1.))
    (fun (xs, p) ->
      let v = Stats.percentile p xs in
      v >= List.fold_left min infinity xs -. 1e-9
      && v <= List.fold_left max neg_infinity xs +. 1e-9)

(* The integer fast path of JSON number rendering must print exactly what
   the general ["%.0f"]/["%.17g"] formatter prints. *)
let qcheck_json_number_rendering =
  let reference f =
    if Float.is_integer f && Float.abs f < 1e15 then Printf.sprintf "%.0f" f
    else Printf.sprintf "%.17g" f
  in
  let edges =
    [ 0.; -0.; 1.; -1.; 1e15; -1e15; 1e15 -. 1.; -.(1e15 -. 1.); 1e15 +. 1.;
      -.(1e15 +. 1.); 999999999999999.5; 4503599627370496.; max_float;
      min_float; infinity; neg_infinity; nan; 0.5; -0.5; 2.5e-7 ]
  in
  let gen =
    QCheck.Gen.(
      oneof
        [
          oneofl edges;
          map float_of_int int;
          map (fun i -> float_of_int i +. 0.25) (int_range (-1_000_000) 1_000_000);
          float;
          map2 (fun m e -> Float.ldexp m e) (float_bound_inclusive 1.) (int_range (-60) 60);
        ])
  in
  QCheck.Test.make ~name:"json numbers render like %.0f/%.17g" ~count:2000
    (QCheck.make ~print:(Printf.sprintf "%h") gen)
    (fun f ->
      String.equal (Urm_util.Json.to_string (Urm_util.Json.Num f)) (reference f))

let suite =
  [
    Alcotest.test_case "prng deterministic" `Quick test_prng_deterministic;
    Alcotest.test_case "prng split independent" `Quick test_prng_split_independent;
    Alcotest.test_case "prng bounds" `Quick test_prng_bounds;
    Alcotest.test_case "prng float mean" `Quick test_prng_float_mean;
    Alcotest.test_case "shuffle permutation" `Quick test_shuffle_permutation;
    Alcotest.test_case "zipf skew" `Quick test_zipf_skew;
    Alcotest.test_case "welford" `Quick test_welford;
    Alcotest.test_case "percentile" `Quick test_percentile;
    Alcotest.test_case "entropy" `Quick test_entropy;
    Alcotest.test_case "heap sorts" `Quick test_heap_sorts;
    Alcotest.test_case "heap empty" `Quick test_heap_empty;
    Alcotest.test_case "percentile single" `Quick test_percentile_single;
    Alcotest.test_case "percentile empty" `Quick test_percentile_empty;
    Alcotest.test_case "percentile_or_zero edge cases" `Quick
      test_percentile_or_zero;
    Alcotest.test_case "histogram top edge" `Quick test_histogram_top_edge;
    Alcotest.test_case "histogram all equal" `Quick test_histogram_all_equal;
    Alcotest.test_case "histogram invalid" `Quick test_histogram_invalid;
    QCheck_alcotest.to_alcotest qcheck_heap;
    QCheck_alcotest.to_alcotest qcheck_heap_push_pop;
    QCheck_alcotest.to_alcotest qcheck_heap_copy_independent;
    QCheck_alcotest.to_alcotest qcheck_percentile_bounds;
    QCheck_alcotest.to_alcotest qcheck_json_number_rendering;
  ]
