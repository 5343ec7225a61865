(* Integration tests over the full pipeline at miniature scale. *)

let pipeline = lazy (Urm_workload.Pipeline.create ~seed:7 ~scale:0.01 ())

let test_target_schema_sizes () =
  let count s = Urm_relalg.Schema.attr_count s in
  Alcotest.(check int) "Excel 48" 48 (count Urm_workload.Targets.excel);
  Alcotest.(check int) "Noris 66" 66 (count Urm_workload.Targets.noris);
  Alcotest.(check int) "Paragon 69" 69 (count Urm_workload.Targets.paragon)

let test_queries_well_formed () =
  Alcotest.(check int) "ten queries" 10 (List.length Urm_workload.Queries.all);
  List.iter
    (fun (name, target, q) ->
      Alcotest.(check string) (name ^ " name") name q.Urm.Query.name;
      (* every query validates against its schema by construction; check the
         operator inventory is non-trivial *)
      Alcotest.(check bool)
        (name ^ " has operators")
        true
        (Urm.Query.operator_count q >= 1);
      ignore target)
    Urm_workload.Queries.all

let test_table3_operator_inventory () =
  let op_count name =
    let _, q = Urm_workload.Queries.by_name name in
    Urm.Query.operator_count q
  in
  Alcotest.(check int) "Q1: three selections" 3 (op_count "Q1");
  Alcotest.(check int) "Q2: two selections + product" 3 (op_count "Q2");
  Alcotest.(check int) "Q3: 2 sel + 2 joins" 4 (op_count "Q3");
  Alcotest.(check int) "Q4: 1 sel + 2 joins + product" 4 (op_count "Q4");
  Alcotest.(check int) "Q5: 4 sel + count" 5 (op_count "Q5");
  Alcotest.(check int) "Q10: 2 sel + product + count" 4 (op_count "Q10")

let test_mappings_pipeline () =
  let p = Lazy.force pipeline in
  let ms = Urm_workload.Pipeline.mappings p Urm_workload.Targets.excel ~h:15 in
  Alcotest.(check int) "h mappings" 15 (List.length ms);
  Alcotest.(check (float 1e-9)) "normalised" 1. (Urm.Mapping.total_prob ms);
  Alcotest.(check bool) "substantial top mapping" true
    (Urm.Mapping.size (List.hd ms) >= 20);
  Alcotest.(check bool) "high overlap" true (Urm.Overlap.o_ratio ms >= 0.5)

let test_mapping_cache_prefix () =
  let p = Lazy.force pipeline in
  let big = Urm_workload.Pipeline.mappings p Urm_workload.Targets.noris ~h:12 in
  let small = Urm_workload.Pipeline.mappings p Urm_workload.Targets.noris ~h:5 in
  Alcotest.(check int) "prefix length" 5 (List.length small);
  (* same correspondence sets as the first five of the larger request *)
  List.iteri
    (fun idx m ->
      if idx < 5 then
        Alcotest.(check bool)
          (Printf.sprintf "mapping %d same" idx)
          true
          (Urm.Mapping.same_correspondences m (List.nth small idx)))
    big;
  Alcotest.(check (float 1e-9)) "renormalised" 1. (Urm.Mapping.total_prob small)

let test_every_query_runs_and_agrees () =
  let p = Lazy.force pipeline in
  List.iter
    (fun (name, target, q) ->
      let ctx = Urm_workload.Pipeline.ctx p target in
      let ms = Urm_workload.Pipeline.mappings p target ~h:10 in
      let basic = (Urm.Algorithms.run Urm.Algorithms.Basic ctx q ms).Urm.Report.answer in
      List.iter
        (fun alg ->
          let r = (Urm.Algorithms.run alg ctx q ms).Urm.Report.answer in
          if not (Urm.Answer.equal ~eps:1e-6 basic r) then
            Alcotest.failf "%s disagrees on %s" (Urm.Algorithms.name alg) name)
        [
          Urm.Algorithms.Ebasic; Urm.Algorithms.Emqo; Urm.Algorithms.Qsharing;
          Urm.Algorithms.Osharing Urm.Eunit.Random;
          Urm.Algorithms.Osharing Urm.Eunit.Snf;
          Urm.Algorithms.Osharing Urm.Eunit.Sef;
        ])
    Urm_workload.Queries.all

let test_topk_sound_on_workload () =
  let p = Lazy.force pipeline in
  List.iter
    (fun qname ->
      let target, q = Urm_workload.Queries.by_name qname in
      let ctx = Urm_workload.Pipeline.ctx p target in
      let ms = Urm_workload.Pipeline.mappings p target ~h:10 in
      let full =
        (Urm.Algorithms.run (Urm.Algorithms.Osharing Urm.Eunit.Sef) ctx q ms)
          .Urm.Report.answer
      in
      List.iter
        (fun k ->
          let r = Urm.Topk.run ~k ctx q ms in
          let truth = Urm.Answer.top_k full k in
          let kth = match List.rev truth with [] -> 0. | (_, pr) :: _ -> pr in
          List.iter
            (fun (t, _) ->
              if Urm.Answer.prob_of full t < kth -. 1e-9 then
                Alcotest.failf "%s k=%d returned non-top tuple" qname k)
            (Urm.Answer.to_list r.Urm.Topk.report.Urm.Report.answer))
        [ 1; 3 ])
    [ "Q1"; "Q4"; "Q7"; "Q10" ]

let test_sweep_queries () =
  List.iter
    (fun n ->
      let q = Urm_workload.Sweeps.selections n in
      Alcotest.(check int) "selection count" n (List.length q.Urm.Query.selections))
    [ 1; 2; 3; 4; 5 ];
  List.iter
    (fun n ->
      let q = Urm_workload.Sweeps.self_joins n in
      Alcotest.(check int) "join count" n (List.length q.Urm.Query.joins);
      Alcotest.(check int) "alias count" (n + 1) (List.length q.Urm.Query.aliases))
    [ 1; 2; 3 ];
  Alcotest.check_raises "selections out of range"
    (Invalid_argument "Sweeps.selections: n out of range") (fun () ->
      ignore (Urm_workload.Sweeps.selections 6))

let test_experiments_quick () =
  (* every experiment produces a well-formed table at the quick config *)
  let cfg = Urm_workload.Experiments.quick in
  List.iter
    (fun (id, f) ->
      let table = f cfg in
      Alcotest.(check string) (id ^ " id") id table.Urm_workload.Experiments.Table.id;
      Alcotest.(check bool) (id ^ " has rows") true
        (table.Urm_workload.Experiments.Table.rows <> []);
      List.iter
        (fun row ->
          Alcotest.(check int)
            (id ^ " row width")
            (List.length table.Urm_workload.Experiments.Table.headers)
            (List.length row))
        table.Urm_workload.Experiments.Table.rows)
    (* exclude the slowest sweeps from unit tests; they run in the bench *)
    (List.filter
       (fun (id, _) -> not (List.mem id [ "fig10c"; "fig11c"; "abl-ptree" ]))
       Urm_workload.Experiments.all)

let test_hero_rows_make_queries_satisfiable () =
  let p = Lazy.force pipeline in
  (* Q1/Q6/Q7 conjunctive selections have a witness thanks to hero rows *)
  List.iter
    (fun qname ->
      let target, q = Urm_workload.Queries.by_name qname in
      let ctx = Urm_workload.Pipeline.ctx p target in
      let ms = Urm_workload.Pipeline.mappings p target ~h:10 in
      let a = (Urm.Algorithms.run Urm.Algorithms.Basic ctx q ms).Urm.Report.answer in
      Alcotest.(check bool) (qname ^ " non-θ") true (Urm.Answer.size a > 0))
    [ "Q1"; "Q6"; "Q7" ]

let test_montecarlo_validates_workload () =
  let p = Lazy.force pipeline in
  List.iter
    (fun qname ->
      let target, q = Urm_workload.Queries.by_name qname in
      let ctx = Urm_workload.Pipeline.ctx p target in
      let ms = Urm_workload.Pipeline.mappings p target ~h:10 in
      let exact = (Urm.Algorithms.run Urm.Algorithms.Basic ctx q ms).Urm.Report.answer in
      let estimate = Urm.Montecarlo.estimate ~seed:9 ~samples:20000 ctx q ms in
      let dev = Urm.Montecarlo.max_deviation ~exact ~estimate in
      if dev > 0.02 then
        Alcotest.failf "%s: Monte-Carlo deviates by %.4f from the exact answer" qname dev)
    [ "Q1"; "Q5"; "Q7"; "Q10" ]

(* Random query generator over the Excel target schema: selections from a
   pool of plausible predicates, optional join, optional aggregate with
   optional grouping.  All algorithms must agree with basic on all of them
   — the strongest end-to-end invariant the library has. *)
let qcheck_random_workload_queries_agree =
  let open QCheck.Gen in
  let at = Urm.Query.at in
  let v_str s = Urm_relalg.Value.Str s in
  let v_int i = Urm_relalg.Value.Int i in
  let sel_pool =
    [
      (at "PO" "telephone", v_str Urm_tpch.Gen.phone_hot);
      (at "PO" "priority", v_int 2);
      (at "PO" "invoiceTo", v_str Urm_tpch.Gen.person_hot);
      (at "PO" "deliverToStreet", v_str Urm_tpch.Gen.street_hot);
      (at "PO" "company", v_str Urm_tpch.Gen.company_hot);
      (at "Item" "quantity", v_int 10);
      (at "Item" "itemNum", v_str Urm_tpch.Gen.part_hot);
    ]
  in
  let gen =
    list_size (0 -- 3) (oneofl sel_pool) >>= fun sels ->
    bool >>= fun join ->
    oneofl
      [ `None; `Count; `Sum; `CountByPriority; `Proj ]
    >|= fun shape ->
    let sels = List.sort_uniq compare sels in
    let aliases = [ ("PO", "PO"); ("Item", "Item") ] in
    let joins = if join then [ (at "PO" "orderNum", at "Item" "orderNum") ] else [] in
    let make = Urm.Query.make ~name:"rand" ~target:Urm_workload.Targets.excel ~aliases ~selections:sels ~joins in
    match shape with
    | `None -> make ()
    | `Count -> make ~aggregate:Urm.Query.Count ()
    | `Sum -> make ~aggregate:(Urm.Query.Sum (at "Item" "unitPrice")) ()
    | `CountByPriority ->
      make ~aggregate:Urm.Query.Count ~group_by:[ at "PO" "priority" ] ()
    | `Proj -> make ~projection:[ at "PO" "telephone"; at "Item" "itemNum" ] ()
  in
  QCheck.Test.make ~name:"random workload queries agree across algorithms" ~count:25
    (QCheck.make gen ~print:Urm.Query.to_string)
    (fun q ->
      let p = Lazy.force pipeline in
      let ctx = Urm_workload.Pipeline.ctx p Urm_workload.Targets.excel in
      let ms = Urm_workload.Pipeline.mappings p Urm_workload.Targets.excel ~h:8 in
      let baseline = (Urm.Algorithms.run Urm.Algorithms.Basic ctx q ms).Urm.Report.answer in
      List.for_all
        (fun alg ->
          Urm.Answer.equal ~eps:1e-6 baseline
            (Urm.Algorithms.run alg ctx q ms).Urm.Report.answer)
        [
          Urm.Algorithms.Ebasic; Urm.Algorithms.Emqo; Urm.Algorithms.Qsharing;
          Urm.Algorithms.Osharing Urm.Eunit.Random;
          Urm.Algorithms.Osharing Urm.Eunit.Snf;
          Urm.Algorithms.Osharing Urm.Eunit.Sef;
        ])

let test_osharing_metrics_agree () =
  (* The metrics registry and Osharing's stats record are two views over
     the same counters: they must agree exactly on a fixed-seed run, and
     the per-kind operator counters must sum to the total. *)
  let p = Lazy.force pipeline in
  let target, q = Urm_workload.Queries.by_name "Q4" in
  let ctx = Urm_workload.Pipeline.ctx p target in
  let ms = Urm_workload.Pipeline.mappings p target ~h:10 in
  let reg = Urm_obs.Metrics.create () in
  let report, stats =
    Urm.Osharing.run_with_stats ~seed:7 ~metrics:reg ctx q ms
  in
  let counter name =
    match Urm_obs.Metrics.find_counter reg ("o-sharing/" ^ name) with
    | Some v -> v
    | None -> Alcotest.failf "counter o-sharing/%s not registered" name
  in
  Alcotest.(check int) "eunits" stats.Urm.Osharing.eunits
    (counter "eunit/executions");
  Alcotest.(check int) "memo hits" stats.Urm.Osharing.memo_hits
    (counter "eunit/memo_hits");
  Alcotest.(check int) "representatives" stats.Urm.Osharing.representatives
    (counter "eunit/representatives");
  Alcotest.(check int) "operators" report.Urm.Report.source_operators
    (counter "relalg/operators");
  Alcotest.(check int) "rows" report.Urm.Report.rows_produced
    (counter "relalg/rows_produced");
  Alcotest.(check bool) "e-units executed" true (counter "eunit/executions" > 0);
  let kinds =
    [ "op.select"; "op.project"; "op.distinct"; "op.product"; "op.join";
      "op.aggregate"; "op.groupby" ]
  in
  Alcotest.(check int) "per-kind counters sum to total"
    (counter "relalg/operators")
    (List.fold_left (fun acc k -> acc + counter ("relalg/" ^ k)) 0 kinds);
  (* Memo hits depend on operator ordering; the Random strategy across a few
     seeds exercises them.  Whatever the count, the stats record and the
     registry must agree. *)
  List.iter
    (fun seed ->
      let reg = Urm_obs.Metrics.create () in
      let _, stats =
        Urm.Osharing.run_with_stats ~strategy:Urm.Eunit.Random ~seed
          ~metrics:reg ctx q ms
      in
      let hits =
        Option.value ~default:0
          (Urm_obs.Metrics.find_counter reg "o-sharing/eunit/memo_hits")
      in
      Alcotest.(check int)
        (Printf.sprintf "memo hits agree (seed %d)" seed)
        stats.Urm.Osharing.memo_hits hits)
    [ 1; 2; 3; 4; 5; 6 ]

(* Regression: e-unit counts are per run.  They used to read a counter of
   the shared metrics registry, so a Q2 top-k after a Q1 one reported the
   e-units of both. *)
let test_eunit_counts_are_per_run () =
  let p = Lazy.force pipeline in
  let run qname =
    let target, q = Urm_workload.Queries.by_name qname in
    let ctx = Urm_workload.Pipeline.ctx p target in
    let ms = Urm_workload.Pipeline.mappings p target ~h:10 in
    ( (Urm.Topk.run ~k:3 ctx q ms).Urm.Topk.visited_eunits,
      (Urm.Threshold.run ~tau:0.3 ctx q ms).Urm.Threshold.visited_eunits,
      (snd (Urm.Osharing.run_with_stats ctx q ms)).Urm.Osharing.eunits )
  in
  let alone = run "Q2" in
  ignore (run "Q1");
  let after = run "Q2" in
  let topk (t, _, _) = t and threshold (_, t, _) = t and osharing (_, _, o) = o in
  Alcotest.(check bool) "e-units visited" true (topk alone > 0);
  Alcotest.(check int) "top-k: Q2 alone = Q2 after Q1" (topk alone) (topk after);
  Alcotest.(check int) "threshold: Q2 alone = Q2 after Q1" (threshold alone)
    (threshold after);
  Alcotest.(check int) "o-sharing: Q2 alone = Q2 after Q1" (osharing alone)
    (osharing after)

let suite =
  [
    Alcotest.test_case "target schema sizes" `Quick test_target_schema_sizes;
    Alcotest.test_case "queries well-formed" `Quick test_queries_well_formed;
    Alcotest.test_case "Table III operator inventory" `Quick test_table3_operator_inventory;
    Alcotest.test_case "mapping pipeline" `Quick test_mappings_pipeline;
    Alcotest.test_case "mapping cache prefix" `Quick test_mapping_cache_prefix;
    Alcotest.test_case "all queries agree (integration)" `Slow test_every_query_runs_and_agrees;
    Alcotest.test_case "top-k sound (integration)" `Slow test_topk_sound_on_workload;
    Alcotest.test_case "sweep queries" `Quick test_sweep_queries;
    Alcotest.test_case "e-unit counts are per run" `Quick
      test_eunit_counts_are_per_run;
    Alcotest.test_case "experiments quick config" `Slow test_experiments_quick;
    Alcotest.test_case "hero rows" `Quick test_hero_rows_make_queries_satisfiable;
    Alcotest.test_case "monte-carlo validates workload" `Slow test_montecarlo_validates_workload;
    Alcotest.test_case "o-sharing stats match metrics registry" `Quick
      test_osharing_metrics_agree;
    QCheck_alcotest.to_alcotest qcheck_random_workload_queries_agree;
  ]
