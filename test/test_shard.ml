(* Differential oracle for the shard router: the same session, queries
   and mutation batches against a single-process server and against
   routers with 1, 2 and 4 worker processes must produce byte-identical
   answer payloads — the basic fan-out merges per-mapping partials in
   ascending order, every other operation forwards whole, and JSON
   floats render as %.17g, so any divergence is a real bug, not noise.

   The routers spawn workers by re-executing this test binary; test_main
   calls [Urm_shard.Launcher.exec_if_worker] before Alcotest ever runs. *)

module Json = Urm_util.Json
module Client = Urm_service.Client
module Server = Urm_service.Server
module Router = Urm_shard.Router
module Hash = Urm_shard.Hash

let seed = 5
let scale = 0.005
let h = 6
let shard_counts = [ 1; 2; 4 ]

let member name json = Option.value ~default:Json.Null (Json.member name json)

let answer_key json =
  Json.to_string
    (Json.Obj
       [ ("answers", member "answers" json); ("null", member "null_prob" json) ])

let approx_key json =
  Json.to_string
    (Json.Obj
       [
         ("answers", member "answers" json);
         ("intervals", member "intervals" json);
         ("samples", member "samples" json);
       ])

let open_params =
  [
    ("session", Json.Str "shard");
    ("target", Json.Str "Excel");
    ("seed", Json.Num (float_of_int seed));
    ("scale", Json.Num scale);
    ("h", Json.Num (float_of_int h));
  ]

type fixture = {
  oracle : Server.t;
  c_oracle : Client.t;
  routers : (int * Router.t * Client.t) list;
}

let fixture =
  lazy
    (let oracle =
       Server.start
         {
           Server.default_config with
           port = 0;
           workers = 2;
           engine = Urm_relalg.Compile.Vectorized;
         }
     in
     let c_oracle = Client.connect ~port:(Server.port oracle) () in
     (match Client.call c_oracle ~op:"open-session" open_params with
     | Ok _ -> ()
     | Error (code, m) -> failwith (Printf.sprintf "oracle open: %s: %s" code m));
     let routers =
       List.map
         (fun shards ->
           match Router.start { Router.default_config with shards } with
           | Error m ->
             failwith (Printf.sprintf "router (%d shards): %s" shards m)
           | Ok r ->
             let c = Client.connect ~framed:true ~port:(Router.port r) () in
             (match Client.call c ~op:"open-session" open_params with
             | Ok _ -> ()
             | Error (code, m) ->
               failwith
                 (Printf.sprintf "router (%d shards) open: %s: %s" shards code m));
             (shards, r, c))
         shard_counts
     in
     { oracle; c_oracle; routers })

let call_or_fail label c ~op params =
  match Client.call c ~op params with
  | Ok j -> j
  | Error (code, m) -> Alcotest.failf "%s: %s: %s" label code m

let query_params qname alg =
  [
    ("session", Json.Str "shard");
    ("query", Json.Str qname);
    ("algorithm", Json.Str alg);
  ]

(* ------------------------------------------------------------------ *)
(* Placement is deterministic and total *)

let test_hash_owner () =
  List.iter
    (fun shards ->
      List.iter
        (fun key ->
          let o = Hash.owner ~shards key in
          Alcotest.(check bool) "in range" true (o >= 0 && o < shards);
          Alcotest.(check int) "deterministic" o (Hash.owner ~shards key))
        [ ""; "a"; "fingerprint:1234"; "shard" ])
    [ 1; 2; 3; 7 ];
  Alcotest.(check int) "one shard is trivial" 0 (Hash.owner ~shards:1 "x");
  Alcotest.(check bool) "rejects zero shards" true
    (match Hash.owner ~shards:0 "x" with
    | exception Invalid_argument _ -> true
    | _ -> false)

let test_hash_ranges () =
  List.iter
    (fun (shards, n) ->
      let ranges = Hash.ranges ~shards ~h:n in
      Alcotest.(check int) "one range per shard" shards (Array.length ranges);
      let covered =
        Array.fold_left (fun acc (lo, hi) -> acc + (hi - lo)) 0 ranges
      in
      Alcotest.(check int) "ranges cover every mapping" n covered;
      Array.iteri
        (fun i (lo, hi) ->
          Alcotest.(check bool) "ordered" true (lo <= hi);
          if i > 0 then
            Alcotest.(check int) "contiguous" lo (snd ranges.(i - 1)))
        ranges)
    [ (1, 6); (2, 6); (4, 6); (3, 10); (8, 3) ]

(* ------------------------------------------------------------------ *)
(* Random queries: router ≡ single process, any shard count *)

let qcheck_differential =
  let gen =
    QCheck.Gen.(
      pair
        (oneofl [ "Q1"; "Q2"; "Q3"; "Q4"; "Q5" ])
        (oneofl [ "basic"; "e-basic"; "e-mqo"; "q-sharing"; "o-sharing" ]))
  in
  QCheck.Test.make ~name:"random query × algorithm × shard count is byte-identical"
    ~count:25 (QCheck.make gen) (fun (qname, alg) ->
      let f = Lazy.force fixture in
      let expected =
        answer_key
          (call_or_fail "oracle query" f.c_oracle ~op:"query"
             (query_params qname alg))
      in
      List.for_all
        (fun (shards, _, c) ->
          let got =
            answer_key
              (call_or_fail
                 (Printf.sprintf "router %d query" shards)
                 c ~op:"query" (query_params qname alg))
          in
          String.equal expected got)
        f.routers)

(* Q3 has the largest per-mapping partials of the fixture's queries:
   the dictionary-encoded fan-out (basic over mapping ranges, e-MQO over
   e-unit slots) must merge to the oracle's full answer byte for byte. *)
let test_q3_fanout_differential () =
  let f = Lazy.force fixture in
  List.iter
    (fun alg ->
      let params = ("answers", Json.Num 1e6) :: query_params "Q3" alg in
      let full json =
        Json.to_string
          (Json.Obj [ ("size", member "size" json); ("key", Json.Str (answer_key json)) ])
      in
      let expected =
        full (call_or_fail ("oracle Q3 " ^ alg) f.c_oracle ~op:"query" params)
      in
      List.iter
        (fun (shards, _, c) ->
          if shards > 1 then begin
            let reply =
              call_or_fail
                (Printf.sprintf "router %d Q3 %s" shards alg)
                c ~op:"query" params
            in
            Alcotest.(check string)
              (Printf.sprintf "Q3 %s fanned over %d shards" alg shards)
              (Json.to_string (Json.Num (float_of_int shards)))
              (Json.to_string (member "sharded" reply));
            Alcotest.(check string)
              (Printf.sprintf "Q3 %s via %d shards" alg shards)
              expected (full reply)
          end)
        f.routers)
    [ "basic"; "e-mqo" ]

let test_approx_differential () =
  let f = Lazy.force fixture in
  let params =
    [
      ("session", Json.Str "shard");
      ("query", Json.Str "Q1");
      ("samples", Json.Num 200.);
      ("seed", Json.Num 11.);
    ]
  in
  let expected =
    approx_key (call_or_fail "oracle approx" f.c_oracle ~op:"approx" params)
  in
  List.iter
    (fun (shards, _, c) ->
      Alcotest.(check string)
        (Printf.sprintf "approx via %d shards" shards)
        expected
        (approx_key
           (call_or_fail "router approx" c ~op:"approx" params)))
    f.routers

let test_topk_threshold_differential () =
  let f = Lazy.force fixture in
  List.iter
    (fun (op, extra) ->
      let params = (("session", Json.Str "shard") :: extra) in
      let expected =
        answer_key (call_or_fail ("oracle " ^ op) f.c_oracle ~op params)
      in
      List.iter
        (fun (shards, _, c) ->
          Alcotest.(check string)
            (Printf.sprintf "%s via %d shards" op shards)
            expected
            (answer_key (call_or_fail ("router " ^ op) c ~op params)))
        f.routers)
    [
      ("topk", [ ("query", Json.Str "Q4"); ("k", Json.Num 3.) ]);
      ("threshold", [ ("query", Json.Str "Q2"); ("tau", Json.Num 0.3) ]);
    ]

let test_batch_pipelining () =
  let f = Lazy.force fixture in
  List.iter
    (fun (shards, _, c) ->
      match
        Client.call_batch c
          [
            ("ping", []);
            ("query", query_params "Q1" "basic");
            ("no-such-op", []);
          ]
      with
      | Error m -> Alcotest.failf "batch via %d shards: %s" shards m
      | Ok [ ping; q; bad ] ->
        Alcotest.(check bool) "pong" true
          (match ping with Ok j -> member "pong" j = Json.Bool true | _ -> false);
        Alcotest.(check bool) "query answered" true (Result.is_ok q);
        Alcotest.(check bool) "unknown op is a per-item error" true
          (match bad with Error ("bad_request", _) -> true | _ -> false)
      | Ok replies ->
        Alcotest.failf "batch via %d shards: %d replies" shards
          (List.length replies))
    f.routers

(* A partial-range query beyond the live mapping count must surface the
   worker's typed [stale_range] error — the router's refresh-and-retry
   keys off this code, so it must never regress into a generic
   bad_request whose message the router would have to parse. *)
let test_stale_range_is_typed () =
  let f = Lazy.force fixture in
  (* Both fan-out protocols: a mapping range beyond the live count, and an
     e-unit slot whose expected mapping count is behind a mutate. *)
  let probes =
    [
      query_params "Q1" "basic"
      @ [ ("range_lo", Json.Num 0.); ("range_hi", Json.Num 999.) ];
      query_params "Q1" "e-basic"
      @ [
          ("slot", Json.Num 0.);
          ("slots", Json.Num 1.);
          ("expect_h", Json.Num 999.);
        ];
    ]
  in
  List.iter
    (fun params ->
      List.iter
        (fun (label, c) ->
          match Client.call c ~op:"query" params with
          | Error ("stale_range", _) -> ()
          | Error (code, m) ->
            Alcotest.failf "%s: wanted stale_range, got %s: %s" label code m
          | Ok _ -> Alcotest.failf "%s: out-of-range query succeeded" label)
        (("oracle", f.c_oracle)
        :: List.map
             (fun (shards, _, c) -> (Printf.sprintf "%d-shard router" shards, c))
             f.routers))
    probes

(* ------------------------------------------------------------------ *)
(* Mutation rounds through the router, differential against the oracle *)

let test_mutation_rounds () =
  let f = Lazy.force fixture in
  (* A live row of the lexicographically first relation, rendered exactly
     as the wire expects, from a local pipeline over the same parameters. *)
  let p = Urm_workload.Pipeline.create ~seed ~scale () in
  let ctx = Urm_workload.Pipeline.ctx p Urm_workload.Targets.excel in
  let rel =
    List.hd
      (List.sort String.compare (Urm_relalg.Catalog.names ctx.Urm.Ctx.catalog))
  in
  let row i =
    let stored = Urm_relalg.Catalog.find ctx.Urm.Ctx.catalog rel in
    let r =
      stored.Urm_relalg.Relation.rows.(i mod Urm_relalg.Relation.cardinality stored)
    in
    Json.Arr
      (List.map Urm_service.Protocol.value_to_json (Array.to_list r))
  in
  (* Reweight downward so the mapping-set mass stays a sub-distribution
     (the commit path validates, and reweight does not renormalise). *)
  let prob0 =
    let ms = Urm_workload.Pipeline.mappings p Urm_workload.Targets.excel ~h in
    (List.hd ms).Urm.Mapping.prob *. 0.8
  in
  let batches =
    [
      (* Data-only: delete a live row, insert it back at the end. *)
      Json.Arr
        [
          Json.Obj
            [ ("op", Json.Str "delete"); ("rel", Json.Str rel); ("row", row 0) ];
          Json.Obj
            [ ("op", Json.Str "insert"); ("rel", Json.Str rel); ("row", row 0) ];
        ];
      (* Reweight mapping 0 — wholesale invalidation, same mapping count. *)
      Json.Arr
        [
          Json.Obj
            [
              ("op", Json.Str "reweight");
              ("mapping", Json.Num 0.);
              ("prob", Json.Num prob0);
            ];
        ];
      (* Prune the last mapping — the mapping count drops, so the routers
         must refresh their fan-out bound. *)
      Json.Arr
        [
          Json.Obj
            [
              ("op", Json.Str "prune");
              ("mapping", Json.Num (float_of_int (h - 1)));
            ];
        ];
      Json.Arr
        [
          Json.Obj
            [ ("op", Json.Str "delete"); ("rel", Json.Str rel); ("row", row 2) ];
          Json.Obj
            [ ("op", Json.Str "insert"); ("rel", Json.Str rel); ("row", row 2) ];
        ];
    ]
  in
  List.iteri
    (fun round batch ->
      let params = [ ("session", Json.Str "shard"); ("mutations", batch) ] in
      let oracle_reply =
        call_or_fail
          (Printf.sprintf "oracle mutate %d" round)
          f.c_oracle ~op:"mutate" params
      in
      List.iter
        (fun (shards, _, c) ->
          let reply =
            call_or_fail
              (Printf.sprintf "router %d mutate %d" shards round)
              c ~op:"mutate" params
          in
          Alcotest.(check string)
            (Printf.sprintf "round %d epoch agrees via %d shards" round shards)
            (Json.to_string (member "epoch" oracle_reply))
            (Json.to_string (member "epoch" reply)))
        f.routers;
      (* Fresh basic (fanned out) and the maintained incr answer must both
         match the single process after every round. *)
      List.iter
        (fun alg ->
          let expected =
            answer_key
              (call_or_fail
                 (Printf.sprintf "oracle %s after round %d" alg round)
                 f.c_oracle ~op:"query" (query_params "Q1" alg))
          in
          List.iter
            (fun (shards, _, c) ->
              Alcotest.(check string)
                (Printf.sprintf "round %d %s via %d shards" round alg shards)
                expected
                (answer_key
                   (call_or_fail
                      (Printf.sprintf "router %d %s round %d" shards alg round)
                      c ~op:"query" (query_params "Q1" alg))))
            f.routers)
        [ "basic"; "e-basic"; "incr" ])
    batches

(* ------------------------------------------------------------------ *)
(* Metrics roll-up shape *)

let test_metrics_rollup () =
  let f = Lazy.force fixture in
  List.iter
    (fun (shards, r, c) ->
      let m = call_or_fail "router metrics" c ~op:"metrics" [] in
      let router = member "router" m in
      Alcotest.(check bool)
        (Printf.sprintf "%d shards reported" shards)
        true
        (member "shards" router = Json.Num (float_of_int shards));
      (match member "shards" m with
      | Json.Arr per_shard ->
        Alcotest.(check int) "one entry per shard" shards (List.length per_shard)
      | _ -> Alcotest.fail "missing per-shard metrics");
      (* The aggregate sums additive counters over the fleet and drops
         non-additive percentiles. *)
      let agg = member "aggregate" m in
      Alcotest.(check bool) "aggregate requests present" true
        (match member "requests" agg with Json.Num n -> n > 0. | _ -> false);
      Alcotest.(check bool) "percentiles dropped from aggregate" true
        (member "p50" (member "latency" agg) = Json.Null);
      Alcotest.(check int) "no restarts during the happy path" 0
        (Router.restarts r))
    f.routers

(* ------------------------------------------------------------------ *)
(* Teardown — must run last in this suite *)

let test_teardown () =
  let f = Lazy.force fixture in
  List.iter
    (fun (shards, r, c) ->
      let bye = call_or_fail "router shutdown" c ~op:"shutdown" [] in
      Alcotest.(check bool)
        (Printf.sprintf "router %d drains" shards)
        true
        (member "draining" bye = Json.Bool true);
      Client.close c;
      Router.wait r;
      Alcotest.(check (list int))
        (Printf.sprintf "router %d workers reaped" shards)
        []
        (Router.worker_pids r))
    f.routers;
  Client.close f.c_oracle;
  Server.stop f.oracle;
  Server.wait f.oracle

let suite =
  [
    Alcotest.test_case "rendezvous placement" `Quick test_hash_owner;
    Alcotest.test_case "fan-out ranges partition the mappings" `Quick
      test_hash_ranges;
    QCheck_alcotest.to_alcotest qcheck_differential;
    Alcotest.test_case "Q3 basic and e-mqo fan out byte-identically" `Slow
      test_q3_fanout_differential;
    Alcotest.test_case "approx is byte-identical through the router" `Slow
      test_approx_differential;
    Alcotest.test_case "topk and threshold forward byte-identically" `Slow
      test_topk_threshold_differential;
    Alcotest.test_case "batch frames pipeline through the router" `Slow
      test_batch_pipelining;
    Alcotest.test_case "stale range is a typed error" `Slow
      test_stale_range_is_typed;
    Alcotest.test_case "mutation rounds stay in lockstep" `Slow
      test_mutation_rounds;
    Alcotest.test_case "metrics roll up across the fleet" `Slow
      test_metrics_rollup;
    Alcotest.test_case "teardown reaps every worker" `Slow test_teardown;
  ]
