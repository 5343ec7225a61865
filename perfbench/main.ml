(* The repository benchmark: four workloads that drive the system through
   its public entry points, time each operation from outside, check every
   answer, and print one JSON result line.  See perfbench/WORKLOADS.md for
   why each workload exists and how each metric is defined.

   Usage: main.exe --workload NAME --seed N --seconds S --trace 0|1 *)

(* The router re-executes this binary as its shard workers. *)
let () = Urm_shard.Launcher.exec_if_worker ()

open Perfbench
module Json = Urm_util.Json
module Client = Urm_service.Client
module Server = Urm_service.Server
module Session = Urm_service.Session
module Protocol = Urm_service.Protocol
module Router = Urm_shard.Router
module Pipeline = Urm_workload.Pipeline
module Answer = Urm.Answer
module Algorithms = Urm.Algorithms

let now = Unix.gettimeofday
let h = 100

(* Every workload runs over the repository's default source instance (the
   generator seed [urm] uses unless told otherwise); the benchmark seed
   drives the order of operations and the mutation rows.  Costs
   depend strongly on the instance: Q3 top-k k=5 at scale 0.05 takes 2 s
   on this instance and 3.5 to 11.4 s on instances 1 to 5 (WORKLOADS.md),
   so a seed-drawn instance would make every run a different workload. *)
let instance_seed = 42

(* Set-up runs this many times per untraced run; [setup_s] is the median. *)
let setup_reps = 3

(* ------------------------------------------------------------------ *)
(* Metric declarations: the names, units and order of BENCHMARK.json. *)

(* The median latency is printed by every run but is a per-layer metric:
   on service-rw it falls where the latency distribution is sparse, so
   its sampling error within one run is about a third of its value
   (WORKLOADS.md). *)
let end_to_end =
  [
    ("setup_s", "s");
    ("throughput_qps", "1/s");
    ("latency_tail_s", "s");
    ("peak_rss_mb", "MB");
  ]

let per_layer =
  [
    ("latency_p50_s", "s");
    ("tpch.generate_s", "s");
    ("matcher.candidates_s", "s");
    ("mapgen.kbest_s", "s");
    ("service.open_session_s", "s");
    ("shard.start_s", "s");
    ("core.reformulate_s", "s");
    ("core.units", "count");
    ("core.units_executed", "count");
    ("core.replay_ratio", "ratio");
    ("relalg.cold_s", "s");
    ("relalg.plan_cache.hit_ratio", "ratio");
    ("core.execute_s", "s");
    ("relalg.rows", "count");
    ("core.execute_alloc_mw", "Mw");
    ("core.rank_s", "s");
    ("core.answer_tuples", "count");
    ("core.rank_alloc_mw", "Mw");
    ("cli.render_s", "s");
    ("service.ping_s", "s");
    ("service.hit_s", "s");
    ("service.miss_s", "s");
    ("service.cache.hit_ratio", "ratio");
    ("service.cache.removed_per_mutate", "count");
    ("service.reply_bytes", "B");
    ("incr.mutate_s", "s");
    ("incr.patched_s", "s");
    ("core.topk_miss_s", "s");
    ("service.queue.rejected", "count");
    ("shard.fanout_hit_s", "s");
    ("shard.forward_hit_s", "s");
    ("shard.worker_rss_mb", "MB");
    ("shard.restarts", "count");
    ("write_p50_s", "s");
    ("error_rate", "ratio");
    ("ops.query", "count");
    ("ops.topk", "count");
    ("ops.incr", "count");
    ("ops.mutate", "count");
    ("ops.ping", "count");
    ("gc.top_heap_mb", "MB");
    ("trace.unattributed_share", "ratio");
    ("trace.overhead_share", "ratio");
  ]

(* ------------------------------------------------------------------ *)
(* Command line *)

type args = { workload : string; seed : int; seconds : float; traced : bool }

let workloads = [ "cli-large"; "cli-selective"; "service-rw"; "router-fanout" ]

let parse_args () =
  let workload = ref "" and seed = ref (-1) and seconds = ref 0 and trace = ref (-1) in
  let usage =
    "main.exe --workload {" ^ String.concat "|" workloads
    ^ "} --seed N --seconds S --trace 0|1"
  in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME workload to run");
      ("--seed", Arg.Set_int seed, "N input seed (>= 0)");
      ("--seconds", Arg.Set_int seconds, "S length of the timed phase");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end or traced run");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    usage;
  if
    (not (List.mem !workload workloads))
    || !seed < 0 || !seconds < 1
    || not (!trace = 0 || !trace = 1)
  then begin
    prerr_endline usage;
    exit 2
  end;
  { workload = !workload; seed = !seed; seconds = float_of_int !seconds; traced = !trace = 1 }

(* ------------------------------------------------------------------ *)
(* Measurement helpers *)

let vm_hwm_mb pid =
  let path = Printf.sprintf "/proc/%s/status" pid in
  In_channel.with_open_text path (fun ic ->
      let rec scan () =
        match In_channel.input_line ic with
        | None -> failwith ("no VmHWM in " ^ path)
        | Some l when String.starts_with ~prefix:"VmHWM:" l ->
          Scanf.sscanf l "VmHWM: %d kB" (fun kb -> float_of_int kb /. 1024.)
        | Some _ -> scan ()
      in
      scan ())

let alloc_words () =
  let s = Gc.quick_stat () in
  s.Gc.minor_words +. s.Gc.major_words -. s.Gc.promoted_words

(* [f ()] with the megawords it allocated on this domain. *)
let with_alloc f =
  let w0 = alloc_words () in
  let r = f () in
  (r, (alloc_words () -. w0) /. 1e6)

let top_heap_mb () =
  float_of_int (Gc.quick_stat ()).Gc.top_heap_words
  *. float_of_int (Sys.word_size / 8)
  /. 1048576.

let shuffle rng l =
  let a = Array.of_list l in
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let x = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- x
  done;
  Array.to_list a

let median_or_zero = function [] -> 0. | xs -> Stats.median xs
let sum = List.fold_left ( +. ) 0.
let sum_int = List.fold_left ( + ) 0

let ratio num den = if den = 0. then 0. else num /. den

(* ------------------------------------------------------------------ *)
(* What every workload hands back *)

type run = {
  outcomes : Stats.outcome list;  (** timed operations, calibrated ([Calib]) *)
  untimed : Stats.outcome list;
      (** operations outside the timed phase: answer checks, clean-up
          deletes and traced replays *)
  throughput : float;  (** operations completed per calibrated second, timed phase *)
  setups : float list;  (** calibrated *)
  peak_rss_mb : float;
  kernel_s : float list;  (** every calibration sample of the run *)
  wall : float;  (** wall seconds of the timed phase *)
  op_counts : (string * int) list;
  extra : (string * float) list;  (** per-layer values measured *)
  notes : string list;  (** printed before the result line *)
}

(* Every workload runs a fixed number of whole rounds, [per_second] for
   each second asked for, sized so a run fits its time on a 2-core box.  A
   time limit would make the round count, and so the samples the tail is
   taken from, follow the machine's speed. *)
let rounds_for args ~per_second =
  max 1 (int_of_float (Float.round (args.seconds *. per_second)))

let done_per_second outcomes seconds =
  let c = Stats.count outcomes in
  float_of_int (c.Stats.attempted - c.Stats.failed) /. seconds

let count_ops kinds =
  List.map
    (fun k -> (k, List.length (List.filter (String.equal k) kinds)))
    [ "query"; "topk"; "incr"; "mutate"; "ping" ]

(* ------------------------------------------------------------------ *)
(* Set-up layers measured directly: the matcher and Murty k-best run
   inside [Pipeline.mappings] and inside the service's session open, so
   the traced run also calls them itself with the same inputs. *)

let setup_layers tr ~scale targets =
  Trace.with_span tr ~req:0 "diag.tpch.generate" (fun _ ->
      ignore (Urm_tpch.Gen.generate ~seed:instance_seed ~scale ()));
  List.iter
    (fun target ->
      Trace.with_span tr ~req:0 "diag.matcher.candidates" (fun _ ->
          ignore
            (Urm_matcher.Match.candidates ~source:Urm_tpch.Gen.schema ~target ()));
      Trace.with_span tr ~req:0 "diag.mapgen.generate" (fun _ ->
          ignore (Urm.Mapgen.generate ~h ~source:Urm_tpch.Gen.schema ~target ())))
    targets

let setup_metrics spans =
  let total name =
    sum
      (List.filter_map
         (fun s ->
           if String.equal s.Trace.name name then Some (s.Trace.stop -. s.Trace.start)
           else None)
         spans)
  in
  let candidates = total "diag.matcher.candidates" in
  [
    ("tpch.generate_s", total "diag.tpch.generate");
    ("matcher.candidates_s", candidates);
    ("mapgen.kbest_s", total "diag.mapgen.generate" -. candidates);
  ]

(* ------------------------------------------------------------------ *)
(* cli-large / cli-selective: the [urm query] path, one fresh context per
   evaluation, then rank to the top 10 and render as the CLI does. *)

type cli_op = {
  qname : string;
  target : Urm_relalg.Schema.t;
  q : Urm.Query.t;
  alg : Algorithms.t;
}

let sharing = function Algorithms.Basic -> false | _ -> true

let render answer top =
  let b = Buffer.create 512 in
  Printf.bprintf b "answers (top %d of %d):\n" (List.length top) (Answer.size answer);
  List.iter
    (fun (t, p) ->
      Printf.bprintf b "  (%s) : %.4f\n"
        (String.concat ", " (Array.to_list (Array.map Urm_relalg.Value.to_string t)))
        p)
    top;
  if Answer.null_prob answer > 0. then
    Printf.bprintf b "  θ (empty) : %.4f\n" (Answer.null_prob answer);
  Buffer.contents b

(* One traced evaluation's diagnostics, beside its spans. *)
type cli_diag = {
  units : (int * int * int) option;  (** units, executed, replayed + matched *)
  rows : int;
  plan_hits : int;
  plan_lookups : int;
  fresh_exec : float;
  warm_exec : float;
  exec_alloc : float;
  rank_alloc : float;
  tuples : int;
}

(* The evaluation split at the public calls the algorithms are made of:
   reformulate (e-units), then one factorized pass, exactly as
   [Algorithms.run] composes them for e-MQO and o-sharing on the
   vectorized engine.  Basic stays one [Algorithms.run] call. *)
let cli_eval_traced tr ~req ~root ctx op ms =
  let span name f = Trace.with_span tr ~parent:root ~req name (fun _ -> f ()) in
  match op.alg with
  | Algorithms.Basic ->
    let report, fresh =
      Urm_util.Timer.time (fun () ->
          span "core.execute" (fun () -> Algorithms.run Algorithms.Basic ctx op.q ms))
    in
    (report.Urm.Report.answer, fresh, report.Urm.Report.rows_produced, None)
  | alg ->
    let units =
      span "core.reformulate" (fun () ->
          match alg with
          | Algorithms.Emqo -> Urm.Factorized.weighted_units ctx op.q ms
          | _ -> Urm.Factorized.singleton_units ctx op.q (Urm.Qsharing.representatives ctx op.q ms))
    in
    let ctrs = Urm_relalg.Eval.fresh_counters () in
    let r, fresh =
      Urm_util.Timer.time (fun () ->
          span "core.execute" (fun () -> Urm.Factorized.eval ~ctrs ~cse:true ctx op.q units))
    in
    (r.Urm.Factorized.answer, fresh, ctrs.Urm_relalg.Eval.rows_produced, Some (units, r))

(* [queries] pairs each query with how many times a round evaluates it
   under each algorithm. *)
let cli_run args ~scale ~queries ~algs ~per_second =
  let queries =
    List.map
      (fun (qname, repeats) ->
        let target, q = Urm_workload.Queries.by_name qname in
        (qname, target, q, repeats))
      queries
  in
  let targets =
    List.sort_uniq compare (List.map (fun (_, t, _, _) -> t.Urm_relalg.Schema.sname) queries)
    |> List.map Urm_workload.Targets.by_name
  in
  let setup () =
    let p = Pipeline.create ~seed:instance_seed ~scale () in
    List.map (fun t -> (t.Urm_relalg.Schema.sname, Pipeline.mappings p t ~h)) targets
  in
  let kernel_s = ref [] in
  let calibrated f =
    let r, wall, dt, ks = Calib.time f in
    kernel_s := ks @ !kernel_s;
    (r, wall, dt)
  in
  let reps = if args.traced then 1 else setup_reps in
  let setups, mappings =
    let rec go n acc last =
      if n = 0 then (List.rev acc, Option.get last)
      else
        let ms, _, dt = calibrated setup in
        go (n - 1) (dt :: acc) (Some ms)
    in
    go reps [] None
  in
  let ms_of target = List.assoc target.Urm_relalg.Schema.sname mappings in
  (* Each evaluation gets a context over a fresh catalog, as a CLI
     process would: relations memoise their typed columns and catalogs
     their indexes, so a shared catalog would let every evaluation after
     the first skip that work.  The fresh catalog holds new relations over
     the rows of one generated instance (rows are immutable), so making
     it costs no generation.  It is made outside the timing, then the heap
     is compacted so each evaluation starts like a fresh process. *)
  let base = Urm_tpch.Gen.generate ~seed:instance_seed ~scale () in
  let fresh_instance () =
    let module R = Urm_relalg.Relation in
    let c = Urm_relalg.Catalog.create () in
    List.iter
      (fun name ->
        let r = Urm_relalg.Catalog.find base name in
        Urm_relalg.Catalog.add c name (R.of_rows ~cols:(R.cols r) r.R.rows))
      (Urm_relalg.Catalog.names base);
    Gc.compact ();
    c
  in
  let ctx_of c target = Urm.Ctx.make ~catalog:c ~source:Urm_tpch.Gen.schema ~target () in
  (* Rounds: for each algorithm, in seeded order, the queries in the
     order given.  A query's evaluations are spread over the round, so
     their median does not rest on a second or two of a shared machine
     whose speed moves; and the query order is fixed because an
     evaluation's time depends on what ran before it in the process (Q7
     after Q4 took up to twice as long as Q7 first). *)
  let rounds = rounds_for args ~per_second in
  let round i =
    let rng = Random.State.make [| args.seed; i |] in
    List.concat_map
      (fun alg ->
        List.concat_map
          (fun (qname, target, q, repeats) ->
            List.init repeats (fun _ -> { qname; target; q; alg }))
          queries)
      (shuffle rng algs)
  in
  let mismatches = ref [] in
  let fail op what = mismatches := (op.qname, Algorithms.name op.alg, what) :: !mismatches in
  (* Answer checks on the first evaluation of each (query, algorithm):
     sharing algorithms render byte-identically, basic is eps-equal to
     them.  At most two answers stay alive.  Later evaluations must render
     the same top 10 ([record_text]). *)
  let ref_sharing = Hashtbl.create 8 and pending_basic = Hashtbl.create 8 in
  let checked = Hashtbl.create 16 in
  let check op answer =
    let q = op.qname in
    if sharing op.alg then begin
      let json = Json.to_string (Answer.to_json answer) in
      (match Hashtbl.find_opt ref_sharing q with
      | None -> Hashtbl.replace ref_sharing q (json, answer)
      | Some (j, _) ->
        if not (String.equal j json) then fail op "to_json differs between sharing algorithms");
      match Hashtbl.find_opt pending_basic q with
      | Some (bop, b) ->
        Hashtbl.remove pending_basic q;
        if not (Answer.equal ~eps:Urm.Prob.eps b answer) then
          fail bop "not eps-equal to the sharing answer"
      | None -> ()
    end
    else
      match Hashtbl.find_opt ref_sharing q with
      | Some (_, a) ->
        if not (Answer.equal ~eps:Urm.Prob.eps answer a) then
          fail op "not eps-equal to the sharing answer"
      | None -> Hashtbl.replace pending_basic q (op, answer)
  in
  let texts = Hashtbl.create 32 in
  let record_text op text =
    let key = (op.qname, Algorithms.name op.alg) in
    match Hashtbl.find_opt texts key with
    | None -> Hashtbl.replace texts key text
    | Some t -> if not (String.equal t text) then fail op "top-10 differs across evaluations"
  in
  (* Warm-up, untimed: every query once under the first algorithm listed.
     The process keeps the heap the largest evaluation grew, so without it
     the evaluations before the first large one would run on a growing
     heap and the rest would not, and which ones those are would follow the
     seeded algorithm order. *)
  List.iter
    (fun (_, target, q, _) ->
      ignore (Algorithms.run (List.hd algs) (ctx_of (fresh_instance ()) target) q (ms_of target)))
    queries;
  (* [lats], [timed] and [round_time] are calibrated ([Calib]), [wall] is
     not. *)
  let lats = ref [] in
  let timed = ref 0. and wall = ref 0. in
  let round_time = Array.make rounds 0. in
  for i = 0 to rounds - 1 do
    List.iter
      (fun op ->
        let p = fresh_instance () in
        let (answer, text), raw, dt =
          calibrated (fun () ->
              let ctx = ctx_of p op.target in
              let report = Algorithms.run op.alg ctx op.q (ms_of op.target) in
              let answer = report.Urm.Report.answer in
              (answer, render answer (Answer.top_k answer 10)))
        in
        wall := !wall +. raw;
        timed := !timed +. dt;
        lats := (op, dt) :: !lats;
        round_time.(i) <- round_time.(i) +. dt;
        let key = (op.qname, Algorithms.name op.alg) in
        if not (Hashtbl.mem checked key) then begin
          Hashtbl.replace checked key ();
          check op answer
        end;
        record_text op text)
      (round i)
  done;
  Hashtbl.iter (fun _ (op, _) -> fail op "no sharing answer to compare with") pending_basic;
  Hashtbl.reset ref_sharing;
  let peak = vm_hwm_mb "self" in
  (* Traced pass: the same evaluations again, split into layer spans. *)
  let extra =
    if not args.traced then []
    else begin
      let tr = Some (Trace.create ()) in
      let traced_setup_spans =
        let t = Trace.create () in
        setup_layers (Some t) ~scale targets;
        Trace.spans t
      in
      let diags = ref [] in
      let req = ref 0 in
      for r = 0 to rounds - 1 do
        List.iter
          (fun op ->
            incr req;
            let req = !req in
            let ms = ms_of op.target in
            let p = fresh_instance () in
            let ctx, tuples, fresh, rows, factorized, rank_alloc =
              Trace.with_span tr ~req "op" (fun root ->
                  let ctx = ctx_of p op.target in
                  let answer, fresh, rows, factorized =
                    cli_eval_traced tr ~req ~root ctx op ms
                  in
                  let top, rank_alloc =
                    Trace.with_span tr ~parent:root ~req "core.rank" (fun _ ->
                        with_alloc (fun () -> Answer.top_k answer 10))
                  in
                  let text =
                    Trace.with_span tr ~parent:root ~req "cli.render" (fun _ -> render answer top)
                  in
                  record_text op text;
                  (ctx, Answer.size answer, fresh, rows, factorized, rank_alloc))
            in
            let plan_hits, plan_misses, _ = Urm.Ctx.plan_stats ctx in
            (* Outside the op: the same execution repeated in the now-warm
               context, from a compacted heap like the first, and basic's
               per-mapping reformulation. *)
            Gc.compact ();
            let warm, exec_alloc =
              Trace.with_span tr ~req "diag.execute_warm" (fun _ ->
                  let t0 = now () in
                  let (), alloc =
                    with_alloc (fun () ->
                        match factorized with
                        | Some (units, _) ->
                          let ctrs = Urm_relalg.Eval.fresh_counters () in
                          ignore (Urm.Factorized.eval ~ctrs ~cse:true ctx op.q units)
                        | None -> ignore (Algorithms.run Algorithms.Basic ctx op.q ms))
                  in
                  (now () -. t0, alloc))
            in
            let reformulate =
              match factorized with
              | Some _ -> None
              | None ->
                Some
                  (Urm_util.Timer.time_only (fun () ->
                       Trace.with_span tr ~req "diag.reformulate" (fun _ ->
                           List.iter
                             (fun m -> ignore (Urm.Reformulate.source_query op.target op.q m))
                             ms)))
            in
            diags :=
              ( reformulate,
                {
                  units =
                    Option.map
                      (fun (_, r) ->
                        ( r.Urm.Factorized.units,
                          r.Urm.Factorized.executed,
                          r.Urm.Factorized.replayed + r.Urm.Factorized.matched ))
                      factorized;
                  rows;
                  plan_hits;
                  plan_lookups = plan_hits + plan_misses;
                  fresh_exec = fresh;
                  warm_exec = warm;
                  exec_alloc;
                  rank_alloc;
                  tuples;
                } )
              :: !diags)
          (round r)
      done;
      let spans = Trace.spans (Option.get tr) in
      Trace.write (Printf.sprintf ".perfbench/trace-%s-%d.jsonl" args.workload args.seed)
        (traced_setup_spans @ spans);
      let is_op s = String.equal s.Trace.name "op" in
      let by_name = Trace.by_name spans ~roots:is_op in
      let n = float_of_int (List.length !diags) in
      let layer name = ratio (Option.value ~default:0. (List.assoc_opt name by_name)) n in
      let ds = List.map snd !diags in
      let mean f = ratio (sum (List.map f ds)) n in
      let reform_in_op = layer "core.reformulate" in
      let reform_diag = sum (List.filter_map fst !diags) /. n in
      let sharing_units = List.filter_map (fun d -> d.units) ds in
      let n_sharing = float_of_int (List.length sharing_units) in
      let count f = float_of_int (sum_int (List.map f sharing_units)) in
      let traced_wall =
        sum (List.map (fun s -> s.Trace.stop -. s.Trace.start) (List.filter is_op spans))
      in
      setup_metrics traced_setup_spans
      @ [
          ("core.reformulate_s", reform_in_op +. reform_diag);
          ("core.units", ratio (count (fun (u, _, _) -> u)) n_sharing);
          ("core.units_executed", ratio (count (fun (_, e, _) -> e)) n_sharing);
          ("core.replay_ratio", ratio (count (fun (_, _, r) -> r)) (count (fun (u, _, _) -> u)));
          ("relalg.cold_s", mean (fun d -> d.fresh_exec -. d.warm_exec));
          ( "relalg.plan_cache.hit_ratio",
            ratio
              (float_of_int (sum_int (List.map (fun d -> d.plan_hits) ds)))
              (float_of_int (sum_int (List.map (fun d -> d.plan_lookups) ds))) );
          ("core.execute_s", mean (fun d -> d.warm_exec));
          ("relalg.rows", mean (fun d -> float_of_int d.rows));
          ("core.execute_alloc_mw", mean (fun d -> d.exec_alloc));
          ("core.rank_s", layer "core.rank");
          ("core.answer_tuples", mean (fun d -> float_of_int d.tuples));
          ("core.rank_alloc_mw", mean (fun d -> d.rank_alloc));
          ("cli.render_s", layer "cli.render");
          ("trace.unattributed_share", Trace.unattributed_share spans ~roots:is_op);
          ("trace.overhead_share", ratio (traced_wall -. !wall) !wall);
        ]
    end
  in
  let outcomes =
    List.rev_map
      (fun (op, dt) ->
        match
          List.find_opt
            (fun (q, a, _) -> String.equal q op.qname && String.equal a (Algorithms.name op.alg))
            !mismatches
        with
        | Some (_, _, what) -> Stats.Failed (Stats.Mismatch what)
        | None -> Stats.Done dt)
      !lats
  in
  {
    outcomes;
    untimed = [];
    throughput = done_per_second outcomes !timed;
    setups;
    peak_rss_mb = peak;
    op_counts = count_ops (List.map (fun _ -> "query") !lats);
    extra;
    kernel_s = !kernel_s;
    wall = !wall;
    notes =
      Printf.sprintf "rounds %d, evaluations %d, seconds per round %s" rounds (List.length !lats)
        (String.concat " " (Array.to_list (Array.map (Printf.sprintf "%.3f") round_time)))
      :: List.map
           (fun (q, a, what) -> Printf.sprintf "MISMATCH %s %s: %s" q a what)
           (List.sort_uniq compare !mismatches);
  }

(* ------------------------------------------------------------------ *)
(* Client-side plumbing shared by service-rw and router-fanout: every
   request goes through [Client.roundtrip], so the raw reply size is
   visible, and is timed at the client (encode + wire + decode). *)

type reply = {
  kind : string;  (** query / topk / incr / mutate / ping *)
  params : (string * Json.t) list;
  op : string;
  layer : string;
  latency : float;
  outcome : Stats.outcome;
  bytes : int;
  result : Json.t;  (** [Null] on failure *)
}

let member name j = Option.value ~default:Json.Null (Json.member name j)

let exchange tr ~req c ~op params =
  Trace.with_span tr ~req "op" (fun root ->
      let t0 = now () in
      let line =
        Json.to_string
          (Protocol.request ~id:(Json.Num (float_of_int req)) ~op params)
      in
      let wire = ref (-1) in
      let raw =
        Trace.with_span tr ~parent:root ~req "wire" (fun id ->
            wire := id;
            Client.roundtrip c line)
      in
      let parsed =
        Trace.with_span tr ~parent:root ~req "client.decode" (fun _ ->
            match raw with
            | Error m -> Error (Stats.Transport m)
            | Ok s -> (
              match Protocol.parse_reply s with
              | Error m -> Error (Stats.Transport ("unparsable reply: " ^ m))
              | Ok (Protocol.Ok (_, result)) -> Ok result
              | Ok (Protocol.Err (_, code, _)) -> Error (Stats.failure_of_code code)))
      in
      let latency = now () -. t0 in
      let bytes = match raw with Ok s -> String.length s | Error _ -> 0 in
      (!wire, latency, bytes, parsed))

(* [call tr ~req c ~kind ~layer_of ~op params] one timed request; the
   wire span is renamed after the layer the reply shows it exercised. *)
let call tr ~req c ~kind ~layer_of ~op params =
  let wire, latency, bytes, parsed = exchange tr ~req c ~op params in
  let layer, outcome, result =
    match parsed with
    | Error f -> (kind ^ ".failed", Stats.Failed f, Json.Null)
    | Ok result -> (layer_of result, Stats.Done latency, result)
  in
  Trace.rename tr wire layer;
  { kind; params; op; layer; latency; outcome; bytes; result }

let control c ~op params =
  match Client.call c ~op params with
  | Ok r -> r
  | Error (code, m) -> failwith (Printf.sprintf "%s: %s: %s" op code m)

let medians_by_layer replies =
  fun layer ->
    median_or_zero
      (List.filter_map
         (fun r ->
           match r.outcome with
           | Stats.Done s when String.equal r.layer layer -> Some s
           | _ -> None)
         replies)

let op_latencies replies = sum (List.map (fun r -> r.latency) replies)

let answers_text result = Json.to_string (member "answers" result)

(* Re-issue one read and compare it with an in-process evaluation. *)
let recheck c ~op params expected =
  match Client.call c ~op params with
  | Error (code, _) -> Stats.Failed (Stats.failure_of_code code)
  | Ok result -> (
    match expected result with
    | None -> Stats.Done 0.
    | Some what -> Stats.Failed (Stats.Mismatch what))

let str_param params name =
  match List.assoc_opt name params with Some (Json.Str s) -> s | _ -> ""

let ref_session catalog ~scale (name, target) =
  match
    Session.open_session catalog ~name ~engine:Urm_relalg.Compile.Vectorized
      ~seed:instance_seed ~scale ~h ~target ()
  with
  | Ok (s, _) -> s
  | Error m -> failwith ("reference session: " ^ m)

let exact_answer alg s qname =
  let _, q = Urm_workload.Queries.by_name qname in
  (Algorithms.run alg (Session.ctx s) q (Session.mappings s)).Urm.Report.answer

(* [None] when [result]'s listed answers match [exact] within eps. *)
let incr_matches exact result =
  let listed = Json.to_list (member "answers" result) in
  let close a b = Float.abs (a -. b) <= Urm.Prob.eps in
  if Json.to_int (member "size" result) <> Answer.size exact then Some "incr size"
  else if not (close (Json.to_float (member "null_prob" result)) (Answer.null_prob exact)) then
    Some "incr null_prob"
  else if
    not
      (List.for_all
         (fun item ->
           let tuple =
             Array.of_list (List.map Protocol.value_of_json (Json.to_list (member "tuple" item)))
           in
           close (Json.to_float (member "prob" item)) (Answer.prob_of exact tuple))
         listed)
  then Some "incr prob"
  else None

(* ------------------------------------------------------------------ *)
(* service-rw: an in-process server, two closed-loop framed connections,
   a seeded read/write mix over three sessions. *)

let svc_scale = 0.05
let svc_sessions = [ ("excel", "Excel"); ("noris", "Noris"); ("paragon", "Paragon") ]

let selective_reads =
  [ ("Q1", "excel"); ("Q2", "excel"); ("Q3", "excel"); ("Q5", "excel"); ("Q6", "noris");
    ("Q8", "paragon"); ("Q9", "paragon"); ("Q10", "paragon") ]

(* The operation stream, a pure function of the seed, in rounds of twenty
   operations, ten per connection: 50 % o-sharing queries, 20 % top-k
   k=5, 10 % incr on Q3, 10 % mutate, 10 % ping.  A round opens with one
   mutate per connection (an insert of a seeded lineitem row on even
   rounds, the delete of that same row on odd ones: connection 0 on
   excel, connection 1 on noris).  Once both are applied, each connection
   sends its reads: connection 0 top-k on Q8, Q9 and Q10, one query
   walking a seeded permutation of the excel queries Q1, Q2, Q3 and Q5 and
   two walking one of the paragon queries Q8, Q9 and Q10; connection 1
   seven queries walking a seeded permutation of Q6, Q8, Q9 and Q10; both
   one incr and one ping.  Last, connection 0 sends top-k on Q3 while
   connection 1 waits.  Writes never race reads and nothing overlaps the
   Q3 top-k miss, so each round pays the same costs: one Q3 top-k miss,
   one miss of the excel query and of Q6, one incr patch, and cache hits
   for the rest.  Overlapping the top-k miss made the median and the tail
   depend on where its collector paused (WORKLOADS.md). *)
type svc_gen = {
  rng : Random.State.t;
  conn : int;
  walks : (unit -> string * string) list;  (** query walks, by connection *)
  mutable pending : (string * Urm_relalg.Value.t array) option;
  lineitem : Urm_relalg.Relation.t;
}

(* A cyclic walk over a seeded permutation of [items]. *)
let walk rng items =
  let a = Array.of_list (shuffle rng items) and i = ref (-1) in
  fun () ->
    incr i;
    a.(!i mod Array.length a)

let svc_gen ~seed ~conn lineitem =
  let rng = Random.State.make [| seed; conn; 17 |] in
  let on session = List.filter (fun (_, s) -> s = session) selective_reads in
  let walks =
    if conn = 0 then
      let paragon = walk rng (on "paragon") in
      [ walk rng (on "excel"); paragon; paragon ]
    else
      let others = walk rng (on "noris" @ on "paragon") in
      List.init 7 (fun _ -> others)
  in
  { rng; conn; walks; pending = None; lineitem }

let mutate_op s m =
  ( "mutate",
    "mutate",
    [ ("session", Json.Str s); ("mutations", Urm_incr.Mutation.batch_to_json [ m ]) ] )

let round_mutate g round =
  match g.pending with
  | Some (s, row) ->
    g.pending <- None;
    mutate_op s (Urm_incr.Mutation.Delete { rel = "lineitem"; row })
  | None ->
    let s = if g.conn = 0 then "excel" else "noris" in
    let rows = g.lineitem.Urm_relalg.Relation.rows in
    let row = Array.copy rows.(Random.State.int g.rng (Array.length rows)) in
    row.(Urm_relalg.Relation.col_pos g.lineitem "l_linenumber") <-
      Urm_relalg.Value.Int (1_000_000 + (g.conn * 100_000) + round);
    g.pending <- Some (s, row);
    mutate_op s (Urm_incr.Mutation.Insert { rel = "lineitem"; row })

(* The round's reads, and the top-k miss that runs alone after them. *)
let round_reads g =
  let sess s = ("session", Json.Str s) in
  let query (qn, s) =
    ("query", "query", [ sess s; ("query", Json.Str qn); ("algorithm", Json.Str "o-sharing") ])
  in
  let queries = List.map (fun w -> query (w ())) g.walks in
  let topk (qn, s) = ("topk", "topk", [ sess s; ("query", Json.Str qn); ("k", Json.Num 5.) ]) in
  let incr =
    ("incr", "query", [ sess "excel"; ("query", Json.Str "Q3"); ("algorithm", Json.Str "incr") ])
  in
  let ping = ("ping", "ping", []) in
  if g.conn = 0 then
    ( [ topk ("Q8", "paragon"); topk ("Q9", "paragon"); topk ("Q10", "paragon") ]
      @ queries @ [ incr; ping ],
      [ topk ("Q3", "excel") ] )
  else (queries @ [ incr; ping ], [])

let svc_layer kind result =
  let cached = match Json.member "cached" result with Some (Json.Bool b) -> b | _ -> false in
  match kind with
  | "query" -> if cached then "service.hit" else "service.miss"
  | "topk" -> if cached then "service.hit" else "core.topk_miss"
  | "incr" -> (
    match member "status" result with Json.Str s -> "incr." ^ s | _ -> "incr.unknown")
  | "mutate" -> "incr.mutate"
  | _ -> "service.ping"

(* A reply with its latency multiplied by [f]. *)
let scaled f r =
  {
    r with
    latency = r.latency *. f;
    outcome = (match r.outcome with Stats.Done s -> Stats.Done (s *. f) | o -> o);
  }

(* One pass of [rounds] rounds: both connections send their mutates,
   meet, send their reads, meet, connection 0 sends the Q3 top-k, and both
   meet again.  Then each deletes its outstanding insert (untimed), so
   every pass ends where it began.  With [calibrate], connection 0 takes a
   calibration sample ([Calib]) before each round and after the last,
   while both connections are idle, and each round's latencies and time
   are calibrated by the samples around it.  Returns the replies, the
   clean-up outcomes, the (calibrated) time of the rounds, their wall time
   and the calibration samples. *)
let svc_pass ?(calibrate = false) tr ~seed ~port ~lineitem ~rounds =
  let lock = Mutex.create () and met = Condition.create () in
  let arrived = ref 0 and generation = ref 0 in
  let meet () =
    Mutex.lock lock;
    let gen = !generation in
    incr arrived;
    if !arrived = 2 then begin
      arrived := 0;
      incr generation;
      Condition.broadcast met
    end
    else while !generation = gen do Condition.wait met lock done;
    Mutex.unlock lock
  in
  let results = Array.make 2 ([], []) in
  let kernel_s = Array.make (rounds + 1) Calib.reference in
  let round_wall = Array.make rounds 0. in
  let worker conn =
    let g = svc_gen ~seed ~conn lineitem in
    let c = Client.connect ~framed:true ~port () in
    let replies = ref [] in
    let send r i (kind, op, params) =
      let req = (r * 100) + (conn * 10) + i in
      replies := (r, call tr ~req c ~kind ~layer_of:(svc_layer kind) ~op params) :: !replies
    in
    let calibrate_at r =
      if calibrate then begin
        if conn = 0 then kernel_s.(r) <- Calib.sample ();
        meet ()
      end
    in
    for r = 0 to rounds - 1 do
      calibrate_at r;
      let r0 = now () in
      send r 0 (round_mutate g r);
      meet ();
      let reads, solo = round_reads g in
      List.iteri (fun i op -> send r (i + 1) op) reads;
      meet ();
      List.iter (send r 9) solo;
      meet ();
      if conn = 0 then round_wall.(r) <- now () -. r0
    done;
    calibrate_at rounds;
    let cleanup =
      match g.pending with
      | None -> []
      | Some (s, row) ->
        let _, op, params = mutate_op s (Urm_incr.Mutation.Delete { rel = "lineitem"; row }) in
        [ recheck c ~op params (fun _ -> None) ]
    in
    Client.close c;
    results.(conn) <- (List.rev !replies, cleanup)
  in
  let threads = List.map (Thread.create worker) [ 0; 1 ] in
  List.iter Thread.join threads;
  let factor r = Calib.factor ~before:kernel_s.(r) ~after:kernel_s.(r + 1) in
  let results = Array.to_list results in
  ( List.concat_map (fun (rs, _) -> List.map (fun (r, reply) -> scaled (factor r) reply) rs) results,
    List.concat_map snd results,
    sum (List.init rounds (fun r -> round_wall.(r) *. factor r)),
    sum (Array.to_list round_wall),
    if calibrate then Array.to_list kernel_s else [] )

let service_run args =
  let seed = args.seed in
  let open_sessions tr c =
    List.iter
      (fun (name, target) ->
        Trace.with_span tr ~req:0 "service.open_session" (fun _ ->
            ignore
              (control c ~op:"open-session"
                 [ ("session", Json.Str name); ("target", Json.Str target);
                   ("seed", Json.Num (float_of_int instance_seed)); ("scale", Json.Num svc_scale);
                   ("h", Json.Num (float_of_int h)) ])))
      svc_sessions
  in
  let start tr =
    let (server, c), _, dt, ks =
      Calib.time (fun () ->
          let server =
            Trace.with_span tr ~req:0 "service.start" (fun _ ->
                Server.start
                  {
                    Server.default_config with
                    port = 0;
                    workers = 2;
                    engine = Urm_relalg.Compile.Vectorized;
                  })
          in
          let c = Client.connect ~framed:true ~port:(Server.port server) () in
          open_sessions tr c;
          (server, c))
    in
    (server, c, dt, ks)
  in
  let shutdown (server, c) =
    Client.close c;
    Server.stop server;
    Server.wait server
  in
  let setup_tr = if args.traced then Some (Trace.create ()) else None in
  let setups = ref [] and setup_kernel_s = ref [] in
  for _ = 2 to if args.traced then 1 else setup_reps do
    let server, c, dt, ks = start None in
    setups := dt :: !setups;
    setup_kernel_s := ks @ !setup_kernel_s;
    shutdown (server, c)
  done;
  let server, c, dt, ks = start setup_tr in
  let setups = List.rev (dt :: !setups) and setup_kernel_s = ks @ !setup_kernel_s in
  let port = Server.port server in
  (* The mutation rows come from the benchmark's own copy of the instance. *)
  let lineitem =
    Urm_relalg.Catalog.find
      (Urm_tpch.Gen.generate ~seed:instance_seed ~scale:svc_scale ())
      "lineitem"
  in
  let stats () =
    let m = control c ~op:"metrics" [] in
    let cache = member "cache" m and queue = member "queue" m in
    ( Json.to_float (member "hit" cache),
      Json.to_float (member "miss" cache),
      Json.to_float (member "rejected" queue) )
  in
  let _, _, rejected0 = stats () in
  let rounds = rounds_for args ~per_second:1.2 in
  let replies, cleanup, elapsed, wall, round_kernel_s =
    svc_pass ~calibrate:true None ~seed ~port ~lineitem ~rounds
  in
  let peak = vm_hwm_mb "self" in
  let mutate_lats =
    List.filter_map
      (fun r -> match r.outcome with Stats.Done s when r.kind = "mutate" -> Some s | _ -> None)
      replies
  in
  let write_p50 = median_or_zero mutate_lats in
  let extra, cleanup =
    if not args.traced then ([], cleanup)
    else begin
      let setup_spans = Trace.spans (Option.get setup_tr) in
      let diag = Trace.create () in
      setup_layers (Some diag) ~scale:svc_scale
        (List.map (fun (_, t) -> Urm_workload.Targets.by_name t) svc_sessions);
      (* Overhead compares two replays of the same streams, one untraced
         and one traced, both starting from a cache the first pass warmed. *)
      let replay, cleanup2, _, _, _ = svc_pass None ~seed ~port ~lineitem ~rounds in
      let tr = Some (Trace.create ()) in
      let hit0, miss0, _ = stats () in
      let traced, cleanup3, _, _, _ = svc_pass tr ~seed ~port ~lineitem ~rounds in
      let hit1, miss1, _ = stats () in
      let spans = Trace.spans (Option.get tr) in
      Trace.write
        (Printf.sprintf ".perfbench/trace-%s-%d.jsonl" args.workload seed)
        (setup_spans @ Trace.spans diag @ spans);
      let is_op s = String.equal s.Trace.name "op" in
      let med = medians_by_layer traced in
      let opens =
        List.filter_map
          (fun s ->
            if String.equal s.Trace.name "service.open_session" then
              Some (s.Trace.stop -. s.Trace.start)
            else None)
          setup_spans
      in
      let removed =
        List.filter_map
          (fun r ->
            if r.kind = "mutate" && r.result <> Json.Null then
              Some (Json.to_float (member "removed" (member "invalidation" r.result)))
            else None)
          traced
      in
      ( setup_metrics (Trace.spans diag)
        @ [
            ("service.open_session_s", Urm_util.Stats.mean opens);
            ("service.ping_s", med "service.ping");
            ("service.hit_s", med "service.hit");
            ("service.miss_s", med "service.miss");
            ("service.cache.hit_ratio", ratio (hit1 -. hit0) (hit1 -. hit0 +. miss1 -. miss0));
            ("service.cache.removed_per_mutate", Urm_util.Stats.mean removed);
            ( "service.reply_bytes",
              Urm_util.Stats.mean (List.map (fun r -> float_of_int r.bytes) traced) );
            ("incr.mutate_s", med "incr.mutate");
            ("incr.patched_s", med "incr.patched");
            ("core.topk_miss_s", med "core.topk_miss");
            ("write_p50_s", write_p50);
            ("trace.unattributed_share", Trace.unattributed_share spans ~roots:is_op);
            ( "trace.overhead_share",
              let u = op_latencies replay in
              ratio (op_latencies traced -. u) u );
          ],
        cleanup @ cleanup2 @ cleanup3
        @ List.map (fun r -> r.outcome) (replay @ traced) )
    end
  in
  let _, _, rejected1 = stats () in
  (* Checks: every insert has been deleted again, so each read must equal
     an in-process evaluation over freshly opened reference sessions. *)
  let local = Session.create_catalog () in
  let refs = List.map (fun st -> (fst st, ref_session local ~scale:svc_scale st)) svc_sessions in
  let reads =
    List.sort_uniq compare
      (List.filter_map
         (fun r ->
           if List.mem r.kind [ "query"; "topk"; "incr" ] then Some (r.kind, r.op, r.params)
           else None)
         replies)
  in
  let osharing = Algorithms.Osharing Urm.Eunit.Sef in
  let checks =
    List.map
      (fun (kind, op, params) ->
        let s = List.assoc (str_param params "session") refs in
        let qname = str_param params "query" in
        recheck c ~op params (fun result ->
            match kind with
            | "query" ->
              let expected = Server.answers_json (exact_answer osharing s qname) 20 in
              if String.equal (answers_text result) (Json.to_string expected) then None
              else Some ("query " ^ qname)
            | "topk" ->
              let _, q = Urm_workload.Queries.by_name qname in
              let r = Urm.Topk.run ~k:5 (Session.ctx s) q (Session.mappings s) in
              let expected = Server.answers_json r.Urm.Topk.report.Urm.Report.answer 5 in
              if String.equal (answers_text result) (Json.to_string expected) then None
              else Some ("topk " ^ qname)
            | _ -> incr_matches (exact_answer osharing s qname) result))
      reads
  in
  shutdown (server, c);
  let per_kind =
    count_ops (List.map (fun r -> r.kind) replies)
  in
  {
    outcomes = List.map (fun r -> r.outcome) replies;
    untimed = cleanup @ checks;
    throughput = done_per_second (List.map (fun r -> r.outcome) replies) elapsed;
    setups;
    peak_rss_mb = peak;
    kernel_s = setup_kernel_s @ round_kernel_s;
    wall;
    op_counts = per_kind;
    extra = extra @ [ ("service.queue.rejected", rejected1 -. rejected0) ];
    notes =
      [
        Printf.sprintf "write_p50_s %.6f s (%d mutates)" write_p50 (List.length mutate_lats);
        Printf.sprintf "rounds %d, checked reads %d" rounds (List.length checks);
      ]
      @ List.filter_map
          (fun r ->
            match r.outcome with
            | Stats.Failed f -> Some ("FAILED " ^ r.kind ^ ": " ^ Stats.failure_name f)
            | Stats.Done _ -> None)
          replies;
  }

(* ------------------------------------------------------------------ *)
(* router-fanout: a two-shard router, one framed connection, Q1/Q2/Q3/Q5
   under basic (mapping-range fan-out), e-MQO (e-unit-slot fan-out) and
   o-sharing (forwarded whole). *)

let live_routers : Router.t list ref = ref []

let () =
  at_exit (fun () ->
      List.iter
        (fun r ->
          List.iter
            (fun pid ->
              (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
              try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ())
            (Router.worker_pids r))
        !live_routers)

let router_run args =
  let seed = args.seed in
  let combos =
    List.concat_map
      (fun q -> List.map (fun a -> (q, a)) [ "basic"; "e-mqo"; "o-sharing" ])
      [ "Q1"; "Q2"; "Q3"; "Q5" ]
  in
  let session = [ ("session", Json.Str "excel") ] in
  let start tr =
    let (router, c), _, dt, ks =
      Calib.time (fun () ->
          let router =
            Trace.with_span tr ~req:0 "shard.start" (fun _ ->
                match Router.start { Router.default_config with port = 0; shards = 2 } with
                | Ok r -> r
                | Error m -> failwith ("Router.start: " ^ m))
          in
          live_routers := router :: !live_routers;
          let c = Client.connect ~framed:true ~port:(Router.port router) () in
          Trace.with_span tr ~req:0 "shard.open_session" (fun _ ->
              ignore
                (control c ~op:"open-session"
                   (session
                   @ [ ("target", Json.Str "Excel");
                       ("seed", Json.Num (float_of_int instance_seed));
                       ("scale", Json.Num svc_scale); ("h", Json.Num (float_of_int h)) ])));
          (router, c))
    in
    (router, c, dt, ks)
  in
  let shutdown (router, c) =
    ignore (control c ~op:"shutdown" []);
    Client.close c;
    Router.wait router;
    live_routers := List.filter (fun r -> r != router) !live_routers
  in
  let setup_tr = if args.traced then Some (Trace.create ()) else None in
  let setups = ref [] and setup_kernel_s = ref [] in
  for _ = 2 to if args.traced then 1 else setup_reps do
    let router, c, dt, ks = start None in
    setups := dt :: !setups;
    setup_kernel_s := ks @ !setup_kernel_s;
    shutdown (router, c)
  done;
  let router, c, dt, ks = start setup_tr in
  let setups = List.rev (dt :: !setups) and setup_kernel_s = ks @ !setup_kernel_s in
  (* Whole cycles of the twelve requests, each cycle in seeded order; the
     first time a request is seen its answer is computed, later it hits. *)
  let seen = Hashtbl.create 16 in
  let cycle i = shuffle (Random.State.make [| seed; i; 29 |]) combos in
  let cycles = rounds_for args ~per_second:2.9 in
  (* With [calibrate], a calibration sample ([Calib]) before each cycle
     and after the last, and each cycle's latencies and time calibrated by
     the samples around it. *)
  let pass ?(calibrate = false) tr =
    let replies = ref [] and n = ref 0 in
    let elapsed = ref 0. and wall = ref 0. in
    let sample () = if calibrate then Calib.sample () else Calib.reference in
    let kernel_s = ref [ sample () ] in
    for i = 0 to cycles - 1 do
      let cycle_replies = ref [] in
      let t0 = now () in
      List.iter
        (fun (q, a) ->
          incr n;
          let kind = if a = "o-sharing" then "shard.forward" else "shard.fanout" in
          let hit = Hashtbl.mem seen (q, a) in
          Hashtbl.replace seen (q, a) ();
          cycle_replies :=
            call tr ~req:!n c ~kind:"query"
              ~layer_of:(fun _ -> kind ^ if hit then "_hit" else "_miss")
              ~op:"query"
              (session @ [ ("query", Json.Str q); ("algorithm", Json.Str a) ])
            :: !cycle_replies)
        (cycle i);
      let dt = now () -. t0 in
      let before = List.hd !kernel_s and after = sample () in
      let f = Calib.factor ~before ~after in
      kernel_s := after :: !kernel_s;
      replies := List.rev_append (List.map (scaled f) !cycle_replies) !replies;
      elapsed := !elapsed +. (dt *. f);
      wall := !wall +. dt
    done;
    (List.rev !replies, !elapsed, !wall, if calibrate then !kernel_s else [])
  in
  let replies, elapsed, wall, cycle_kernel_s = pass ~calibrate:true None in
  let workers_rss () =
    sum (List.map (fun pid -> vm_hwm_mb (string_of_int pid)) (Router.worker_pids router))
  in
  let peak = vm_hwm_mb "self" +. workers_rss () in
  let extra, traced_outcomes =
    if not args.traced then ([], [])
    else begin
      let setup_spans = Trace.spans (Option.get setup_tr) in
      let diag = Trace.create () in
      setup_layers (Some diag) ~scale:svc_scale [ Urm_workload.Targets.excel ];
      (* Overhead compares two replays of the same cycles, one untraced
         and one traced, both on warm worker caches. *)
      let replay, _, _, _ = pass None in
      let tr = Some (Trace.create ()) in
      let traced, _, _, _ = pass tr in
      let spans = Trace.spans (Option.get tr) in
      Trace.write
        (Printf.sprintf ".perfbench/trace-%s-%d.jsonl" args.workload seed)
        (setup_spans @ Trace.spans diag @ spans);
      let is_op s = String.equal s.Trace.name "op" in
      let med = medians_by_layer traced in
      (* Session start-up on the shard layer: spawning the workers plus
         the session open that every worker builds. *)
      let start_s =
        sum
          (List.filter_map
             (fun s ->
               if List.mem s.Trace.name [ "shard.start"; "shard.open_session" ]
               then Some (s.Trace.stop -. s.Trace.start)
               else None)
             setup_spans)
      in
      ( setup_metrics (Trace.spans diag)
      @ [
          ("shard.start_s", start_s);
          ("shard.fanout_hit_s", med "shard.fanout_hit");
          ("shard.forward_hit_s", med "shard.forward_hit");
          ("shard.worker_rss_mb", workers_rss ());
          ( "service.reply_bytes",
            Urm_util.Stats.mean (List.map (fun r -> float_of_int r.bytes) traced) );
          ("trace.unattributed_share", Trace.unattributed_share spans ~roots:is_op);
          ( "trace.overhead_share",
            let u = op_latencies replay in
            ratio (op_latencies traced -. u) u );
        ],
        List.map (fun r -> r.outcome) (replay @ traced) )
    end
  in
  let restarts = Router.restarts router in
  let local = Session.create_catalog () in
  let s = ref_session local ~scale:svc_scale ("excel", "Excel") in
  let checks =
    List.map
      (fun (q, a) ->
        let alg =
          match a with
          | "basic" -> Algorithms.Basic
          | "e-mqo" -> Algorithms.Emqo
          | _ -> Algorithms.Osharing Urm.Eunit.Sef
        in
        recheck c ~op:"query"
          (session @ [ ("query", Json.Str q); ("algorithm", Json.Str a) ])
          (fun result ->
            let expected = Server.answers_json (exact_answer alg s q) 20 in
            if String.equal (answers_text result) (Json.to_string expected) then None
            else Some (q ^ " " ^ a)))
      combos
  in
  shutdown (router, c);
  {
    outcomes = List.map (fun r -> r.outcome) replies;
    untimed = traced_outcomes @ checks;
    throughput = done_per_second (List.map (fun r -> r.outcome) replies) elapsed;
    setups;
    peak_rss_mb = peak;
    kernel_s = setup_kernel_s @ cycle_kernel_s;
    wall;
    op_counts = count_ops (List.map (fun r -> r.kind) replies);
    extra = extra @ [ ("shard.restarts", float_of_int restarts) ];
    notes = [ Printf.sprintf "cycles %d, requests %d" cycles (List.length replies) ];
  }

(* ------------------------------------------------------------------ *)
(* Result *)

let json_num v = if Float.is_finite v then Json.Num v else Json.Null

let () =
  let args = parse_args () in
  if args.traced then (try Sys.mkdir ".perfbench" 0o755 with Sys_error _ -> ());
  let run =
    match args.workload with
    | "cli-large" ->
      (* Q7 costs about a tenth of Q4: six of its evaluations per Q4
         keep most of the time on Q4 and make 21 samples a round, so the
         tail has ten samples beyond it instead of being the single
         slowest Q4, which spread by a quarter between runs. *)
      cli_run args ~scale:0.05 ~queries:[ ("Q7", 6); ("Q4", 1) ] ~per_second:0.1
        ~algs:[ Algorithms.Osharing Urm.Eunit.Sef; Algorithms.Emqo; Algorithms.Basic ]
    | "cli-selective" ->
      cli_run args ~scale:1.0 ~per_second:0.2
        ~queries:(List.map (fun q -> (q, 1)) [ "Q1"; "Q2"; "Q3"; "Q5"; "Q6"; "Q8"; "Q9"; "Q10" ])
        ~algs:[ Algorithms.Osharing Urm.Eunit.Sef; Algorithms.Basic ]
    | "service-rw" -> service_run args
    | _ -> router_run args
  in
  let counts = Stats.count (run.outcomes @ run.untimed) in
  let mismatched =
    List.exists
      (function Stats.Failed (Stats.Mismatch _) -> true | _ -> false)
      (run.outcomes @ run.untimed)
  in
  let lats = Stats.latencies run.outcomes in
  let tail = Stats.tail lats in
  let p50 = Stats.median lats in
  let e2e =
    [
      ("setup_s", Stats.median run.setups);
      ("throughput_qps", run.throughput);
      ("latency_tail_s", tail.Stats.value);
      ("peak_rss_mb", run.peak_rss_mb);
    ]
  in
  let layers =
    ("latency_p50_s", p50) :: run.extra
    @ List.map (fun (k, n) -> ("ops." ^ k, float_of_int n)) run.op_counts
    @ [ ("error_rate", Stats.error_rate counts); ("gc.top_heap_mb", top_heap_mb ()) ]
  in
  Printf.printf "workload %s, seed %d, %s run\n" args.workload args.seed
    (if args.traced then "traced" else "untraced");
  List.iter print_endline run.notes;
  Printf.printf "ops: %s\n"
    (String.concat ", " (List.map (fun (k, n) -> Printf.sprintf "%s %d" k n) run.op_counts));
  Printf.printf "setup repetitions: %s\n"
    (String.concat ", " (List.map (Printf.sprintf "%.4f") run.setups));
  Printf.printf
    "calibration: kernel median %.6f s (%.6f to %.6f) over %d samples; timed phase %.3f s wall\n"
    (Stats.median run.kernel_s)
    (List.fold_left Float.min infinity run.kernel_s)
    (List.fold_left Float.max neg_infinity run.kernel_s)
    (List.length run.kernel_s) run.wall;
  List.iter
    (fun (name, v) -> Printf.printf "%-24s %.6g %s\n" name v (List.assoc name end_to_end))
    e2e;
  Printf.printf "%-24s %.6g s (per-layer, not gated)\n" "latency_p50_s" p50;
  Printf.printf "latency_tail_s is p%.2f over %d samples (%d beyond it)\n" tail.Stats.percentile
    (List.length lats) tail.Stats.beyond;
  Printf.printf "error_rate %.6g (%d failed of %d attempted, %d of them outside the timed phase)\n"
    (Stats.error_rate counts) counts.Stats.failed counts.Stats.attempted (List.length run.untimed);
  let declared, values = if args.traced then (per_layer, layers) else (end_to_end, e2e) in
  let metrics =
    List.map
      (fun (name, unit_) ->
        let v = Option.value ~default:0. (List.assoc_opt name values) in
        if args.traced then Printf.printf "%-34s %.6g %s\n" name v unit_;
        (name, Json.Obj [ ("value", json_num v); ("unit", Json.Str unit_) ]))
      declared
  in
  print_endline
    (Json.to_string
       (Json.Obj
          [
            ("correct", Json.Bool (not mismatched));
            ("attempted", Json.Num (float_of_int counts.Stats.attempted));
            ("failed", Json.Num (float_of_int counts.Stats.failed));
            ("metrics", Json.Obj metrics);
          ]));
  if mismatched then exit 1
