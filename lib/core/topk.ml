open Urm_relalg

type result = {
  report : Report.t;
  visited_eunits : int;
  stopped_early : bool;
}

let run ?(strategy = Eunit.Sef) ?seed ?use_memo
    ?(metrics = Urm_obs.Metrics.global) ~k (ctx : Ctx.t) q ms =
  if k <= 0 then invalid_arg "Topk.run: k must be positive";
  let m = Urm_obs.Metrics.scope metrics "topk" in
  let reps, rewrite =
    Urm_util.Timer.time (fun () -> Qsharing.representatives ctx q ms)
  in
  Urm_obs.Metrics.incr ~by:(List.length reps)
    (Urm_obs.Metrics.counter (Urm_obs.Metrics.scope m "eunit") "representatives");
  let env = Eunit.make_env ?seed ?use_memo ~metrics:m ~strategy ctx q in
  (* Candidate tuples with their accumulated lower-bound probability. *)
  let header = Reformulate.output_header q in
  let table = Answer.create header in
  let ub = ref 1.0 in
  let lb = ref 0.0 in
  let eps = Prob.eps in
  (* The k-th highest lower bound currently in the table ([0.] with fewer
     than k candidates), and whether at most k candidates can still reach
     the top-k (a candidate's best possible probability is lb + UB). *)
  let update_bounds_and_decide () =
    (* k-th largest lb via a bounded min-heap: O(n log k), no sorting. *)
    let heap = Urm_util.Heap.create Float.compare in
    Answer.iter
      (fun _ p ->
        if Urm_util.Heap.length heap < k then Urm_util.Heap.push heap p
        else if p > Urm_util.Heap.peek heap then begin
          ignore (Urm_util.Heap.pop heap);
          Urm_util.Heap.push heap p
        end)
      table;
    lb := (if Urm_util.Heap.length heap >= k then Urm_util.Heap.peek heap else 0.);
    !ub <= !lb +. eps
    &&
    let survivors = ref 0 in
    (try
       Answer.iter
         (fun _ p ->
           if p +. !ub > !lb +. eps then begin
             incr survivors;
             if !survivors > k then raise Exit
           end)
         table;
       true
     with Exit -> false)
  in
  (* The paper's decide_result: fold one leaf's tuples into the bounds and
     report whether the top-k set is now proven.  A new tuple is only worth
     tracking if the unvisited mass could still lift it past LB. *)
  let decide leaf =
    let mass, tuples =
      match leaf with
      | Eunit.Null_answer mass -> (mass, [])
      | Eunit.Tuples (tuples, mass) -> (mass, tuples)
    in
    let track = !ub > !lb +. eps in
    List.iter
      (fun t -> if track || Answer.mem table t then Answer.add table t mass)
      tuples;
    ub := !ub -. mass;
    update_bounds_and_decide ()
  in
  let finished, evaluate =
    Urm_util.Timer.time (fun () ->
        Eunit.run_qt env (Eunit.init q reps) ~emit:(fun leaf -> not (decide leaf)))
  in
  (* The k best candidates, by the same bounded selection that ranks every
     answer (the table can be much larger than k). *)
  let answer = Answer.create header in
  List.iter (fun (t, p) -> Answer.add answer t p) (Answer.top_k table k);
  let ctrs = Eunit.counters env in
  let report =
    {
      Report.answer;
      intervals = None;
      timings = { Report.rewrite; plan = 0.; evaluate; aggregate = 0. };
      source_operators = ctrs.Eval.operators;
      rows_produced = ctrs.Eval.rows_produced;
      groups = List.length reps;
      engine = Urm_relalg.Compile.engine_name (Ctx.engine ctx);
    }
  in
  Report.record_metrics m report;
  {
    report;
    visited_eunits = Eunit.eunits_created env;
    stopped_early = not finished;
  }
