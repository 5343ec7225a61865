(* Anytime top-k: stop as soon as the top-k *set* is stable at confidence
   1−δ.  The decision rule is the sampled analogue of the paper's LB/UB
   pruning: order observed tuples by estimate, take the best k as the
   candidate set S, and require every tuple outside S (and any tuple never
   observed, via the 0-successes Wilson bound) to have an upper bound
   strictly below the smallest lower bound inside S.  When that separation
   holds, no tuple outside S can overtake one inside it at the stated
   confidence. *)

type result = {
  report : Urm.Report.t;
  samples : int;
  shapes : int;
  stop_reason : Budget.stop_reason;
  stopped_early : bool;
}

(* Observed tuples with counts, best-estimate-first (deterministic ties). *)
let ranked (view : Estimator.view) =
  Hashtbl.fold
    (fun t c acc -> (t, !c) :: acc)
    (Lazy.force view.Estimator.counts)
    []
  |> List.sort (fun (ta, ca) (tb, cb) ->
         Urm.Answer.compare_ranked (ta, float_of_int ca) (tb, float_of_int cb))

let separated ~k (view : Estimator.view) =
  let all = ranked view in
  if List.length all < k then false
  else begin
    let rec split i acc = function
      | rest when i = k -> (List.rev acc, rest)
      | [] -> (List.rev acc, [])
      | x :: rest -> split (i + 1) (x :: acc) rest
    in
    let top, rest = split 0 [] all in
    let lb_k =
      List.fold_left
        (fun acc (_, c) -> Float.min acc (fst (Estimator.interval view c)))
        infinity top
    in
    view.Estimator.unseen_hi < lb_k
    && List.for_all
         (fun (_, c) -> snd (Estimator.interval view c) < lb_k)
         rest
  end

let run ?seed ?(metrics = Urm_obs.Metrics.global) ?(budget = Budget.default)
    ~k (ctx : Urm.Ctx.t) q ms =
  if k <= 0 then invalid_arg "Anytime.Topk.run: k must be positive";
  let m = Urm_obs.Metrics.scope metrics "anytime" in
  let raw =
    Estimator.drive ?seed ~metrics:m ~budget ~decide:(separated ~k) ctx q ms
  in
  let view = raw.Estimator.view in
  let total = float_of_int (max 1 view.Estimator.n) in
  let answer = Urm.Answer.create (Urm.Reformulate.output_header q) in
  let top =
    let rec take i = function
      | x :: rest when i < k -> x :: take (i + 1) rest
      | _ -> []
    in
    take 0 (ranked view)
  in
  let intervals =
    List.map
      (fun (t, c) ->
        Urm.Answer.add answer t (float_of_int c /. total);
        (t, Estimator.interval view c))
      top
  in
  let report =
    Urm.Report.make ~intervals ~answer ~timings:raw.Estimator.timings
      ~source_operators:raw.Estimator.operators
      ~rows_produced:raw.Estimator.rows_produced ~groups:raw.Estimator.shapes
      ()
  in
  Urm.Report.record_metrics m report;
  Estimator.record_widths m raw;
  {
    report;
    samples = raw.Estimator.samples;
    shapes = raw.Estimator.shapes;
    stop_reason = raw.Estimator.stop_reason;
    stopped_early = raw.Estimator.stop_reason = Budget.Converged;
  }
