type timings = {
  rewrite : float;
  plan : float;
  evaluate : float;
  aggregate : float;
}

let zero_timings = { rewrite = 0.; plan = 0.; evaluate = 0.; aggregate = 0. }
let total t = t.rewrite +. t.plan +. t.evaluate +. t.aggregate

type t = {
  answer : Answer.t;
  timings : timings;
  source_operators : int;
  rows_produced : int;
  groups : int;
  engine : string;
  intervals : (Urm_relalg.Value.t array * (float * float)) list option;
}

let make ?intervals ?(engine = "") ~answer ~timings ~source_operators
    ~rows_produced ~groups () =
  let intervals =
    Option.map
      (* Ranked by lower bound, like {!Answer.to_list}. *)
      (List.sort (fun (ta, (la, _)) (tb, (lb, _)) ->
           Answer.compare_ranked (ta, la) (tb, lb)))
      intervals
  in
  { answer; timings; source_operators; rows_produced; groups; engine; intervals }

(* One record per completed run: the phase breakdown as timers plus run and
   group counts, under the algorithm's metrics scope. *)
let record_metrics m r =
  let open Urm_obs.Metrics in
  incr (counter m "runs");
  incr ~by:r.groups (counter m "groups");
  record (timer m "phase.rewrite") r.timings.rewrite;
  record (timer m "phase.plan") r.timings.plan;
  record (timer m "phase.evaluate") r.timings.evaluate;
  record (timer m "phase.aggregate") r.timings.aggregate

(* [volatile:false] drops everything that may legitimately differ between
   two runs computing the same answer — wall-clock timings and operator/row
   work counters (memoisation and plan sharing change with chunking) — and
   keeps only the answer and the group count.  The determinism regression
   compares this stable rendering byte-for-byte across jobs values. *)
let value_to_json = function
  | Urm_relalg.Value.Null -> Urm_util.Json.Null
  | Urm_relalg.Value.Int i -> Urm_util.Json.Num (float_of_int i)
  | Urm_relalg.Value.Float f -> Urm_util.Json.Num f
  | Urm_relalg.Value.Str s -> Urm_util.Json.Str s

let value_of_json = function
  | Urm_util.Json.Null -> Urm_relalg.Value.Null
  | Urm_util.Json.Num f when Float.is_integer f && Float.abs f < 1e15 ->
    Urm_relalg.Value.Int (int_of_float f)
  | Urm_util.Json.Num f -> Urm_relalg.Value.Float f
  | Urm_util.Json.Str s -> Urm_relalg.Value.Str s
  | _ -> failwith "Report: interval tuple cell is not a scalar"

let intervals_to_json ivs =
  let open Urm_util.Json in
  Arr
    (List.map
       (fun (tuple, (lo, hi)) ->
         Obj
           [
             ("tuple", Arr (Array.to_list (Array.map value_to_json tuple)));
             ("lo", Num lo);
             ("hi", Num hi);
           ])
       ivs)

let intervals_of_json json =
  match Urm_util.Json.member "intervals" json with
  | None | Some Urm_util.Json.Null -> None
  | Some (Urm_util.Json.Arr items) ->
    Some
      (List.map
         (fun item ->
           let field n =
             match Urm_util.Json.member n item with
             | Some v -> v
             | None -> failwith ("Report: interval missing \"" ^ n ^ "\"")
           in
           let tuple =
             match field "tuple" with
             | Urm_util.Json.Arr cells ->
               Array.of_list (List.map value_of_json cells)
             | _ -> failwith "Report: interval \"tuple\" is not an array"
           in
           ( tuple,
             (Urm_util.Json.to_float (field "lo"),
              Urm_util.Json.to_float (field "hi")) ))
         items)
  | Some _ -> failwith "Report: \"intervals\" is not an array"

let to_json ?(volatile = true) r =
  let open Urm_util.Json in
  let stable =
    [
      ("answer", Answer.to_json r.answer);
      ("groups", Num (float_of_int r.groups));
    ]
    (* Omitted entirely when absent: exact reports render exactly as before
       this field existed (backward-compatible consumers, byte-stable
       determinism regressions). *)
    @
    match r.intervals with
    | None -> []
    | Some ivs -> [ ("intervals", intervals_to_json ivs) ]
  in
  if not volatile then Obj stable
  else
    Obj
      (stable
      @ [
          ( "timings",
            Obj
              [
                ("rewrite", Num r.timings.rewrite);
                ("plan", Num r.timings.plan);
                ("evaluate", Num r.timings.evaluate);
                ("aggregate", Num r.timings.aggregate);
              ] );
          ("source_operators", Num (float_of_int r.source_operators));
          ("rows_produced", Num (float_of_int r.rows_produced));
        ]
      (* The engine the run actually executed on (which may differ from
         the one the context requested — e.g. an algorithm falling back to
         its interpreted oracle path).  Volatile: the stable rendering must
         stay byte-identical across engines computing the same answer. *)
      @ match r.engine with "" -> [] | e -> [ ("engine", Str e) ])

let pp ppf r =
  Format.fprintf ppf
    "@[<v>%d tuples (θ=%.3f) | rewrite %.4fs plan %.4fs eval %.4fs agg %.4fs | %d ops, %d rows, %d groups%s@]"
    (Answer.size r.answer)
    (Answer.null_prob r.answer)
    r.timings.rewrite r.timings.plan r.timings.evaluate r.timings.aggregate
    r.source_operators r.rows_produced r.groups
    (match r.engine with "" -> "" | e -> " | engine " ^ e)
