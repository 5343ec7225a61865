module Json = Urm_util.Json
module Metrics = Urm_obs.Metrics

type config = {
  host : string;
  port : int;
  workers : int;
  queue_depth : int;
  cache_capacity : int;
  send_timeout : float;
  eval_jobs : int;
  engine : Urm_relalg.Compile.engine;
}

let default_config =
  {
    host = "127.0.0.1";
    port = 7411;
    workers = max 1 (min 4 (Domain.recommended_domain_count () - 1));
    queue_depth = 64;
    cache_capacity = 256;
    send_timeout = 10.;
    eval_jobs = 1;
    engine = Urm_relalg.Compile.Vectorized;
  }

(* Connections live in {!Wire}: line/frame mode sniffing, locked writes,
   wake/teardown — shared with the shard router's accept path. *)
let send conn line = Wire.send_reply conn line

(* ------------------------------------------------------------------ *)
(* Sliding latency window for percentile reporting *)

type ring = {
  buf : float array;
  mutable filled : int;
  mutable next : int;
  rlock : Mutex.t;
}

let ring_create n =
  { buf = Array.make n 0.; filled = 0; next = 0; rlock = Mutex.create () }

let ring_add r x =
  Mutex.lock r.rlock;
  r.buf.(r.next) <- x;
  r.next <- (r.next + 1) mod Array.length r.buf;
  r.filled <- min (r.filled + 1) (Array.length r.buf);
  Mutex.unlock r.rlock

let ring_to_list r =
  Mutex.lock r.rlock;
  let out = List.init r.filled (fun i -> r.buf.(i)) in
  Mutex.unlock r.rlock;
  out

(* ------------------------------------------------------------------ *)

(* A batch frame is admitted as one job (one queue slot, one worker):
   its requests execute sequentially and are answered positionally in a
   single [Batch_reply] — the server-side batching path.  Requests that
   failed to parse occupy their slot as pre-rendered error replies. *)
type work =
  | Single of Protocol.request
  | Batched of (Protocol.request, string) result list

type job = { jconn : Wire.t; work : work; enqueued : float }

type t = {
  cfg : config;
  sock : Unix.file_descr;
  bound_port : int;
  session_catalog : Session.catalog;
  cache : Cache.t;
  requests : Metrics.counter;
  rejected : Metrics.counter;
  depth : Metrics.counter;
  request_timer : Metrics.timer;
  queue : job Queue.t;
  qlock : Mutex.t;
  qcond : Condition.t;
  mutable stopping : bool;
  mutable conns : Wire.t list;
  mutable readers : Thread.t list;
  conns_lock : Mutex.t;
  lat : ring;
  pool : Urm_par.Pool.t option;
      (* one evaluation pool shared by all worker domains; Pool serialises
         rounds internally, so concurrent requests queue for it in turn *)
  mutable workers : unit Domain.t array;
  mutable acceptor : Thread.t option;
}

let port t = t.bound_port
let sessions t = t.session_catalog

(* Live connection records — the fuzz suite's leak probe: every reader
   that exits (clean EOF or protocol error) removes its record. *)
let connection_count t =
  Mutex.lock t.conns_lock;
  let n = List.length t.conns in
  Mutex.unlock t.conns_lock;
  n

let stop t =
  Mutex.lock t.qlock;
  if not t.stopping then begin
    t.stopping <- true;
    Condition.broadcast t.qcond
  end;
  Mutex.unlock t.qlock

(* ------------------------------------------------------------------ *)
(* Request execution *)

type failure =
  [ `Bad of string | `Not_found of string | `Conflict of string | `Error of string ]

(* Raised inside a snapshot compute when a partial-range query's bounds
   fall outside the snapshot's mapping set — the caller's cached mapping
   count is behind a concurrent mutate.  {!reply_of} surfaces it as the
   typed "stale_range" error code so the shard router can refresh and
   retry without parsing message text. *)
exception Stale_range of string

let algorithm_of_string = function
  | "basic" -> Ok Urm.Algorithms.Basic
  | "e-basic" -> Ok Urm.Algorithms.Ebasic
  | "e-mqo" -> Ok Urm.Algorithms.Emqo
  | "q-sharing" -> Ok Urm.Algorithms.Qsharing
  | "o-sharing" -> Ok (Urm.Algorithms.Osharing Urm.Eunit.Sef)
  | "o-sharing-snf" -> Ok (Urm.Algorithms.Osharing Urm.Eunit.Snf)
  | "o-sharing-random" -> Ok (Urm.Algorithms.Osharing Urm.Eunit.Random)
  | other -> Error (`Bad ("unknown algorithm " ^ other))

let session_of t req : (Session.t, failure) result =
  match Protocol.str_param req "session" with
  | None -> Error (`Bad "missing \"session\"")
  | Some name -> (
    match Session.find t.session_catalog name with
    | Some s -> Ok s
    | None -> Error (`Not_found (Printf.sprintf "unknown session %S" name)))

let query_of (session : Session.t) req : (Urm.Query.t, failure) result =
  match (Protocol.str_param req "query", Protocol.str_param req "sql") with
  | Some _, Some _ -> Error (`Bad "give either \"query\" or \"sql\", not both")
  | None, None -> Error (`Bad "missing \"query\" or \"sql\"")
  | Some name, None -> (
    match Urm_workload.Queries.by_name name with
    | exception Not_found -> Error (`Not_found ("unknown query " ^ name))
    | target, q ->
      if String.equal target.Urm_relalg.Schema.sname session.Session.target.Urm_relalg.Schema.sname
      then Ok q
      else
        Error
          (`Bad
            (Printf.sprintf "query %s targets schema %s, session %S is over %s"
               name target.Urm_relalg.Schema.sname session.Session.name
               session.Session.target_name)))
  | None, Some text -> (
    match Urm.Sql.parse ~name:"wire" ~target:session.Session.target text with
    | Ok q -> Ok q
    | Error e -> Error (`Bad (Format.asprintf "%a" Urm.Sql.pp_error e)))

let answers_json answer limit =
  Json.Arr
    (List.map
       (fun (tuple, p) ->
         Json.Obj
           [
             ( "tuple",
               Json.Arr (List.map Protocol.value_to_json (Array.to_list tuple)) );
             ("prob", Json.Num p);
           ])
       (Urm.Answer.top_k answer limit))

let with_cached payload cached =
  match payload with
  | Json.Obj fields -> Json.Obj (fields @ [ ("cached", Json.Bool cached) ])
  | other -> other

let answers_limit req =
  Option.value ~default:20 (Protocol.int_param req "answers")

(* Cached-or-computed evaluation: [variant] makes the cache key, [compute]
   builds the payload on a miss over one pinned snapshot.  The insert is
   guarded by an epoch re-check under the cache lock, so an answer computed
   over a pre-mutation snapshot can never be published after the mutation's
   invalidation ran ([exec_mutate] commits, then invalidates). *)
let cached_eval t session q ~algorithm ~variant compute =
  let key = Cache.key ~session ~query:q ~algorithm ~variant in
  match Cache.find t.cache key with
  | Some payload -> with_cached payload true
  | None ->
    let snap = Session.snapshot session in
    let payload = compute snap in
    Cache.add t.cache key payload
      ~deps:(Urm_incr.State.query_deps snap q)
      ~guard:(fun () ->
        Session.epoch session = snap.Urm_incr.Vcatalog.epoch);
    with_cached payload false

(* Partial evaluation over a contiguous mapping range [lo, hi): the shard
   router's fan-out unit for the [basic] algorithm.  The reply carries one
   part per mapping (ascending), dictionary-encoded
   ({!Protocol.encode_partials}), so the router can replay [urm_par]'s
   per-item ascending merge exactly and recombine bit-identically to a
   single-process evaluation at any shard count.  Per-range subtotals
   would not be enough — float addition is non-associative, so only the
   per-item parts pin the grouping. *)
let exec_query_partial t session q ~alg_name ~lo ~hi : (Json.t, failure) result =
  if not (String.equal alg_name "basic") then
    Error (`Bad "partial range evaluation supports only algorithm \"basic\"")
  else if lo < 0 || hi < lo then
    Error (`Bad "\"range_lo\"/\"range_hi\" must satisfy 0 <= lo <= hi")
  else
    let variant = Printf.sprintf "partial:%d:%d" lo hi in
    Ok
      (cached_eval t session q ~algorithm:alg_name ~variant (fun snap ->
           let ctx = snap.Urm_incr.Vcatalog.ctx
           and mappings = snap.Urm_incr.Vcatalog.mappings in
           let n = List.length mappings in
           if hi > n then
             raise
               (Stale_range
                  (Printf.sprintf "range [%d, %d) outside the %d mappings" lo hi n));
           let header = Urm.Reformulate.output_header q in
           let ms = Array.of_list mappings in
           let eval i =
             let ctrs = Urm_relalg.Eval.fresh_counters () in
             let acc = Urm.Answer.create header in
             Urm.Basic.accumulate ~ctrs ctx q acc [ ms.(i) ];
             acc
           in
           Json.Obj
             ([
               ("query", Json.Str (Urm.Query.to_string q));
               ("algorithm", Json.Str "basic");
               ( "range",
                 Json.Obj
                   [
                     ("lo", Json.Num (float_of_int lo));
                     ("hi", Json.Num (float_of_int hi));
                   ] );
               ("output", Json.Arr (List.map (fun c -> Json.Str c) header));
             ]
             @ Protocol.encode_partials ~output:header ~key:"m" ~lo ~hi eval)))

(* Partial evaluation of the sharing algorithms: the shard router fans the
   distinct e-unit list instead of the mapping range.  Every worker holds
   every session, so each worker derives the same unit list deterministically
   and evaluates its contiguous chunk [slot·n/slots, (slot+1)·n/slots).  The
   reply carries one part per e-unit (ascending), so the router's
   ascending-slot merge replays the factorized executor's per-unit bucket
   additions exactly and recombines bit-identically to a single process at
   any shard count.  [expect_h] is the router's cached mapping count — a
   mismatch means a mutate raced the fan-out and surfaces as the typed
   [stale_range] error, same refresh-and-retry discipline as the basic
   range fan-out. *)
let unit_fan_algorithms = [ "e-basic"; "e-mqo"; "q-sharing" ]

let exec_query_units t session q ~alg_name ~slot ~slots ~expect_h :
    (Json.t, failure) result =
  if not (List.mem alg_name unit_fan_algorithms) then
    Error
      (`Bad
        "e-unit slot evaluation supports only algorithms \"e-basic\", \
         \"e-mqo\" and \"q-sharing\"")
  else if slots <= 0 || slot < 0 || slot >= slots then
    Error (`Bad "\"slot\"/\"slots\" must satisfy 0 <= slot < slots")
  else
    let variant = Printf.sprintf "units:%d:%d:%d" slot slots expect_h in
    Ok
      (cached_eval t session q ~algorithm:alg_name ~variant (fun snap ->
           let ctx = snap.Urm_incr.Vcatalog.ctx
           and mappings = snap.Urm_incr.Vcatalog.mappings in
           let h = List.length mappings in
           if expect_h >= 0 && expect_h <> h then
             raise
               (Stale_range
                  (Printf.sprintf "expected %d mappings, session has %d"
                     expect_h h));
           let units =
             match alg_name with
             | "q-sharing" ->
               Urm.Factorized.singleton_units ctx q
                 (Urm.Qsharing.representatives ctx q mappings)
             | _ -> Urm.Factorized.weighted_units ctx q mappings
           in
           let n = List.length units in
           let lo = slot * n / slots and hi = (slot + 1) * n / slots in
           let header = Urm.Reformulate.output_header q in
           let ua = Array.of_list units in
           let eval i =
             let ctrs = Urm_relalg.Eval.fresh_counters () in
             (Urm.Factorized.eval ~ctrs ctx q [ ua.(i) ]).Urm.Factorized.answer
           in
           Json.Obj
             ([
               ("query", Json.Str (Urm.Query.to_string q));
               ("algorithm", Json.Str alg_name);
               ("units", Json.Num (float_of_int n));
               ( "slot",
                 Json.Obj
                   [
                     ("index", Json.Num (float_of_int slot));
                     ("of", Json.Num (float_of_int slots));
                   ] );
               ("output", Json.Arr (List.map (fun c -> Json.Str c) header));
             ]
             @ Protocol.encode_partials ~output:header ~key:"u" ~lo ~hi eval)))

let exec_query t req : (Json.t, failure) result =
  match session_of t req with
  | Error _ as e -> e
  | Ok session -> (
    match query_of session req with
    | Error _ as e -> e
    | Ok q -> (
      let alg_name =
        Option.value ~default:"o-sharing" (Protocol.str_param req "algorithm")
      in
      let limit = answers_limit req in
      match
        ( Protocol.int_param req "range_lo",
          Protocol.int_param req "range_hi",
          Protocol.int_param req "slot",
          Protocol.int_param req "slots" )
      with
      | _, _, Some slot, Some slots ->
        let expect_h =
          Option.value ~default:(-1) (Protocol.int_param req "expect_h")
        in
        exec_query_units t session q ~alg_name ~slot ~slots ~expect_h
      | _, _, Some _, None | _, _, None, Some _ ->
        Error (`Bad "give both \"slot\" and \"slots\", or neither")
      | Some lo, Some hi, None, None ->
        exec_query_partial t session q ~alg_name ~lo ~hi
      | Some _, None, None, None | None, Some _, None, None ->
        Error (`Bad "give both \"range_lo\" and \"range_hi\", or neither")
      | None, None, None, None ->
      if String.equal alg_name "incr" then
        (* The maintained answer: built on first use, patched forward by
           delta evaluation on every later one.  Always fresh at the
           catalog head, so it bypasses the LRU cache entirely. *)
        Ok
          (Session.with_incr_state session q (fun state status ->
               let answer = Urm_incr.State.answer state in
               Json.Obj
                 [
                   ("query", Json.Str (Urm.Query.to_string q));
                   ("algorithm", Json.Str "incr");
                   ("epoch", Json.Num (float_of_int (Urm_incr.State.epoch state)));
                   ( "status",
                     Json.Str
                       (match status with
                       | `Built -> "built"
                       | `Current -> "current"
                       | `Patched -> "patched"
                       | `Rebuilt -> "rebuilt") );
                   ( "shapes",
                     Json.Num (float_of_int (Urm_incr.State.shape_count state)) );
                   ("size", Json.Num (float_of_int (Urm.Answer.size answer)));
                   ("null_prob", Json.Num (Urm.Answer.null_prob answer));
                   ("answers", answers_json answer limit);
                 ]))
      else
        match algorithm_of_string alg_name with
      | Error _ as e -> e
      | Ok alg ->
        let variant = "exact:" ^ string_of_int limit in
        Ok
          (cached_eval t session q ~algorithm:alg_name ~variant (fun snap ->
               let ctx = snap.Urm_incr.Vcatalog.ctx
               and mappings = snap.Urm_incr.Vcatalog.mappings in
               let report =
                 match t.pool with
                 | Some pool -> Urm_par.Drivers.run ~pool alg ctx q mappings
                 | None -> Urm.Algorithms.run alg ctx q mappings
               in
               let answer = report.Urm.Report.answer in
               Json.Obj
                 [
                   ("query", Json.Str (Urm.Query.to_string q));
                   ("algorithm", Json.Str alg_name);
                   ("size", Json.Num (float_of_int (Urm.Answer.size answer)));
                   ("null_prob", Json.Num (Urm.Answer.null_prob answer));
                   ("answers", answers_json answer limit);
                   ( "seconds",
                     Json.Num (Urm.Report.total report.Urm.Report.timings) );
                 ]))))

let exec_topk t req : (Json.t, failure) result =
  match session_of t req with
  | Error _ as e -> e
  | Ok session -> (
    match query_of session req with
    | Error _ as e -> e
    | Ok q ->
      let k = Option.value ~default:5 (Protocol.int_param req "k") in
      if k <= 0 then Error (`Bad "\"k\" must be positive")
      else
        let variant = "topk:" ^ string_of_int k in
        Ok
          (cached_eval t session q ~algorithm:"topk" ~variant (fun snap ->
               let r =
                 Urm.Topk.run ~k snap.Urm_incr.Vcatalog.ctx q
                   snap.Urm_incr.Vcatalog.mappings
               in
               let answer = r.Urm.Topk.report.Urm.Report.answer in
               Json.Obj
                 [
                   ("query", Json.Str (Urm.Query.to_string q));
                   ("k", Json.Num (float_of_int k));
                   ("answers", answers_json answer k);
                   ("stopped_early", Json.Bool r.Urm.Topk.stopped_early);
                   ( "visited_eunits",
                     Json.Num (float_of_int r.Urm.Topk.visited_eunits) );
                 ])))

let exec_threshold t req : (Json.t, failure) result =
  match session_of t req with
  | Error _ as e -> e
  | Ok session -> (
    match query_of session req with
    | Error _ as e -> e
    | Ok q -> (
      match Protocol.float_param req "tau" with
      | None -> Error (`Bad "missing \"tau\"")
      | Some tau when not (tau > 0. && tau <= 1.) ->
        Error (`Bad "\"tau\" must lie in (0, 1]")
      | Some tau ->
        let variant = Printf.sprintf "threshold:%h" tau in
        Ok
          (cached_eval t session q ~algorithm:"threshold" ~variant (fun snap ->
               let r =
                 Urm.Threshold.run ~tau snap.Urm_incr.Vcatalog.ctx q
                   snap.Urm_incr.Vcatalog.mappings
               in
               let answer = r.Urm.Threshold.report.Urm.Report.answer in
               Json.Obj
                 [
                   ("query", Json.Str (Urm.Query.to_string q));
                   ("tau", Json.Num tau);
                   ("answers", answers_json answer max_int);
                   ("stopped_early", Json.Bool r.Urm.Threshold.stopped_early);
                 ]))))

(* Anytime approximate evaluation.  The cache key's variant encodes every
   parameter the sampled result depends on — mode, k/τ, δ, ε, budget and
   seed — so distinct budgets never alias (the run is deterministic in
   those, making the cached payload exact replay). *)
let exec_approx t req : (Json.t, failure) result =
  match session_of t req with
  | Error _ as e -> e
  | Ok session -> (
    match query_of session req with
    | Error _ as e -> e
    | Ok q -> (
      let module B = Urm_anytime.Budget in
      let k = Protocol.int_param req "k" in
      let tau = Protocol.float_param req "tau" in
      let delta = Option.value ~default:0.05 (Protocol.float_param req "delta") in
      let epsilon =
        Option.value ~default:0.02 (Protocol.float_param req "epsilon")
      in
      let samples =
        Option.value ~default:100_000 (Protocol.int_param req "samples")
      in
      let deadline = Protocol.float_param req "deadline" in
      let seed = Option.value ~default:17 (Protocol.int_param req "seed") in
      let limit = answers_limit req in
      let budget =
        {
          B.default with
          B.max_samples = (if samples <= 0 then None else Some samples);
          deadline;
          delta;
          epsilon;
        }
      in
      match B.validate budget with
      | exception Invalid_argument m -> Error (`Bad m)
      | () -> (
        let intervals_json report =
          match report.Urm.Report.intervals with
          | None -> Json.Arr []
          | Some bounds ->
            Json.Arr
              (List.filteri
                 (fun i _ -> i < limit)
                 bounds
              |> List.map (fun (tuple, (lo, hi)) ->
                     Json.Obj
                       [
                         ( "tuple",
                           Json.Arr
                             (List.map Protocol.value_to_json
                                (Array.to_list tuple)) );
                         ("lo", Json.Num lo);
                         ("hi", Json.Num hi);
                       ]))
        in
        let base mode report samples shapes stop extra =
          let answer = report.Urm.Report.answer in
          Json.Obj
            ([
               ("query", Json.Str (Urm.Query.to_string q));
               ("mode", Json.Str mode);
               ("delta", Json.Num delta);
               ("samples", Json.Num (float_of_int samples));
               ("shapes", Json.Num (float_of_int shapes));
               ("stop_reason", Json.Str (B.stop_reason_name stop));
               ("size", Json.Num (float_of_int (Urm.Answer.size answer)));
               ("answers", answers_json answer limit);
               ("intervals", intervals_json report);
             ]
            @ extra)
        in
        let variant =
          Printf.sprintf "approx:%s:%h:%h:%d:%s:%d"
            (match (k, tau) with
            | Some k, None -> "topk=" ^ string_of_int k
            | None, Some tau -> Printf.sprintf "tau=%h" tau
            | _ -> "estimate")
            delta epsilon samples
            (match deadline with None -> "-" | Some d -> Printf.sprintf "%h" d)
            seed
        in
        match (k, tau) with
        | Some _, Some _ -> Error (`Bad "give either \"k\" or \"tau\", not both")
        | Some k, None when k <= 0 -> Error (`Bad "\"k\" must be positive")
        | None, Some tau when not (tau > 0. && tau <= 1.) ->
          Error (`Bad "\"tau\" must lie in (0, 1]")
        | Some k, None ->
          Ok
            (cached_eval t session q ~algorithm:"approx" ~variant (fun snap ->
                 let r =
                   Urm_anytime.Topk.run ~seed ~budget ~k
                     snap.Urm_incr.Vcatalog.ctx q snap.Urm_incr.Vcatalog.mappings
                 in
                 base "topk" r.Urm_anytime.Topk.report
                   r.Urm_anytime.Topk.samples r.Urm_anytime.Topk.shapes
                   r.Urm_anytime.Topk.stop_reason
                   [
                     ("k", Json.Num (float_of_int k));
                     ( "stopped_early",
                       Json.Bool r.Urm_anytime.Topk.stopped_early );
                   ]))
        | None, Some tau ->
          Ok
            (cached_eval t session q ~algorithm:"approx" ~variant (fun snap ->
                 let r =
                   Urm_anytime.Threshold.run ~seed ~budget ~tau
                     snap.Urm_incr.Vcatalog.ctx q snap.Urm_incr.Vcatalog.mappings
                 in
                 base "threshold" r.Urm_anytime.Threshold.report
                   r.Urm_anytime.Threshold.samples
                   r.Urm_anytime.Threshold.shapes
                   r.Urm_anytime.Threshold.stop_reason
                   [
                     ("tau", Json.Num tau);
                     ( "stopped_early",
                       Json.Bool r.Urm_anytime.Threshold.stopped_early );
                     ( "undecided",
                       Json.Num
                         (float_of_int r.Urm_anytime.Threshold.undecided) );
                   ]))
        | None, None ->
          Ok
            (cached_eval t session q ~algorithm:"approx" ~variant (fun snap ->
                 let r =
                   Urm_anytime.Estimator.run ~seed ~budget
                     snap.Urm_incr.Vcatalog.ctx q snap.Urm_incr.Vcatalog.mappings
                 in
                 let lo, hi = r.Urm_anytime.Estimator.null_interval in
                 base "estimate" r.Urm_anytime.Estimator.report
                   r.Urm_anytime.Estimator.samples
                   r.Urm_anytime.Estimator.shapes
                   r.Urm_anytime.Estimator.stop_reason
                   [
                     ( "null_interval",
                       Json.Obj [ ("lo", Json.Num lo); ("hi", Json.Num hi) ] );
                     ("unseen_hi", Json.Num r.Urm_anytime.Estimator.unseen_hi);
                   ])))))

(* Commit a mutation batch, then invalidate the answer cache before
   replying: any query issued after this reply observes the new epoch, so
   serving it a pre-mutation cached answer is impossible (queries already
   in flight may legitimately answer over the snapshot they pinned).
   Data-only batches invalidate selectively — only entries whose answer
   read a touched relation; mapping-set changes invalidate the session
   wholesale, since every answer depends on the mapping probabilities. *)
let exec_mutate t req : (Json.t, failure) result =
  match session_of t req with
  | Error _ as e -> e
  | Ok session -> (
    match Protocol.param req "mutations" with
    | None -> Error (`Bad "missing \"mutations\"")
    | Some json -> (
      match Urm_incr.Mutation.batch_of_json json with
      | Error m -> Error (`Bad m)
      | Ok [] -> Error (`Bad "\"mutations\" must be non-empty")
      | Ok batch -> (
        match Session.mutate session batch with
        | Error m -> Error (`Conflict m)
        | Ok out ->
          let scope, kind =
            if out.Urm_incr.Vcatalog.mappings_changed then
              (Cache.All, `Wholesale)
            else (Cache.Relations out.Urm_incr.Vcatalog.touched, `Selective)
          in
          let removed =
            Cache.invalidate t.cache
              ~fingerprint:(Session.fingerprint session)
              scope
          in
          Session.note_invalidation session kind;
          Ok
            (Json.Obj
               [
                 ("session", Json.Str session.Session.name);
                 ( "epoch",
                   Json.Num
                     (float_of_int
                        out.Urm_incr.Vcatalog.snapshot.Urm_incr.Vcatalog.epoch) );
                 ( "applied",
                   Json.Num
                     (float_of_int (List.length out.Urm_incr.Vcatalog.resolved))
                 );
                 ( "touched",
                   Json.Arr
                     (List.map
                        (fun r -> Json.Str r)
                        out.Urm_incr.Vcatalog.touched) );
                 ( "mappings_changed",
                   Json.Bool out.Urm_incr.Vcatalog.mappings_changed );
                 ( "invalidation",
                   Json.Obj
                     [
                       ( "scope",
                         Json.Str
                           (match kind with
                           | `Wholesale -> "wholesale"
                           | `Selective -> "selective") );
                       ("removed", Json.Num (float_of_int removed));
                     ] );
                 ( "mutations",
                   Urm_incr.Mutation.batch_to_json out.Urm_incr.Vcatalog.resolved
                 );
               ]))))

let exec_open_session t req : (Json.t, failure) result =
  match Protocol.str_param req "target" with
  | None -> Error (`Bad "missing \"target\"")
  | Some target -> (
    let name = Protocol.str_param req "session" in
    let seed = Protocol.int_param req "seed" in
    let scale = Protocol.float_param req "scale" in
    let h = Protocol.int_param req "h" in
    match
      Session.open_session t.session_catalog ?name ~engine:t.cfg.engine ?seed
        ?scale ?h ~target ()
    with
    | Error msg -> Error (`Conflict msg)
    | Ok (s, created) -> (
      match Session.to_json s with
      | Json.Obj fields -> Ok (Json.Obj (fields @ [ ("created", Json.Bool created) ]))
      | other -> Ok other))

(* Totalised percentiles ({!Urm_util.Stats.percentile_or_zero}): the ring
   may legitimately have [filled = 0] — a server polled before its first
   request, or an idle shard inside a roll-up — and must report 0 rather
   than raise into the metrics path. *)
let latency_summary t =
  let lats = ring_to_list t.lat in
  let p q = Urm_util.Stats.percentile_or_zero q lats in
  (List.length lats, p 0.5, p 0.95, p 0.99)

let exec_metrics t : Json.t =
  let count, p50, p95, p99 = latency_summary t in
  let hits, misses, evictions = Cache.stats t.cache in
  let num f = Json.Num (float_of_int f) in
  Json.Obj
    [
      ("requests", num (Metrics.value t.requests));
      ( "latency",
        Json.Obj
          [
            ("count", num count);
            ("p50", Json.Num p50);
            ("p95", Json.Num p95);
            ("p99", Json.Num p99);
            ("mean", Json.Num (Urm_util.Stats.mean (ring_to_list t.lat)));
          ] );
      ( "cache",
        let selective, wholesale, removed = Cache.invalidation_stats t.cache in
        Json.Obj
          [
            ("hit", num hits);
            ("miss", num misses);
            ("evict", num evictions);
            ( "invalidate",
              Json.Obj
                [
                  ("selective", num selective);
                  ("wholesale", num wholesale);
                  ("removed", num removed);
                ] );
          ] );
      (* Per-session mutation-driven invalidation counts. *)
      ( "invalidations",
        Json.Obj
          (List.map
             (fun s ->
               let selective, wholesale = Session.invalidations s in
               ( s.Session.name,
                 Json.Obj
                   [
                     ("selective", num selective);
                     ("wholesale", num wholesale);
                     ("epoch", num (Session.epoch s));
                   ] ))
             (Session.list t.session_catalog)) );
      (* Plan-cache totals across open sessions (each context owns one). *)
      ( "plan_cache",
        let hit, miss, evict =
          List.fold_left
            (fun (h, m, e) s ->
              let h', m', e' = Urm.Ctx.plan_stats (Session.ctx s) in
              (h + h', m + m', e + e'))
            (0, 0, 0)
            (Session.list t.session_catalog)
        in
        Json.Obj [ ("hit", num hit); ("miss", num miss); ("evict", num evict) ] );
      ( "queue",
        Json.Obj
          [
            ("depth", num (Metrics.value t.depth));
            ("rejected", num (Metrics.value t.rejected));
          ] );
      ("sessions", num (List.length (Session.list t.session_catalog)));
    ]

let execute t (req : Protocol.request) : (Json.t, failure) result =
  match req.op with
  | "ping" -> Ok (Json.Obj [ ("pong", Json.Bool true) ])
  | "open-session" -> exec_open_session t req
  | "close-session" -> (
    match Protocol.str_param req "session" with
    | None -> Error (`Bad "missing \"session\"")
    | Some name ->
      if Session.close t.session_catalog name then
        Ok (Json.Obj [ ("closed", Json.Str name) ])
      else Error (`Not_found (Printf.sprintf "unknown session %S" name)))
  | "sessions" ->
    Ok
      (Json.Obj
         [
           ( "sessions",
             Json.Arr (List.map Session.to_json (Session.list t.session_catalog)) );
         ])
  | "query" -> exec_query t req
  | "mutate" -> exec_mutate t req
  | "topk" -> exec_topk t req
  | "threshold" -> exec_threshold t req
  | "approx" -> exec_approx t req
  | "metrics" -> Ok (exec_metrics t)
  | "shutdown" ->
    stop t;
    Ok (Json.Obj [ ("draining", Json.Bool true) ])
  | other -> Error (`Bad ("unknown op " ^ other))

(* ------------------------------------------------------------------ *)
(* Executor pool *)

let reply_of t (req : Protocol.request) =
  let id = req.Protocol.id in
  match execute t req with
  | Ok result -> Protocol.ok ~id result
  | Error (`Bad m) -> Protocol.error ~id ~code:"bad_request" m
  | Error (`Not_found m) -> Protocol.error ~id ~code:"not_found" m
  | Error (`Conflict m) -> Protocol.error ~id ~code:"conflict" m
  | Error (`Error m) -> Protocol.error ~id ~code:"error" m
  | exception Stale_range m -> Protocol.error ~id ~code:"stale_range" m
  | exception Failure m -> Protocol.error ~id ~code:"bad_request" m
  | exception Invalid_argument m -> Protocol.error ~id ~code:"bad_request" m
  | exception Not_found -> Protocol.error ~id ~code:"not_found" "not found"
  | exception exn -> Protocol.error ~id ~code:"error" (Printexc.to_string exn)

let handle t job =
  let executed =
    match job.work with
    | Single req ->
      send job.jconn (reply_of t req);
      1
    | Batched items ->
      let replies =
        List.map
          (function Ok req -> reply_of t req | Error pre -> pre)
          items
      in
      Wire.send_frame job.jconn (Frame.Batch_reply replies);
      List.length items
  in
  let dt = Urm_util.Timer.now () -. job.enqueued in
  Metrics.record t.request_timer dt;
  Metrics.incr ~by:executed t.requests;
  ring_add t.lat dt

let worker_loop t () =
  let rec loop () =
    Mutex.lock t.qlock;
    while Queue.is_empty t.queue && not t.stopping do
      Condition.wait t.qcond t.qlock
    done;
    if Queue.is_empty t.queue then Mutex.unlock t.qlock (* drained, stopping *)
    else begin
      let job = Queue.pop t.queue in
      Mutex.unlock t.qlock;
      Metrics.incr ~by:(-1) t.depth;
      handle t job;
      loop ()
    end
  in
  loop ()

(* ------------------------------------------------------------------ *)
(* Admission and connection readers *)

(* Free admission slots right now — the credit value of [Hello_ack] and
   [Credit] frames.  Advisory: a snapshot, not a reservation. *)
let free_slots t =
  Mutex.lock t.qlock;
  let n = max 0 (t.cfg.queue_depth - Queue.length t.queue) in
  Mutex.unlock t.qlock;
  n

let reject work conn ~code ~message =
  let err (req : Protocol.request) =
    Protocol.error ~id:req.Protocol.id ~code message
  in
  match work with
  | Single req -> send conn (err req)
  | Batched items ->
    Wire.send_frame conn
      (Frame.Batch_reply
         (List.map (function Ok req -> err req | Error pre -> pre) items))

let enqueue t conn work =
  Mutex.lock t.qlock;
  if t.stopping then begin
    Mutex.unlock t.qlock;
    reject work conn ~code:"unavailable" ~message:"server is draining"
  end
  else if Queue.length t.queue >= t.cfg.queue_depth then begin
    Mutex.unlock t.qlock;
    Metrics.incr t.rejected;
    reject work conn ~code:"busy" ~message:"admission queue is full";
    (* Explicit backpressure for framed clients: volunteer the current
       credit alongside the rejection so a pipelining sender can pace
       itself instead of spinning on [busy]. *)
    if conn.Wire.mode = Wire.Frames then
      Wire.send_frame conn (Frame.Credit (free_slots t))
  end
  else begin
    Queue.push { jconn = conn; work; enqueued = Urm_util.Timer.now () } t.queue;
    Condition.signal t.qcond;
    Mutex.unlock t.qlock;
    Metrics.incr t.depth
  end

let reader t conn =
  let parse_item doc =
    match Protocol.parse_request doc with
    | Ok req -> Ok req
    | Error msg ->
      Error
        (Protocol.error ~id:Json.Null ~code:"bad_request"
           ("malformed request: " ^ msg))
  in
  let enqueue_doc doc =
    match parse_item doc with
    | Ok req -> enqueue t conn (Single req)
    | Error pre -> send conn pre
  in
  (* Returns [true] to keep reading, [false] to drop the connection. *)
  let step () =
    match Wire.recv conn with
    | Wire.Eof -> false
    | Wire.Line line ->
      if not (String.equal (String.trim line) "") then enqueue_doc line;
      true
    | Wire.Framed (Frame.Request doc) ->
      enqueue_doc doc;
      true
    | Wire.Framed (Frame.Batch docs) ->
      (match List.map parse_item docs with
      | [] -> Wire.send_frame conn (Frame.Batch_reply [])
      | items -> enqueue t conn (Batched items));
      true
    | Wire.Framed (Frame.Hello _) ->
      Wire.send_frame conn (Frame.Hello_ack (free_slots t));
      true
    | Wire.Framed (Frame.Credit _) ->
      Wire.send_frame conn (Frame.Credit (free_slots t));
      true
    | Wire.Framed
        (Frame.Hello_ack _ | Frame.Reply _ | Frame.Batch_reply _
        | Frame.Proto_error _) ->
      Wire.send_frame conn
        (Frame.Proto_error
           ("unexpected_frame", "frame type flows server-to-client only"));
      false
    | Wire.Malformed err ->
      (* Answer the malformation, then close: a corrupted binary stream
         has no resynchronisation point. *)
      Wire.send_frame conn
        (Frame.Proto_error (Frame.error_code err, Frame.error_message err));
      false
  in
  let rec loop () = if step () then loop () in
  loop ();
  Wire.teardown conn;
  (* Drop this connection's record and our own thread handle so a
     long-lived server accepting many short connections doesn't
     accumulate dead entries.  Queued jobs may still reference [conn];
     [send] checks [alive] before writing. *)
  let self = Thread.id (Thread.self ()) in
  Mutex.lock t.conns_lock;
  t.conns <- List.filter (fun c -> c != conn) t.conns;
  t.readers <- List.filter (fun th -> Thread.id th <> self) t.readers;
  Mutex.unlock t.conns_lock

let acceptor_loop t () =
  let stopping () =
    Mutex.lock t.qlock;
    let s = t.stopping in
    Mutex.unlock t.qlock;
    s
  in
  let rec loop () =
    if stopping () then ()
    else begin
      (* Short select timeout so a drain is noticed promptly even with no
         incoming connections. *)
      (match Unix.select [ t.sock ] [] [] 0.2 with
      | [], _, _ -> ()
      | _ :: _, _, _ -> (
        match Unix.accept t.sock with
        | fd, _ ->
          (* Bound blocking reply writes: a stalled client whose socket
             buffer fills must not wedge a worker domain forever — the
             timed-out write surfaces as Sys_error in [send], which marks
             the connection dead. *)
          (if t.cfg.send_timeout > 0. then
             try Unix.setsockopt_float fd Unix.SO_SNDTIMEO t.cfg.send_timeout
             with Unix.Unix_error _ | Invalid_argument _ -> ());
          let conn = Wire.of_fd fd in
          Mutex.lock t.conns_lock;
          t.conns <- conn :: t.conns;
          t.readers <- Thread.create (reader t) conn :: t.readers;
          Mutex.unlock t.conns_lock
        | exception Unix.Unix_error _ -> ())
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> ());
      loop ()
    end
  in
  loop ();
  (try Unix.close t.sock with Unix.Unix_error _ -> ())

(* ------------------------------------------------------------------ *)

let start ?(metrics = Metrics.scope Metrics.global "service") (cfg : config) =
  if cfg.workers <= 0 then invalid_arg "Server.start: workers must be positive";
  if cfg.queue_depth <= 0 then invalid_arg "Server.start: queue_depth must be positive";
  if cfg.eval_jobs <= 0 then invalid_arg "Server.start: eval_jobs must be positive";
  (* A write to a disconnected client must surface as EPIPE/Sys_error in
     [send] — the default SIGPIPE action would terminate the process. *)
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore with Invalid_argument _ -> ());
  let sock = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.setsockopt sock Unix.SO_REUSEADDR true;
  Unix.bind sock (Unix.ADDR_INET (Unix.inet_addr_of_string cfg.host, cfg.port));
  Unix.listen sock 64;
  let bound_port =
    match Unix.getsockname sock with
    | Unix.ADDR_INET (_, p) -> p
    | _ -> cfg.port
  in
  let t =
    {
      cfg;
      sock;
      bound_port;
      session_catalog = Session.create_catalog ();
      cache = Cache.create ~metrics ~capacity:cfg.cache_capacity ();
      requests = Metrics.counter metrics "requests";
      rejected = Metrics.counter metrics "queue.rejected";
      depth = Metrics.counter metrics "queue.depth";
      request_timer = Metrics.timer metrics "phase.request";
      queue = Queue.create ();
      qlock = Mutex.create ();
      qcond = Condition.create ();
      stopping = false;
      conns = [];
      readers = [];
      conns_lock = Mutex.create ();
      lat = ring_create 4096;
      pool =
        (if cfg.eval_jobs > 1 then
           Some (Urm_par.Pool.create ~metrics ~jobs:cfg.eval_jobs ())
         else None);
      workers = [||];
      acceptor = None;
    }
  in
  t.workers <- Array.init cfg.workers (fun _ -> Domain.spawn (worker_loop t));
  t.acceptor <- Some (Thread.create (acceptor_loop t) ());
  t

let wait t =
  (match t.acceptor with Some th -> Thread.join th | None -> ());
  Array.iter Domain.join t.workers;
  Option.iter Urm_par.Pool.shutdown t.pool;
  Mutex.lock t.conns_lock;
  let conns = t.conns and readers = t.readers in
  t.conns <- [];
  t.readers <- [];
  Mutex.unlock t.conns_lock;
  List.iter Wire.wake conns;
  List.iter Thread.join readers;
  List.iter Wire.teardown conns
