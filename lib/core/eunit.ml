open Urm_relalg

type strategy = Random | Snf | Sef

let strategy_name = function Random -> "Random" | Snf -> "SNF" | Sef -> "SEF"

type piece = {
  rel : Relation.t option;
      (* materialised result; [None] while the piece is a lazily-extended
         input expression (reformulation Case 2: R × R1 × … is the input
         of the next operator, not an executed operator itself) *)
  hint : Algebra.t;
  aliases : string list;
  loaded : (string * string) list;
}

type t = {
  pieces : piece list;
  pending : Query.op list;
  mappings : Mapping.t list;
}

type env = {
  ctx : Ctx.t;
  q : Query.t;
  strategy : strategy;
  rng : Urm_util.Prng.t;
  ctrs : Eval.counters;
  memo : (string, Relation.t) Hashtbl.t;
  use_memo : bool;
  c_eunits : Urm_obs.Metrics.counter;
  c_hits : Urm_obs.Metrics.counter;
  c_misses : Urm_obs.Metrics.counter;
  (* Per-run counts.  The counters above live in the shared registry and
     aggregate over every run of the process; these count this env only. *)
  mutable eunits : int;
  mutable hits : int;
  mutable tracer : (string -> unit) option;
}

let make_env ?(seed = 1) ?(use_memo = true) ?(metrics = Urm_obs.Metrics.global)
    ~strategy ctx q =
  let mu = Urm_obs.Metrics.scope metrics "eunit" in
  {
    ctx;
    q;
    strategy;
    rng = Urm_util.Prng.create seed;
    ctrs = Eval.fresh_counters ~metrics ();
    memo = Hashtbl.create 256;
    use_memo;
    c_eunits = Urm_obs.Metrics.counter mu "executions";
    c_hits = Urm_obs.Metrics.counter mu "memo_hits";
    c_misses = Urm_obs.Metrics.counter mu "memo_misses";
    eunits = 0;
    hits = 0;
    tracer = None;
  }

let counters env = env.ctrs
let memo_hits env = env.hits
let set_tracer env f = env.tracer <- Some f

let trace env fmt =
  match env.tracer with
  | None -> Format.ikfprintf (fun _ -> ()) Format.str_formatter fmt
  | Some f -> Format.kasprintf f fmt
let eunits_created env = env.eunits
let init q mappings = { pieces = []; pending = Query.operators q; mappings }
let mass u = Mapping.total_prob u.mappings

type leaf =
  | Tuples of Value.t array list * float
  | Null_answer of float

(* ------------------------------------------------------------------ *)
(* Source-operator execution with cross-branch memoisation.  Evaluation
   runs with the engine's logical optimisation on: a lazily-extended input
   product is planned together with the operator on top of it (selection
   pushdown, join formation), as a real engine would. *)

let run_qs env expr =
  let fp = Algebra.fingerprint expr in
  match if env.use_memo then Hashtbl.find_opt env.memo fp else None with
  | Some r ->
    env.hits <- env.hits + 1;
    Urm_obs.Metrics.incr env.c_hits;
    r
  | None ->
    Urm_obs.Metrics.incr env.c_misses;
    let r = Ctx.eval ~ctrs:env.ctrs env.ctx expr in
    if env.use_memo then Hashtbl.replace env.memo fp r;
    r

(* ------------------------------------------------------------------ *)
(* Piece management. *)

let source_of env m ta = Mapping.source_of m (Query.qualified env.q ta)

let base_instance env alias srel =
  let prefix = alias ^ "@" ^ srel in
  let hint = Algebra.Rename (prefix, Algebra.Base srel) in
  let rel = Relation.rename_prefix (Catalog.find env.ctx.catalog srel) prefix in
  { rel = Some rel; hint; aliases = [ alias ]; loaded = [ (alias, srel) ] }

let find_piece pieces pred =
  let rec go i = function
    | [] -> None
    | p :: rest -> if pred p then Some (i, p) else go (i + 1) rest
  in
  go 0 pieces

let replace_piece pieces i p = List.mapi (fun j old -> if j = i then p else old) pieces
let remove_two pieces i j = List.filteri (fun k _ -> k <> i && k <> j) pieces

(* Make the source attribute [src_qattr] (for target alias [alias])
   available in some piece.  An extension is symbolic — the product with the
   new base instance becomes part of the piece's input expression and is
   planned together with the next operator executed on the piece. *)
let ensure env pieces alias src_qattr =
  let srel, scol = Schema.split_qualified src_qattr in
  let col = alias ^ "@" ^ srel ^ "#" ^ scol in
  match find_piece pieces (fun p -> List.mem (alias, srel) p.loaded) with
  | Some (i, _) -> (pieces, i, col)
  | None -> begin
    match find_piece pieces (fun p -> List.mem alias p.aliases) with
    | Some (i, p) ->
      let inst = base_instance env alias srel in
      let p' =
        {
          rel = None;
          hint = Algebra.Product (p.hint, inst.hint);
          aliases = p.aliases;
          loaded = (alias, srel) :: p.loaded;
        }
      in
      (replace_piece pieces i p', i, col)
    | None ->
      let inst = base_instance env alias srel in
      (pieces @ [ inst ], List.length pieces, col)
  end

(* The source-relation cover an alias needs under mapping [m]: the relations
   owning its mapped needed attributes, sorted. *)
let cover env m alias =
  Query.needed_attrs env.ctx.target env.q alias
  |> List.filter_map (source_of env m)
  |> List.map (fun s -> fst (Schema.split_qualified s))
  |> List.sort_uniq String.compare

let is_referenced env alias = Query.referenced_of_alias env.q alias <> []

(* Load an alias's full cover as one (symbolic) piece.  Unreferenced aliases
   are never materialised: they contribute only the aggregate cardinality
   factor, applied in [exec_output]. *)
let load_alias env pieces m alias =
  if not (is_referenced env alias) then (pieces, None)
  else
    match find_piece pieces (fun p -> List.mem alias p.aliases) with
    | Some (i, _) -> (pieces, Some i)
    | None -> begin
      match cover env m alias with
      | [] -> (pieces, None)
      | first :: rest ->
        let piece0 = base_instance env alias first in
        let piece =
          List.fold_left
            (fun p srel ->
              let inst = base_instance env alias srel in
              {
                rel = None;
                hint = Algebra.Product (p.hint, inst.hint);
                aliases = p.aliases;
                loaded = (alias, srel) :: p.loaded;
              })
            piece0 rest
        in
        (pieces @ [ piece ], Some (List.length pieces))
    end

(* ------------------------------------------------------------------ *)
(* Partition labels: mappings with equal labels reformulate the operator to
   the same source operator (paper §VI-A). *)

let cover_label env u m alias =
  if not (is_referenced env alias) then
    (* Unreferenced alias: irrelevant for plain queries, a cardinality
       factor (determined by the cover) for aggregates. *)
    match env.q.Query.aggregate with
    | None -> "·"
    | Some _ -> String.concat "," (cover env m alias)
  else
    match find_piece u.pieces (fun p -> List.mem alias p.aliases) with
    | Some _ -> "·" (* already loaded: reformulation is piece-local *)
    | None -> String.concat "," (cover env m alias)

let op_label env u op m =
  match op with
  | Query.Op_select i ->
    let ta, _ = List.nth env.q.Query.selections i in
    Option.value ~default:"⊥" (source_of env m ta)
  | Query.Op_join i ->
    let a, b = List.nth env.q.Query.joins i in
    let la = Option.value ~default:"⊥" (source_of env m a) in
    let lb = Option.value ~default:"⊥" (source_of env m b) in
    la ^ "=" ^ lb
  | Query.Op_product (a1, a2) ->
    cover_label env u m a1 ^ "|" ^ cover_label env u m a2
  | Query.Op_output ->
    let outs =
      List.map
        (fun ta -> Option.value ~default:"⊥" (source_of env m ta))
        (Query.output_attrs env.q)
    in
    let agg =
      match env.q.Query.aggregate with
      | Some (Query.Sum ta) -> [ Option.value ~default:"⊥" (source_of env m ta) ]
      | Some Query.Count | None -> []
    in
    let covers =
      List.map (fun (alias, _) -> cover_label env u m alias) env.q.Query.aliases
    in
    String.concat ";" (outs @ agg @ covers)

(* ------------------------------------------------------------------ *)
(* Operator selection: Random / SNF / SEF (paper §VI-A). *)

let partitions_for env u op =
  Ptree.partition_by_labels (op_label env u op) u.mappings

let select_next env u =
  let candidates =
    match u.pending with
    | [ Query.Op_output ] -> [ Query.Op_output ]
    | ops -> List.filter (fun o -> o <> Query.Op_output) ops
  in
  match candidates with
  | [] -> invalid_arg "Eunit.select_next: no pending operators"
  | [ op ] -> (op, partitions_for env u op)
  | ops -> begin
    match env.strategy with
    | Random ->
      let op = Urm_util.Prng.pick_list env.rng ops in
      (op, partitions_for env u op)
    | Snf | Sef ->
      let total = float_of_int (List.length u.mappings) in
      let score op =
        let parts = partitions_for env u op in
        let value =
          match env.strategy with
          | Snf -> float_of_int (List.length parts)
          | Sef | Random ->
            Urm_util.Stats.entropy
              (List.map
                 (fun (_, group) -> float_of_int (List.length group) /. total)
                 parts)
        in
        (value, parts)
      in
      let best =
        List.fold_left
          (fun acc op ->
            let value, parts = score op in
            match acc with
            | Some (_, best_value, _) when best_value <= value -> acc
            | _ -> Some (op, value, parts))
          None ops
      in
      (match best with
      | Some (op, _, parts) -> (op, parts)
      | None -> assert false)
  end

(* ------------------------------------------------------------------ *)
(* Operator execution. *)

let leaf_null env m_mass =
  match (env.q.Query.aggregate, env.q.Query.group_by) with
  (* A grouped aggregate over an empty input has no groups: θ. *)
  | Some _, _ :: _ -> Null_answer m_mass
  | Some Query.Count, [] -> Tuples ([ [| Value.Int 0 |] ], m_mass)
  | Some (Query.Sum _), [] -> Tuples ([ [| Value.Null |] ], m_mass)
  | None, _ -> Null_answer m_mass

type step = Child of t | Leaf of leaf

let remaining u op = List.filter (fun o -> o <> op) u.pending

let update_or_null env u op pieces i rel group =
  if Relation.is_empty rel then Leaf (leaf_null env (Mapping.total_prob group))
  else begin
    let p = List.nth pieces i in
    let p' = { p with rel = Some rel; hint = Algebra.Mat rel } in
    Child { pieces = replace_piece pieces i p'; pending = remaining u op; mappings = group }
  end

let exec_select env u op i group =
  let ta, v = List.nth env.q.Query.selections i in
  let m = List.hd group in
  let g_mass = Mapping.total_prob group in
  match source_of env m ta with
  | None -> Leaf (leaf_null env g_mass)
  | Some src ->
    let pieces, idx, col = ensure env u.pieces ta.Query.alias src in
    let p = List.nth pieces idx in
    let rel = run_qs env (Algebra.Select (Pred.eq col v, p.hint)) in
    update_or_null env u op pieces idx rel group

let exec_join env u op i group =
  let a, b = List.nth env.q.Query.joins i in
  let m = List.hd group in
  let g_mass = Mapping.total_prob group in
  match (source_of env m a, source_of env m b) with
  | None, _ | _, None -> Leaf (leaf_null env g_mass)
  | Some sa, Some sb ->
    let pieces, ia, ca = ensure env u.pieces a.Query.alias sa in
    let pieces, ib, cb = ensure env pieces b.Query.alias sb in
    if ia = ib then begin
      let p = List.nth pieces ia in
      let rel = run_qs env (Algebra.Select (Pred.eq_cols ca cb, p.hint)) in
      update_or_null env u op pieces ia rel group
    end
    else begin
      let pa = List.nth pieces ia and pb = List.nth pieces ib in
      let rel = run_qs env (Algebra.Join (Pred.eq_cols ca cb, pa.hint, pb.hint)) in
      if Relation.is_empty rel then Leaf (leaf_null env g_mass)
      else begin
        let merged =
          {
            rel = Some rel;
            hint = Algebra.Mat rel;
            aliases = pa.aliases @ pb.aliases;
            loaded = pa.loaded @ pb.loaded;
          }
        in
        Child
          {
            pieces = remove_two pieces ia ib @ [ merged ];
            pending = remaining u op;
            mappings = group;
          }
      end
    end

let exec_product env u op a1 a2 group =
  let m = List.hd group in
  let g_mass = Mapping.total_prob group in
  (* Executing a Cartesian product materialises nothing: its sides are
     loaded (that is what the partition key reflects) and the cross product
     itself is deferred to the output operator, where the engine factorises
     it under set semantics.  Materialising raw cross products here is what
     makes the naive strategies explode. *)
  let pieces, _ = load_alias env u.pieces m a1 in
  let pieces, _ = load_alias env pieces m a2 in
  let empty_piece p = match p.rel with Some r -> Relation.is_empty r | None -> false in
  if List.exists empty_piece pieces then Leaf (leaf_null env g_mass)
  else Child { pieces; pending = remaining u op; mappings = group }

let exec_output env u group =
  let m = List.hd group in
  let g_mass = Mapping.total_prob group in
  (* Aggregate multiplicity of the factored-out unreferenced aliases. *)
  let factor =
    match env.q.Query.aggregate with
    | None -> 1
    | Some _ ->
      List.fold_left
        (fun acc (alias, _) ->
          if is_referenced env alias then acc
          else
            List.fold_left
              (fun acc r ->
                acc * Relation.cardinality (Catalog.find env.ctx.catalog r))
              acc (cover env m alias))
        1 env.q.Query.aliases
  in
  let scale v =
    match v with
    | Value.Int c -> Value.Int (c * factor)
    | Value.Float s -> Value.Float (s *. float_of_int factor)
    | Value.Null | Value.Str _ -> v
  in
  (* 1. Every referenced alias must contribute its cover. *)
  let pieces =
    List.fold_left
      (fun pieces (alias, _) -> fst (load_alias env pieces m alias))
      u.pieces env.q.Query.aliases
  in
  if pieces = [] then
    match env.q.Query.aggregate with
    | Some Query.Count ->
      (* Nothing to evaluate: the count is exactly the multiplicity. *)
      Leaf (Tuples ([ [| Value.Int factor |] ], g_mass))
    | Some (Query.Sum _) | None -> Leaf (leaf_null env g_mass)
  else begin
    (* 2. Make mapped output (and SUM) attributes available. *)
    let need_attrs =
      (match env.q.Query.aggregate with
      | Some (Query.Sum ta) -> [ ta ]
      | Some Query.Count | None -> [])
      @ Query.output_attrs env.q
    in
    let pieces, cols =
      List.fold_left
        (fun (pieces, cols) ta ->
          match source_of env m ta with
          | None -> (pieces, (ta, None) :: cols)
          | Some src ->
            let pieces, _, col = ensure env pieces ta.Query.alias src in
            (pieces, (ta, Some col) :: cols))
        (pieces, []) need_attrs
    in
    let col_of ta =
      List.assoc (Query.tattr_to_string ta)
        (List.map (fun (t, c) -> (Query.tattr_to_string t, c)) cols)
    in
    (* 3. Merge remaining pieces symbolically. *)
    let merged_hint =
      match pieces with
      | [] -> assert false
      | p :: rest ->
        List.fold_left (fun acc p2 -> Algebra.Product (acc, p2.hint)) p.hint rest
    in
    (* 4. Aggregate (grouped or global) or project-and-deduplicate. *)
    let source_agg =
      match env.q.Query.aggregate with
      | Some Query.Count -> Some Algebra.Count
      | Some (Query.Sum ta) -> Option.map (fun c -> Algebra.Sum c) (col_of ta)
      | None -> None
    in
    match (env.q.Query.aggregate, env.q.Query.group_by) with
    | Some _, (_ :: _ as group_by) -> begin
      match source_agg with
      | None -> Leaf (leaf_null env g_mass) (* SUM attribute unmapped *)
      | Some a ->
        let keys =
          List.sort_uniq String.compare (List.filter_map col_of group_by)
        in
        let rel = run_qs env (Algebra.GroupBy (keys, a, merged_hint)) in
        if Relation.is_empty rel then Leaf (Null_answer g_mass)
        else begin
          let getters =
            List.map (fun ta -> Option.map (Relation.col_pos rel) (col_of ta)) group_by
          in
          let agg_pos = Relation.col_pos rel (Algebra.output_col a) in
          let tuples = ref [] in
          Relation.iter
            (fun row ->
              let groups =
                List.map (function Some i -> row.(i) | None -> Value.Null) getters
              in
              tuples := Array.of_list (groups @ [ scale row.(agg_pos) ]) :: !tuples)
            rel;
          Leaf (Tuples (List.rev !tuples, g_mass))
        end
    end
    | Some Query.Count, [] ->
      let rel = run_qs env (Algebra.Aggregate (Algebra.Count, merged_hint)) in
      Leaf (Tuples ([ [| scale (Relation.value rel 0 "count") |] ], g_mass))
    | Some (Query.Sum _), [] -> begin
      match source_agg with
      | None -> Leaf (leaf_null env g_mass)
      | Some a ->
        let rel = run_qs env (Algebra.Aggregate (a, merged_hint)) in
        Leaf
          (Tuples ([ [| scale (Relation.value rel 0 (Algebra.output_col a)) |] ], g_mass))
    end
    | None, _ ->
      let outputs = Query.output_attrs env.q in
      let out_cols = List.filter_map col_of outputs in
      let proj_cols = List.sort_uniq String.compare out_cols in
      if proj_cols = [] then begin
        (* No output mapped: only (factored) emptiness matters. *)
        if Ctx.nonempty ~ctrs:env.ctrs env.ctx merged_hint then
          Leaf (Tuples ([ Array.make (List.length outputs) Value.Null ], g_mass))
        else Leaf (Null_answer g_mass)
      end
      else begin
        let projected =
          run_qs env (Algebra.Distinct (Algebra.Project (proj_cols, merged_hint)))
        in
        if Relation.is_empty projected then Leaf (Null_answer g_mass)
        else begin
          let getters =
            List.map
              (fun ta -> Option.map (Relation.col_pos projected) (col_of ta))
              outputs
          in
          (* [projected] is distinct over the mapped output columns and
             unmapped outputs are a constant Null, so tuples are distinct. *)
          let tuples = ref [] in
          Relation.iter
            (fun row ->
              let tuple =
                Array.of_list
                  (List.map (function Some i -> row.(i) | None -> Value.Null) getters)
              in
              tuples := tuple :: !tuples)
            projected;
          Leaf (Tuples (List.rev !tuples, g_mass))
        end
      end
  end

let exec_op env u op group =
  match op with
  | Query.Op_select i -> exec_select env u op i group
  | Query.Op_join i -> exec_join env u op i group
  | Query.Op_product (a1, a2) -> exec_product env u op a1 a2 group
  | Query.Op_output -> exec_output env u group

(* ------------------------------------------------------------------ *)
(* The u-trace traversal: paper Algorithm 2 (and the skeleton of
   Algorithm 4 when [emit] stops early). *)

(* Operator selection plus partition ordering for one e-unit — the prefix
   of [run_qt] before it recurses.  Exposed so the domain-parallel
   o-sharing driver can fan the root's partitions across domains while
   visiting (merging) them in exactly this order. *)
let branches env u =
  env.eunits <- env.eunits + 1;
  Urm_obs.Metrics.incr env.c_eunits;
  let op, groups = select_next env u in
  trace env "e-unit #%d (%d mappings, mass %.3f): next %a across %d partition(s)"
    (eunits_created env) (List.length u.mappings) (mass u) (Query.pp_op env.q) op
    (List.length groups);
  let groups =
    List.sort
      (fun (_, a) (_, b) ->
        Float.compare (Mapping.total_prob b) (Mapping.total_prob a))
      groups
  in
  (op, groups)

let rec run_qt env u ~emit =
  let op, groups = branches env u in
  let rec visit = function
    | [] -> true
    | (label, group) :: rest -> begin
      trace env "  partition %s: %d mapping(s), mass %.3f" label
        (List.length group) (Mapping.total_prob group);
      match exec_op env u op group with
      | Leaf l ->
        (match l with
        | Tuples (ts, m) -> trace env "  leaf: %d tuple(s), mass %.3f" (List.length ts) m
        | Null_answer m -> trace env "  leaf: θ, mass %.3f" m);
        if emit l then visit rest else false
      | Child c -> if run_qt env c ~emit then visit rest else false
    end
  in
  visit groups
