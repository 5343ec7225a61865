module Json = Urm_util.Json

type request = { id : Json.t; op : string; params : Json.t }

let request ?(id = Json.Null) ~op params =
  Json.Obj [ ("id", id); ("op", Json.Str op); ("params", Json.Obj params) ]

let parse_request line =
  match Json.parse line with
  | Error msg -> Error msg
  | Ok json -> (
    match json with
    | Json.Obj _ -> (
      let id = Option.value ~default:Json.Null (Json.member "id" json) in
      let params = Option.value ~default:Json.Null (Json.member "params" json) in
      match Json.member "op" json with
      | Some (Json.Str op) when op <> "" -> Ok { id; op; params }
      | Some _ -> Error "\"op\" must be a non-empty string"
      | None -> Error "missing \"op\"")
    | _ -> Error "request must be a JSON object")

let param req name = Json.member name req.params

let str_param req name =
  Option.map Json.to_str (param req name)

let int_param req name =
  Option.map Json.to_int (param req name)

let float_param req name =
  Option.map Json.to_float (param req name)

(* ------------------------------------------------------------------ *)

let ok ~id result =
  Json.to_string (Json.Obj [ ("id", id); ("ok", Json.Bool true); ("result", result) ])

let error ~id ~code message =
  Json.to_string
    (Json.Obj
       [
         ("id", id);
         ("ok", Json.Bool false);
         ("error", Json.Obj [ ("code", Json.Str code); ("message", Json.Str message) ]);
       ])

type reply =
  | Ok of Json.t * Json.t
  | Err of Json.t * string * string

let parse_reply line =
  match Json.parse line with
  | Error msg -> Stdlib.Error msg
  | Stdlib.Ok json -> (
    let id = Option.value ~default:Json.Null (Json.member "id" json) in
    match Json.member "ok" json with
    | Some (Json.Bool true) ->
      Stdlib.Ok (Ok (id, Option.value ~default:Json.Null (Json.member "result" json)))
    | Some (Json.Bool false) -> (
      match Json.member "error" json with
      | Some err ->
        let field n =
          match Json.member n err with Some (Json.Str s) -> s | _ -> ""
        in
        Stdlib.Ok (Err (id, field "code", field "message"))
      | None -> Stdlib.Ok (Err (id, "error", "unspecified error")))
    | _ -> Stdlib.Error "reply must carry a boolean \"ok\"")

(* ------------------------------------------------------------------ *)

let value_to_json = function
  | Urm_relalg.Value.Null -> Json.Null
  | Urm_relalg.Value.Int i -> Json.Num (float_of_int i)
  | Urm_relalg.Value.Float f -> Json.Num f
  | Urm_relalg.Value.Str s -> Json.Str s

let value_of_json = function
  | Json.Null -> Urm_relalg.Value.Null
  | Json.Num f when Float.is_integer f && Float.abs f < 1e15 ->
    Urm_relalg.Value.Int (int_of_float f)
  | Json.Num f -> Urm_relalg.Value.Float f
  | Json.Str s -> Urm_relalg.Value.Str s
  | _ -> failwith "Protocol.value_of_json: not a scalar"

(* ------------------------------------------------------------------ *)
(* Partial answers *)

let encode_partials ~output ~key ~lo ~hi eval =
  (* The dictionary interns tuples in an answer table: [add_id] hands out
     dense insertion indices, i.e. first-seen order, under exactly the
     bucket identity of the parts themselves. *)
  let dict = Urm.Answer.create output in
  let seen = ref [] in
  let index tuple =
    let n = Urm.Answer.size dict in
    let i = Urm.Answer.add_id dict tuple 0. in
    if Urm.Answer.size dict > n then seen := tuple :: !seen;
    Json.Num (float_of_int i)
  in
  let part i =
    let acc = eval i in
    (* Groups keyed by the probability's bits, in first-seen order. *)
    let groups = Hashtbl.create 8 and order = ref [] in
    Urm.Answer.iter
      (fun tuple p ->
        let bits = Int64.bits_of_float p in
        let ids =
          match Hashtbl.find_opt groups bits with
          | Some ids -> ids
          | None ->
            let ids = ref [] in
            Hashtbl.add groups bits ids;
            order := (p, ids) :: !order;
            ids
        in
        ids := index tuple :: !ids)
      acc;
    Json.Obj
      [
        (key, Json.Num (float_of_int i));
        ( "groups",
          Json.Arr
            (List.rev_map
               (fun (p, ids) -> Json.Arr [ Json.Num p; Json.Arr (List.rev !ids) ])
               !order) );
        ("null_prob", Json.Num (Urm.Answer.null_prob acc));
      ]
  in
  let parts = List.init (hi - lo) (fun j -> part (lo + j)) in
  [
    ( "tuples",
      Json.Arr
        (List.rev_map
           (fun t -> Json.Arr (Array.to_list (Array.map value_to_json t)))
           !seen) );
    ("partials", Json.Arr parts);
  ]

let merge_partials answer reply =
  let malformed what = failwith ("malformed partial reply: " ^ what) in
  let tuples =
    match Json.member "tuples" reply with
    | Some (Json.Arr ts) ->
      Array.of_list
        (List.map
           (function
             | Json.Arr vs -> Array.of_list (List.map value_of_json vs)
             | _ -> malformed "tuple is not an array")
           ts)
    | _ -> malformed "no tuple dictionary"
  in
  (* Dictionary index → bucket id, bound on the index's first
     contribution. *)
  let ids = Array.make (Array.length tuples) (-1) in
  let contribute p = function
    | Json.Num f
      when Float.is_integer f && f >= 0. && f < float_of_int (Array.length tuples)
      ->
      let i = int_of_float f in
      if ids.(i) < 0 then ids.(i) <- Urm.Answer.add_id answer tuples.(i) p
      else Urm.Answer.bump answer ids.(i) p
    | _ -> malformed "bad tuple index"
  in
  match Json.member "partials" reply with
  | Some (Json.Arr parts) ->
    List.iter
      (fun part ->
        (match Json.member "groups" part with
        | Some (Json.Arr groups) ->
          List.iter
            (function
              | Json.Arr [ Json.Num p; Json.Arr idxs ] -> List.iter (contribute p) idxs
              | _ -> malformed "bad group")
            groups
        | _ -> malformed "part without groups");
        match Json.member "null_prob" part with
        | Some (Json.Num p) -> Urm.Answer.add_null answer p
        | _ -> malformed "part without null_prob")
      parts
  | _ -> malformed "no partials"
