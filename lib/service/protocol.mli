(** The service wire protocol: newline-delimited JSON over a loopback TCP
    socket, or the same JSON documents inside the binary framing of
    {!Frame} (a connection negotiates by its first byte; ND-JSON is the
    fallback, so [urm request] keeps working against any server).

    One request per line, one reply per line.  A request is
    [{"id": <any>, "op": "<name>", "params": {…}}]; the reply echoes the
    id and is either [{"id", "ok": true, "result": …}] or
    [{"id", "ok": false, "error": {"code", "message"}}].  Replies to
    pipelined requests may arrive out of request order (workers complete
    independently); the id is the correlation handle.

    Operations and their parameters are documented in DESIGN.md
    ("Query service"). *)

module Json = Urm_util.Json

type request = {
  id : Json.t;  (** echoed verbatim; [Null] when the client sent none *)
  op : string;
  params : Json.t;  (** an object, or [Null] when omitted *)
}

(** {1 Requests} *)

(** [request ?id ~op params] builds a request value (client side). *)
val request : ?id:Json.t -> op:string -> (string * Json.t) list -> Json.t

(** [parse_request line] — [Error] describes the malformation. *)
val parse_request : string -> (request, string) result

(** Parameter accessors: [None] when absent; [Error] mentions of a present
    but ill-typed parameter are reported as [Failure] by the raw [Json]
    accessors, which the server maps to a [bad_request] reply. *)

val param : request -> string -> Json.t option
val str_param : request -> string -> string option
val int_param : request -> string -> int option
val float_param : request -> string -> float option

(** {1 Replies} *)

(** [ok ~id result] serialised reply line (without the newline). *)
val ok : id:Json.t -> Json.t -> string

(** [error ~id ~code message] — codes in use: [bad_request], [busy],
    [not_found], [conflict], [unavailable], [error], and (from the shard
    router) [shard_unavailable] when a worker process died and its
    replacement was not ready in time. *)
val error : id:Json.t -> code:string -> string -> string

type reply =
  | Ok of Json.t * Json.t  (** id, result *)
  | Err of Json.t * string * string  (** id, code, message *)

val parse_reply : string -> (reply, string) result

(** {1 Values} *)

(** Relational values on the wire: [Null] ↦ JSON null, numbers ↦ numbers,
    strings ↦ strings (ints survive a round-trip exactly; [to_value]
    reads integral numbers back as [Int]). *)

val value_to_json : Urm_relalg.Value.t -> Json.t

val value_of_json : Json.t -> Urm_relalg.Value.t

(** {1 Partial answers}

    The shard fan-out's reply format (DESIGN.md "Sharded service &
    binary framing").  A reply carries [tuples], a dictionary of its
    distinct tuples in first-seen order, and [partials], one part per
    mapping (or e-unit) in ascending order:
    [{key: i, "groups": [[p, [index, …]], …], "null_prob": θ}], where each
    group lists the dictionary indices of the part's tuples whose
    probability is exactly [p]. *)

(** [encode_partials ~output ~key ~lo ~hi eval] the [tuples] and
    [partials] fields of a reply over parts [lo, hi): [eval i] is part
    [i]'s answer (called once per part, in ascending order, and not kept),
    and each part is labelled [key: i]. *)
val encode_partials :
  output:string list ->
  key:string ->
  lo:int ->
  hi:int ->
  (int -> Urm.Answer.t) ->
  (string * Json.t) list

(** [merge_partials answer reply] replays [reply]'s parts into [answer] in
    order: each dictionary tuple is decoded once, its first contribution
    goes through {!Urm.Answer.add_id} and later ones through
    {!Urm.Answer.bump} — the same float additions, in the same order, as
    one {!Urm.Answer.add} per (part, tuple).  Raises [Failure] on a
    malformed reply. *)
val merge_partials : Urm.Answer.t -> Json.t -> unit
