(** Spans recorded by the benchmark around its calls into the system.

    A span has a name, a start and an end, the span that caused it and the
    id of the request it belongs to.  Spans stay in memory until the run
    writes them out.  Recording is thread-safe; the parent is passed
    explicitly, so concurrent client threads never confuse their trees. *)

type span = {
  id : int;
  name : string;
  parent : int option;
  req : int;
  start : float;
  stop : float;
}

type t

val create : unit -> t

(** [with_span tr ?parent ~req name f] runs [f id] inside a new span and
    records it when [f] returns or raises.  With [tr = None] it just runs
    [f] (with a dummy id): the untraced path costs one match. *)
val with_span :
  t option -> ?parent:int -> req:int -> string -> (int -> 'a) -> 'a

(** [rename tr id name] renames a span — for a client request whose layer
    is known only from its reply. *)
val rename : t option -> int -> string -> unit

(** All recorded spans, in order of completion. *)
val spans : t -> span list

(** [self_times spans] per span id, its duration minus the part of its
    interval that its children cover (children overlapping each other
    count once; parts outside the parent are ignored). *)
val self_times : span list -> (int, float) Hashtbl.t

(** [by_name spans ~roots] the summed self time of every span name in the
    trees under the roots satisfying [roots], sorted by name. *)
val by_name : span list -> roots:(span -> bool) -> (string * float) list

(** [unattributed_share spans ~roots] 1 − (summed self time of the
    non-root spans under the selected roots ÷ summed duration of those
    roots): the share of the measured wall time that no layer span
    explains.  [0.] when no root was selected. *)
val unattributed_share : span list -> roots:(span -> bool) -> float

(** One JSON object per line. *)
val write : string -> span list -> unit
