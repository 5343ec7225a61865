(** The benchmark's own arithmetic: latency summaries and failure
    accounting.

    A failed operation has no latency: it enters every latency summary as
    [infinity], so it counts as missing any latency limit and pushes the
    percentiles up instead of silently dropping out of them. *)

(** Why an attempted operation failed. *)
type failure =
  | Error_reply of string  (** the server answered with this error code *)
  | Refused  (** a [busy] admission refusal *)
  | Transport of string  (** the exchange itself broke *)
  | Mismatch of string  (** the answer disagreed with the reference *)

type outcome = Done of float  (** latency, seconds *) | Failed of failure

(** [failure_of_code code] classifies an error reply's code: ["busy"] is
    a refusal, ["transport"] a transport error, anything else an error
    reply. *)
val failure_of_code : string -> failure

val failure_name : failure -> string

(** Latencies with failures as [infinity], in input order: a failed
    operation misses every latency limit. *)
val latencies : outcome list -> float list

type counts = { attempted : int; failed : int }

val count : outcome list -> counts

(** [failed / attempted]; [0.] when nothing was attempted. *)
val error_rate : counts -> float

(** Median: the middle sample, or the mean of the two middle samples of an
    even count.  Raises [Invalid_argument] on an empty list. *)
val median : float list -> float

type tail = {
  value : float;
  percentile : float;  (** in [50, 100] *)
  beyond : int;  (** samples strictly after it in sorted order *)
}

(** [tail samples] the highest percentile, from the median up, with at
    least ten samples beyond it: the eleventh-largest sample, at
    percentile [100 (n - 10) / n].  With fewer than twenty samples even the
    median has fewer than ten beyond it, and the maximum is reported with
    [beyond = 0].  Raises [Invalid_argument] on an empty list. *)
val tail : float list -> tail
