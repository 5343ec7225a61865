type failure =
  | Error_reply of string
  | Refused
  | Transport of string
  | Mismatch of string

type outcome = Done of float | Failed of failure

let failure_of_code = function
  | "busy" -> Refused
  | "transport" -> Transport "transport"
  | code -> Error_reply code

let failure_name = function
  | Error_reply code -> "error:" ^ code
  | Refused -> "refused"
  | Transport m -> "transport:" ^ m
  | Mismatch m -> "mismatch:" ^ m

let latencies =
  List.map (function Done s -> s | Failed _ -> Float.infinity)

type counts = { attempted : int; failed : int }

let count outcomes =
  List.fold_left
    (fun c o ->
      {
        attempted = c.attempted + 1;
        failed = (match o with Done _ -> c.failed | Failed _ -> c.failed + 1);
      })
    { attempted = 0; failed = 0 }
    outcomes

let error_rate c =
  if c.attempted = 0 then 0. else float_of_int c.failed /. float_of_int c.attempted

let sorted xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  a

let median xs =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then invalid_arg "Stats.median: no samples";
  if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

type tail = { value : float; percentile : float; beyond : int }

let tail xs =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then invalid_arg "Stats.tail: no samples";
  if n < 20 then { value = a.(n - 1); percentile = 100.; beyond = 0 }
  else
    {
      value = a.(n - 11);
      percentile = 100. *. float_of_int (n - 10) /. float_of_int n;
      beyond = 10;
    }
