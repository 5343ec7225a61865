(** Machine-speed calibration.

    The benchmark runs on shared machines whose speed drifts as other
    tenants come and go: on a 2-core cloud box a fixed loop took 0.13 s in
    one minute and 0.20 s in another, so plain wall times of the same code
    spread between runs as much as the machine does.  The benchmark
    therefore times a fixed kernel right before and right after each timed
    stretch (one evaluation, one service round, one router cycle, one
    set-up) and reports the stretch in calibrated seconds:

    [calibrated = wall *. sqrt (reference /. mean (kernel before, kernel after))]

    The square root is measured: across runs minutes apart the program's
    times moved about as the square root of the kernel's, and the full
    ratio over-corrected (perfbench/WORKLOADS.md).

    The kernel, a random walk over 8 MB, uses the standard library only
    and allocates nothing, so no change to the program or to its heap
    changes its time: a change to the program moves calibrated times as it
    moves wall time on a machine of steady speed. *)

(** Seconds the kernel takes on the reference machine. *)
val reference : float

(** [sample ()] the kernel's time now: the median of five back-to-back
    runs of about 4 ms each. *)
val sample : unit -> float

(** [factor ~before ~after] is [sqrt (reference /. ((before +. after) /. 2.))]:
    multiply the wall time of a stretch between kernel samples [before]
    and [after] by it to get calibrated seconds. *)
val factor : before:float -> after:float -> float

(** [time f] runs [f] between two samples and returns its result, its
    wall time, its calibrated time and the two samples. *)
val time : (unit -> 'a) -> 'a * float * float * float list
