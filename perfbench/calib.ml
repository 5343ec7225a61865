(* The kernel touches only a preallocated int array and locals, so it
   allocates nothing: the collector never runs inside it, and no change to
   the program or to its heap can change what it does. *)

let size = 1 lsl 20 (* 8 MB of ints *)
let buf = lazy (Array.make size 0)

let kernel () =
  let a = Lazy.force buf in
  let mask = size - 1 in
  let x = ref 88172645463325252 and acc = ref 0 in
  for i = 1 to 250_000 do
    (* xorshift, then a step of the walk *)
    x := !x lxor (!x lsl 13);
    x := !x lxor (!x lsr 7);
    x := !x lxor (!x lsl 17);
    let j = !x land mask in
    acc := !acc + a.(j) + (i * 31);
    a.(j) <- !acc land 0xffff
  done;
  ignore (Sys.opaque_identity !acc)

let reference = 0.004

let sample () =
  let runs =
    List.init 5 (fun _ ->
        let t0 = Unix.gettimeofday () in
        kernel ();
        Unix.gettimeofday () -. t0)
  in
  Stats.median runs
let factor ~before ~after = Float.sqrt (reference /. ((before +. after) /. 2.))

let time f =
  let before = sample () in
  let t0 = Unix.gettimeofday () in
  let r = f () in
  let wall = Unix.gettimeofday () -. t0 in
  let after = sample () in
  (r, wall, wall *. factor ~before ~after, [ before; after ])
