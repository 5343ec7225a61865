type span = {
  id : int;
  name : string;
  parent : int option;
  req : int;
  start : float;
  stop : float;
}

type t = {
  lock : Mutex.t;
  mutable next : int;
  mutable done_ : span list;
  names : (int, string) Hashtbl.t;  (* renames, applied by [spans] *)
}

let create () =
  { lock = Mutex.create (); next = 0; done_ = []; names = Hashtbl.create 16 }

let locked t f =
  Mutex.lock t.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.lock) f

let with_span tr ?parent ~req name f =
  match tr with
  | None -> f (-1)
  | Some t ->
    let id =
      locked t (fun () ->
          let id = t.next in
          t.next <- id + 1;
          id)
    in
    let start = Unix.gettimeofday () in
    let close () =
      let stop = Unix.gettimeofday () in
      locked t (fun () ->
          t.done_ <- { id; name; parent; req; start; stop } :: t.done_)
    in
    Fun.protect ~finally:close (fun () -> f id)

let rename tr id name =
  match tr with
  | None -> ()
  | Some t -> locked t (fun () -> Hashtbl.replace t.names id name)

let spans t =
  locked t (fun () ->
      List.rev_map
        (fun s ->
          match Hashtbl.find_opt t.names s.id with
          | Some name -> { s with name }
          | None -> s)
        t.done_)

(* Length of the union of [intervals] clipped to [lo, hi]. *)
let covered lo hi intervals =
  let clipped =
    List.filter_map
      (fun (a, b) ->
        let a = Float.max lo a and b = Float.min hi b in
        if b > a then Some (a, b) else None)
      intervals
  in
  let sorted = List.sort compare clipped in
  let total, last =
    List.fold_left
      (fun (total, cur) (a, b) ->
        match cur with
        | None -> (total, Some (a, b))
        | Some (ca, cb) ->
          if a <= cb then (total, Some (ca, Float.max cb b))
          else (total +. (cb -. ca), Some (a, b)))
      (0., None) sorted
  in
  match last with None -> total | Some (a, b) -> total +. (b -. a)

let children_of spans =
  let kids = Hashtbl.create 64 in
  List.iter
    (fun s ->
      match s.parent with
      | Some p -> Hashtbl.replace kids p (s :: Option.value ~default:[] (Hashtbl.find_opt kids p))
      | None -> ())
    spans;
  kids

let self_times spans =
  let kids = children_of spans in
  let self = Hashtbl.create 64 in
  List.iter
    (fun s ->
      let cs = Option.value ~default:[] (Hashtbl.find_opt kids s.id) in
      let cover = covered s.start s.stop (List.map (fun c -> (c.start, c.stop)) cs) in
      Hashtbl.replace self s.id (s.stop -. s.start -. cover))
    spans;
  self

(* The selected roots and every span below them. *)
let trees spans ~roots =
  let kids = children_of spans in
  let rec walk acc s =
    List.fold_left walk (s :: acc)
      (Option.value ~default:[] (Hashtbl.find_opt kids s.id))
  in
  List.fold_left walk [] (List.filter (fun s -> s.parent = None && roots s) spans)

let by_name spans ~roots =
  let self = self_times spans in
  let sums = Hashtbl.create 16 in
  List.iter
    (fun s ->
      let prev = Option.value ~default:0. (Hashtbl.find_opt sums s.name) in
      Hashtbl.replace sums s.name (prev +. Hashtbl.find self s.id))
    (trees spans ~roots);
  List.sort compare (Hashtbl.fold (fun k v acc -> (k, v) :: acc) sums [])

let unattributed_share spans ~roots =
  let self = self_times spans in
  let wall, attributed =
    List.fold_left
      (fun (wall, attr) s ->
        if s.parent = None then (wall +. (s.stop -. s.start), attr)
        else (wall, attr +. Hashtbl.find self s.id))
      (0., 0.) (trees spans ~roots)
  in
  if wall <= 0. then 0. else 1. -. (attributed /. wall)

let write path spans =
  let module Json = Urm_util.Json in
  let oc = open_out path in
  List.iter
    (fun s ->
      output_string oc
        (Json.to_string
           (Json.Obj
              [
                ("id", Json.Num (float_of_int s.id));
                ("name", Json.Str s.name);
                ( "parent",
                  match s.parent with
                  | Some p -> Json.Num (float_of_int p)
                  | None -> Json.Null );
                ("req", Json.Num (float_of_int s.req));
                ("start", Json.Num s.start);
                ("stop", Json.Num s.stop);
              ]));
      output_char oc '\n')
    spans;
  close_out oc
