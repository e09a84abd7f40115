(* In-memory span recorder for the traced run.  The driver opens a span
   around each call it makes into a layer's public function; spans are
   kept in memory and written out when the run ends.  Recording is off
   in the untraced run, where [span] is one branch. *)

type span = {
  id : int;
  name : string;
  parent : int;          (* enclosing span id, -1 for a root *)
  req : int;             (* request id shared by the spans of one request *)
  t0 : float;
  mutable t1 : float;
  mutable child_s : float; (* time covered by direct children *)
}

let on = ref false
let recorded : span list ref = ref []  (* newest first *)
let stack : span list ref = ref []
let next_id = ref 0
let next_req = ref 0
let cur_req = ref 0

let now = Unix.gettimeofday

(** Run [f] as one request: spans opened inside share its id. *)
let request f =
  incr next_req;
  let saved = !cur_req in
  cur_req := !next_req;
  Fun.protect ~finally:(fun () -> cur_req := saved) f

let span name f =
  if not !on then f ()
  else begin
    let parent = match !stack with p :: _ -> p.id | [] -> -1 in
    let s =
      { id = !next_id; name; parent; req = !cur_req; t0 = now ();
        t1 = nan; child_s = 0.0 }
    in
    incr next_id;
    stack := s :: !stack;
    Fun.protect
      ~finally:(fun () ->
        s.t1 <- now ();
        stack := List.tl !stack;
        (match !stack with
         | p :: _ -> p.child_s <- p.child_s +. (s.t1 -. s.t0)
         | [] -> ());
        recorded := s :: !recorded)
      f
  end

(** Duration minus the time its child spans cover (one thread, so
    children never overlap). *)
let self_s s = s.t1 -. s.t0 -. s.child_s

(** Self times in seconds of every recorded span called [name]. *)
let self_times name =
  List.filter_map
    (fun s -> if s.name = name then Some (self_s s) else None)
    !recorded

let to_json () =
  Json.List
    (List.rev_map
       (fun s ->
         Json.Obj
           [ ("id", Json.Int s.id); ("name", Json.Str s.name);
             ("parent", Json.Int s.parent); ("req", Json.Int s.req);
             ("start_us", Json.Float (s.t0 *. 1e6));
             ("end_us", Json.Float (s.t1 *. 1e6));
             ("self_us", Json.Float (self_s s *. 1e6)) ])
       !recorded)
