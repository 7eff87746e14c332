(* Benchmark-side tracing. A span is recorded around each call the
   benchmark makes into a layer of the program; spans of one operation
   share a request id. Spans stay in memory and are written as JSON
   lines when the run ends. Nothing here reaches inside the libraries:
   the layer's own counters come from [Instr]. *)

type t = {
  id : int;
  parent : int;  (** 0 = root *)
  req : int;  (** operation (request) id; 0 = outside any operation *)
  name : string;
  layer : string;
  t0 : float;
  t1 : float;
}

let on = ref false
let next_id = Atomic.make 1
let lock = Mutex.create ()
let recorded : t list ref = ref []

(* the enclosing span and request on this domain *)
let current = Domain.DLS.new_key (fun () -> 0)
let request = Domain.DLS.new_key (fun () -> 0)

let record ~layer name f =
  if not !on then f ()
  else begin
    let id = Atomic.fetch_and_add next_id 1 in
    let parent = Domain.DLS.get current in
    Domain.DLS.set current id;
    let t0 = Unix.gettimeofday () in
    Fun.protect
      ~finally:(fun () ->
        let t1 = Unix.gettimeofday () in
        Domain.DLS.set current parent;
        let s =
          { id; parent; req = Domain.DLS.get request; name; layer; t0; t1 }
        in
        Mutex.protect lock (fun () -> recorded := s :: !recorded))
      f
  end

(* the innermost open span on this domain *)
let top () = Domain.DLS.get current

(* run [f] as operation [req] under span [parent]: a job running on a
   worker domain hangs under the pool span opened on the main domain *)
let in_request ~parent ~req f =
  let saved_cur = Domain.DLS.get current and saved_req = Domain.DLS.get request in
  Domain.DLS.set current parent;
  Domain.DLS.set request req;
  Fun.protect
    ~finally:(fun () ->
      Domain.DLS.set current saved_cur;
      Domain.DLS.set request saved_req)
    f

(* self time: a span's duration minus the union of its children's
   intervals (children of a pool span run on several domains at once
   and may overlap) *)
let self_times spans =
  let children = Hashtbl.create 1024 in
  List.iter
    (fun s -> if s.parent <> 0 then Hashtbl.add children s.parent s)
    spans;
  let covered s =
    let kids =
      Hashtbl.find_all children s.id
      |> List.map (fun c -> (Float.max s.t0 c.t0, Float.min s.t1 c.t1))
      |> List.sort compare
    in
    fst
      (List.fold_left
         (fun (acc, hi) (a, b) ->
           let a = Float.max a hi in
           if b > a then (acc +. (b -. a), b) else (acc, hi))
         (0., neg_infinity) kids)
  in
  let by_layer = Hashtbl.create 16 in
  List.iter
    (fun s ->
      let self = Float.max 0. (s.t1 -. s.t0 -. covered s) in
      let prev = Option.value (Hashtbl.find_opt by_layer s.layer) ~default:0. in
      Hashtbl.replace by_layer s.layer (prev +. self))
    spans;
  Hashtbl.fold (fun l v acc -> (l, v *. 1000.) :: acc) by_layer []
  |> List.sort compare

let json_string s =
  let b = Buffer.create (String.length s + 2) in
  Buffer.add_char b '"';
  String.iter
    (function
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | c when Char.code c < 0x20 -> Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"';
  Buffer.contents b

let write path spans =
  let base = List.fold_left (fun acc s -> Float.min acc s.t0) infinity spans in
  let oc = open_out path in
  List.iter
    (fun s ->
      Printf.fprintf oc
        "{\"id\":%d,\"parent\":%d,\"req\":%d,\"name\":%s,\"layer\":%s,\"start_us\":%.1f,\"end_us\":%.1f}\n"
        s.id s.parent s.req (json_string s.name) (json_string s.layer)
        ((s.t0 -. base) *. 1e6) ((s.t1 -. base) *. 1e6))
    (List.sort (fun a b -> compare a.id b.id) spans);
  close_out oc
