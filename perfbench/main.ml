(* The benchmark: three closed-loop workloads over the public entry
   points of the libraries (Xqse.Session, Aldsp.Dataspace,
   Server.Pool), one per user of the system.

     main.exe --workload lookup|scripts|serve --seed N --seconds S --trace 0|1
     main.exe scale

   With --trace 0 the last line of standard output is a JSON object with
   the end-to-end metrics; with --trace 1 it holds the per-layer metrics
   of a traced run (rounds alternate traced and untraced, so the ratio
   of their rates is the tracing overhead) and the spans are written to
   perfbench/traces/. [scale] prints the work counters of one lookup at
   N and 4N customers and of one path step at k and 4k children. Every
   input is generated from the seed; outputs are checked against a
   model built from the same seed or from the source rows. *)

open Core
open Core.Xdm
module R = Relational
module FC = Fixtures.Customer_profile
module FE = Fixtures.Employees
module Det = Fixtures.Det
module Pool = Server.Pool

let now = Unix.gettimeofday

(* ------------------------------------------------------------------ *)
(* Statistics                                                           *)
(* ------------------------------------------------------------------ *)

let sorted l =
  let a = Array.of_list l in
  Array.sort compare a;
  a

let pct l q = Pool.percentile (sorted l) q
let median l = pct l 50.
let mean l = match l with [] -> 0. | _ -> List.fold_left ( +. ) 0. l /. float_of_int (List.length l)

let alloc_words () =
  let s = Gc.quick_stat () in
  s.Gc.minor_words +. s.Gc.major_words -. s.Gc.promoted_words

let word_bytes = float_of_int (Sys.word_size / 8)

(* ------------------------------------------------------------------ *)
(* Output checks                                                        *)
(* ------------------------------------------------------------------ *)

let check_lock = Mutex.create ()
let check_failures = ref 0
let check_notes = ref []

let expect ok fmt =
  Printf.ksprintf
    (fun msg ->
      if not ok then
        Mutex.protect check_lock (fun () ->
            incr check_failures;
            if List.length !check_notes < 8 then check_notes := msg :: !check_notes))
    fmt

let local n = match Node.name n with Some q -> q.Qname.local | None -> ""

let kids name n =
  List.filter
    (fun c -> Node.kind c = Node.Element && local c = name)
    (Node.children n)

let rec walk names n =
  match names with
  | [] -> [ n ]
  | name :: rest -> List.concat_map (walk rest) (kids name n)

let text names n =
  match walk names n with c :: _ -> Node.string_value c | [] -> ""

let texts names n = List.map Node.string_value (walk names n)
let nodes = Item.nodes_only
let str_of_value = function R.Value.Text s -> s | v -> R.Value.to_string v

(* ------------------------------------------------------------------ *)
(* Workload plumbing                                                    *)
(* ------------------------------------------------------------------ *)

(* one operation: [call] is the client's request (timed), [check]
   verifies its reply against the model (untimed) *)
type op = {
  kind : Pool.kind;
  label : string;
  call : Xqse.Session.t -> Item.seq;
  check : Item.seq -> unit;
}

type inst = {
  template : Xqse.Session.t;  (** the session the pool forks *)
  workers : int;
  batch : int;
      (** operations per [Pool.run] call; each call follows one
          calibration kernel sample and its times are scaled by it *)
  prefix_rounds : int;
      (** a fixed amount of work, so that figures which grow with the
          work done compare across runs of any speed: the heap peak is
          taken over set-up and the first [prefix_rounds] rounds, and
          the traced counters over the traced rounds among them *)
  round : int -> op array;  (** round [r]'s operations, a function of the seed *)
  final_check : unit -> unit;
  probes : unit -> unit;  (** traced runs only: drive the layers the workload bypasses *)
  tables : R.Table.t list;  (** the dataspace's source tables *)
  xa_dbs : R.Database.t list;
  ws : Webservice.t;
  compile_ms : float list;  (** one cold compile per program text *)
}

(* The dataspaces are built from one fixed data seed, so every run
   measures the same rows: with the fixture's seeded order and card
   counts the work per lookup would otherwise move by several percent
   from seed to seed. The run's --seed drives the operation stream:
   keys, parameters, mixes and their order. *)
let data_seed = 42

let rng_for seed r = Det.make (Hashtbl.hash (seed, r, 0x5eed))

let shuffle rng a =
  for i = Array.length a - 1 downto 1 do
    let j = Det.int rng (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  a

let var name v = (Qname.local name, v)

let run_prog ?(vars = []) prog =
  Span.record ~layer:"xqse" "Session.run" (fun () ->
      Xqse.Session.run ~opts:{ Xqse.Session.default_exec_opts with vars } prog)

let compile_all sess texts =
  List.map
    (fun t ->
      let t0 = now () in
      let c = Xqse.Session.compile sess t in
      (c, (now () -. t0) *. 1000.))
    texts

let get_profile env cid =
  Span.record ~layer:"aldsp" "Dataspace.get" (fun () -> FC.get_profile_by_id env cid)

let submit ds svc dg =
  Span.record ~layer:"aldsp" "Dataspace.submit" (fun () ->
      Aldsp.Dataspace.submit ds svc dg)

(* the Figure 3 model, read straight from the source tables *)
type customer = {
  c_first : string;
  c_last : string;
  c_oids : string list;
  c_open : int;  (** orders with STATUS = OPEN *)
  c_ccids : string list;  (** in CCID (scan) order *)
  c_brand : string;  (** brand of the first card, "" when none *)
}

let customer_model (env : FC.env) =
  let m = Hashtbl.create 128 in
  List.iter
    (fun row ->
      let g c = str_of_value (R.Table.get row env.customer c) in
      Hashtbl.replace m (g "CID")
        { c_first = g "FIRST_NAME"; c_last = g "LAST_NAME"; c_oids = []; c_open = 0;
          c_ccids = []; c_brand = "" })
    (R.Table.scan env.customer);
  let update cid f = Hashtbl.replace m cid (f (Hashtbl.find m cid)) in
  List.iter
    (fun row ->
      let g c = str_of_value (R.Table.get row env.orders c) in
      update (g "CID") (fun c ->
          { c with c_oids = c.c_oids @ [ g "OID" ];
                   c_open = (c.c_open + if g "STATUS" = "OPEN" then 1 else 0) }))
    (R.Table.scan env.orders);
  List.iter
    (fun row ->
      let g c = str_of_value (R.Table.get row env.credit_card c) in
      update (g "CID") (fun c ->
          { c with c_ccids = c.c_ccids @ [ g "CCID" ];
                   c_brand = (if c.c_brand = "" then g "CC_BRAND" else c.c_brand) }))
    (R.Table.scan env.credit_card);
  m

let check_profile model cid p =
  let c = Hashtbl.find model cid in
  expect (text [ "CID" ] p = cid) "profile %s: CID %s" cid (text [ "CID" ] p);
  expect (text [ "FIRST_NAME" ] p = c.c_first) "profile %s: first name" cid;
  expect (text [ "LAST_NAME" ] p = c.c_last) "profile %s: last name" cid;
  expect (texts [ "Orders"; "ORDERS"; "OID" ] p = c.c_oids) "profile %s: order ids" cid;
  expect (texts [ "CreditCards"; "CREDIT_CARD"; "CCID" ] p = c.c_ccids) "profile %s: card ids" cid

let all_customer_ids model =
  Hashtbl.fold (fun cid _ acc -> cid :: acc) model [] |> List.sort compare |> Array.of_list

(* ------------------------------------------------------------------ *)
(* Workload: lookup                                                     *)
(* ------------------------------------------------------------------ *)

let lookup_customers = 100
let lookup_per_round = 4

let lookup_text =
  "declare variable $cid as xs:string external; profile:getProfileById($cid)"

let setup_lookup ~seed ~instr =
  let env = FC.make ~customers:lookup_customers ~seed:data_seed ~instr () in
  let sess = Aldsp.Dataspace.session env.ds in
  let compiled = compile_all sess [ lookup_text ] in
  let prog = fst (List.hd compiled) in
  let model = customer_model env in
  let cids = all_customer_ids model in
  let round r =
    let rng = rng_for seed r in
    Array.init lookup_per_round (fun _ ->
        let cid = cids.(Det.int rng (Array.length cids)) in
        {
          kind = Pool.Read;
          label = "getProfileById";
          call = (fun _ -> run_prog ~vars:[ var "cid" (Item.str cid) ] prog);
          check =
            (fun res ->
              match nodes res with
              | [ p ] -> check_profile model cid p
              | l -> expect false "getProfileById(%s): %d profiles" cid (List.length l));
        })
  in
  let probes () =
    (* the SDO read/submit path the workload does not take: rename the
       Figure 4 customer and rename it back *)
    for _ = 1 to 2 do
      List.iter
        (fun name ->
          let dg = get_profile env "007" in
          Sdo.set_leaf dg 1 [ ("LAST_NAME", 1) ] name;
          let r = submit env.ds env.svc dg in
          expect r.Aldsp.Dataspace.sr_committed "probe submit")
        [ "Probe"; "Carrey" ]
    done
  in
  let tables = [ env.customer; env.orders; env.credit_card ] in
  {
    template = sess;
    workers = 1;
    batch = 1;
    prefix_rounds = 100;
    round;
    final_check = ignore;
    probes;
    tables;
    xa_dbs = [ env.db1; env.db2 ];
    ws = env.ws;
    compile_ms = List.map snd compiled;
  }

(* ------------------------------------------------------------------ *)
(* Workload: scripts                                                    *)
(* ------------------------------------------------------------------ *)

let employees = 60
let chains_per_op = 12
let pairs_per_op = 40
let sweep_width = 1000
let loop_min = 40000

let chain_text =
  {|declare variable $ids external;
for $id in $ids
return <c>{fn:string-join(
  for $e in uc:getManagementChain($id) return fn:string($e/EmployeeID), ' ')}</c>|}

let copy_text =
  {|{
  declare $n as xs:integer := 0;
  declare $rows := ();
  set $n := uc:copyAllToEMP2();
  set $rows := emp2:EMP2();
  emp2:deleteEMP2($rows);
  return value (<n>{$n}</n>, $rows);
}|}

let pairs_text =
  {|declare variable $ids external;
{
  declare $keys := ();
  iterate $id over $ids {
    declare $key := ();
    set $key := uc:create(<ens1:Employee>
      <EmployeeID>{$id}</EmployeeID>
      <Name>New Hire</Name>
      <DeptNo>10</DeptNo>
      <ManagerID>1</ManagerID>
      <Salary>50000</Salary>
    </ens1:Employee>);
    set $keys := ($keys, $key);
    uc:deleteByEmployeeID($id);
    emp2:deleteEMP2(for $r in emp2:EMP2() where $r/EMP_ID = $id return $r);
  }
  return value (<keys>{fn:string-join(for $k in $keys return fn:string($k), ' ')}</keys>,
                <left>{fn:concat(fn:count(employee:EMPLOYEE()), ' ', fn:count(emp2:EMP2()))}</left>);
}|}

let sweep_text =
  {|declare variable $w as xs:integer external;
declare variable $doc := <doc>{for $i in 1 to $w return <v>0</v>}</doc>;
{
  for $v in $doc/v return replace value of node $v with 1;
  return value count($doc/v[. eq '1']);
}|}

let loop_text =
  {|declare variable $k as xs:integer external;
{
  declare $sum := 0, $i := 1;
  while ($i le $k) {
    set $sum := $sum + $i;
    set $i := $i + 1;
  }
  return value $sum;
}|}

let setup_scripts ~seed ~instr =
  let env = FE.make ~employees ~seed:data_seed ~instr () in
  FE.load_all_use_cases env;
  let sess = Aldsp.Dataspace.session env.ds in
  let compiled = compile_all sess [ chain_text; copy_text; pairs_text; sweep_text; loop_text ] in
  let prog i = fst (List.nth compiled i) in
  (* the model: manager and name of every employee, from the rows *)
  let mgr = Hashtbl.create 64 and name = Hashtbl.create 64 in
  List.iter
    (fun row ->
      let id = str_of_value (R.Table.get row env.employee "EMP_ID") in
      Hashtbl.replace name id (str_of_value (R.Table.get row env.employee "NAME"));
      match R.Table.get row env.employee "MGR_ID" with
      | R.Value.Null -> ()
      | m -> Hashtbl.replace mgr id (str_of_value m))
    (R.Table.scan env.employee);
  let rec chain id = id :: (match Hashtbl.find_opt mgr id with Some m -> chain m | None -> []) in
  let ints l = List.map (fun i -> Item.Atomic (Atomic.Integer i)) l in
  let chain_op rng =
    let ids = List.init chains_per_op (fun _ -> 1 + Det.int rng employees) in
    {
      kind = Pool.Script;
      label = "uc2-chain";
      call = (fun _ -> run_prog ~vars:[ var "ids" (ints ids) ] (prog 0));
      check =
        (fun res ->
          let got = List.map Node.string_value (nodes res) in
          let want = List.map (fun id -> String.concat " " (chain (string_of_int id))) ids in
          expect (got = want) "management chain");
    }
  in
  let copy_op =
    {
      kind = Pool.Script;
      label = "uc3-copy";
      call = (fun _ -> run_prog (prog 1));
      check =
        (fun res ->
          match nodes res with
          | n :: rows ->
            expect (Node.string_value n = string_of_int employees) "copy count %s" (Node.string_value n);
            expect (List.length rows = employees) "copied rows %d" (List.length rows);
            List.iter
              (fun r ->
                let id = text [ "EMP_ID" ] r in
                let want =
                  match Hashtbl.find_opt mgr id with Some m -> Hashtbl.find name m | None -> ""
                in
                expect (text [ "MGR_NAME" ] r = want) "MGR_NAME of %s" id)
              rows
          | [] -> expect false "copy: empty result");
    }
  in
  let pairs_op r =
    let base = 100_000 + (r * pairs_per_op) in
    let ids = List.init pairs_per_op (fun i -> base + i) in
    {
      kind = Pool.Script;
      label = "uc4-create+uc1-delete";
      call = (fun _ -> run_prog ~vars:[ var "ids" (ints ids) ] (prog 2));
      check =
        (fun res ->
          match nodes res with
          | [ keys; left ] ->
            expect
              (Node.string_value keys = String.concat " " (List.map string_of_int ids))
              "created keys";
            expect
              (Node.string_value left = Printf.sprintf "%d 0" employees)
              "state after create/delete: %s" (Node.string_value left)
          | _ -> expect false "create/delete: result shape");
    }
  in
  let sweep_op =
    {
      kind = Pool.Script;
      label = "xuf-sweep";
      call = (fun _ -> run_prog ~vars:[ var "w" (Item.int sweep_width) ] (prog 3));
      check =
        (fun res ->
          expect (Item.string_value (List.hd res) = string_of_int sweep_width) "sweep count");
    }
  in
  let loop_op rng =
    let k = loop_min + Det.int rng loop_min in
    {
      kind = Pool.Script;
      label = "while-loop";
      call = (fun _ -> run_prog ~vars:[ var "k" (Item.int k) ] (prog 4));
      check =
        (fun res ->
          expect (Item.string_value (List.hd res) = string_of_int (k * (k + 1) / 2)) "loop sum");
    }
  in
  let round r =
    let rng = rng_for seed r in
    shuffle rng [| chain_op rng; copy_op; pairs_op r; sweep_op; loop_op rng |]
  in
  let probes () =
    (* the SDO read/submit path: rename one employee and restore the name *)
    let read () =
      Span.record ~layer:"aldsp" "Dataspace.get" (fun () ->
          Aldsp.Dataspace.get env.ds env.svc ~meth:"getByEmployeeID" [ Item.int 2 ])
    in
    let original = Sdo.get_leaf (read ()) 1 [ ("Name", 1) ] in
    for _ = 1 to 2 do
      List.iter
        (fun name ->
          let dg = read () in
          Sdo.set_leaf dg 1 [ ("Name", 1) ] name;
          let r = submit env.ds env.svc dg in
          expect r.Aldsp.Dataspace.sr_committed "probe submit: %s"
            (Option.value r.Aldsp.Dataspace.sr_reason ~default:"not committed"))
        [ "Probe Name"; original ]
    done
  in
  let tables = [ env.employee; env.emp2 ] in
  (* the scripts dataspace has no web service; probe the Figure 3 one *)
  let ws = (FC.make ~customers:1 ()).FC.ws in
  {
    template = sess;
    workers = 1;
    batch = 1;
    prefix_rounds = 100;
    round;
    final_check = ignore;
    probes;
    tables;
    xa_dbs = [ env.hr; env.backup ];
    ws;
    compile_ms = List.map snd compiled;
  }

(* ------------------------------------------------------------------ *)
(* Workload: serve                                                      *)
(* ------------------------------------------------------------------ *)

let serve_customers = 20
(* one worker: with two worker domains, runs in which the shared host
   lent a core away swung throughput and the p99.9 tail by 0.2-0.8
   (interquartile spread over ten runs), which no single- or two-domain
   kernel tracked *)
let serve_workers = 1
let occ_retries = 64

(* per round of 5000 jobs: 2850 by-id reads, 150 full reads, 750 + 750
   scripts, 500 read-modify-submit cycles (the 6:3:1 mix of
   [Server.Workload]) *)
let serve_mix = [ (`Byid, 2850); (`Full, 150); (`Iter, 750); (`While, 750); (`Submit, 500) ]

let byid_text = lookup_text

let full_text = "count(profile:getProfile())"

let iter_text =
  {|declare variable $cid as xs:string external;
{
  declare $open := 0;
  iterate $o over profile:getProfileById($cid)/Orders/ORDERS {
    set $open := $open + (if ($o/STATUS eq 'OPEN') then 1 else 0);
  }
  return value $open;
}|}

let while_text =
  {|declare variable $cid as xs:string external;
{
  declare $i := 0;
  declare $cards := 0;
  while ($i lt 2) {
    set $i := $i + 1;
    set $cards := $cards + count(profile:getProfileById($cid)/CreditCards/CREDIT_CARD);
  }
  return value $cards;
}|}

let submit_count = Stdlib.Atomic.make 0
let retry_count = Stdlib.Atomic.make 0

let setup_serve ~seed ~instr =
  let env = FC.make ~customers:serve_customers ~seed:data_seed ~instr () in
  ignore (Aldsp.Dataspace.enable_result_cache env.ds);
  let sess = Aldsp.Dataspace.session env.ds in
  let compiled = compile_all sess [ byid_text; full_text; iter_text; while_text ] in
  let model = customer_model env in
  let cids = all_customer_ids model in
  (* hot keys differ per seed: Zipf ranks over a seeded permutation *)
  let ranked = shuffle (Det.make seed) (Array.copy cids) in
  let pairs = Array.of_list (List.filter (fun c -> (Hashtbl.find model c).c_ccids <> []) (Array.to_list ranked)) in
  let zipf rng a = a.(Det.zipf_bucket rng ~max:(Array.length a) - 1) in
  let acks = Hashtbl.create 16 and acks_lock = Mutex.create () in
  (* a pair is matched when it is the seed pair or one submit's token *)
  let check_pair what cid last brand =
    let c = Hashtbl.find model cid in
    if c.c_ccids <> [] then
      expect
        ((last = c.c_last && brand = c.c_brand)
        || (last = brand && String.length last > 3 && String.sub last 0 3 = "Tok"))
        "%s %s: torn pair %s/%s" what cid last brand
    else expect (last = c.c_last) "%s %s: last name %s" what cid last
  in
  let eval sess text vars =
    let prog =
      Span.record ~layer:"xqse" "Session.compile_cached" (fun () ->
          Xqse.Session.compile_cached sess text)
    in
    run_prog ~vars prog
  in
  let read_op kind label text cid check =
    { kind; label; call = (fun s -> eval s text [ var "cid" (Item.str cid) ]); check }
  in
  let submit_op token cid =
    let call _ =
      let rec attempt left =
        let dg = get_profile env cid in
        let p = List.hd (Sdo.roots dg) in
        check_pair "submit read" cid (text [ "LAST_NAME" ] p)
          (text [ "CreditCards"; "CREDIT_CARD"; "BRAND" ] p);
        Sdo.set_leaf dg 1 [ ("LAST_NAME", 1) ] token;
        Sdo.set_leaf dg 1 [ ("CreditCards", 1); ("CREDIT_CARD", 1); ("BRAND", 1) ] token;
        let r = submit env.ds env.svc dg in
        if r.Aldsp.Dataspace.sr_committed then
          Mutex.protect acks_lock (fun () -> Hashtbl.add acks cid token)
        else if left > 0 then begin
          Stdlib.Atomic.incr retry_count;
          attempt (left - 1)
        end
        else failwith "submit: OCC retries exhausted"
      in
      Stdlib.Atomic.incr submit_count;
      attempt occ_retries;
      Item.empty
    in
    { kind = Pool.Submit; label = "submit"; call; check = ignore }
  in
  let round r =
    let rng = rng_for seed r in
    let ops =
      List.concat_map
        (fun (k, n) ->
          List.init n (fun i ->
              match k with
              | `Byid ->
                let cid = zipf rng ranked in
                read_op Pool.Read "getProfileById" byid_text cid (fun res ->
                    match nodes res with
                    | [ p ] ->
                      expect (text [ "CID" ] p = cid) "serve read %s" cid;
                      check_pair "read" cid (text [ "LAST_NAME" ] p)
                        (text [ "CreditCards"; "CREDIT_CARD"; "BRAND" ] p)
                    | _ -> expect false "serve read %s: shape" cid)
              | `Full ->
                read_op Pool.Read "getProfile" full_text "" (fun res ->
                    expect
                      (Item.string_value (List.hd res) = string_of_int (Array.length cids))
                      "getProfile count")
              | `Iter ->
                let cid = zipf rng ranked in
                read_op Pool.Script "iterate-orders" iter_text cid (fun res ->
                    expect
                      (Item.string_value (List.hd res)
                      = string_of_int (Hashtbl.find model cid).c_open)
                      "open orders of %s" cid)
              | `While ->
                let cid = zipf rng ranked in
                read_op Pool.Script "while-cards" while_text cid (fun res ->
                    expect
                      (Item.string_value (List.hd res)
                      = string_of_int (2 * List.length (Hashtbl.find model cid).c_ccids))
                      "cards of %s" cid)
              | `Submit ->
                submit_op (Printf.sprintf "Tok%d-%d-%d" seed r i) (zipf rng pairs)))
        serve_mix
    in
    shuffle rng (Array.of_list ops)
  in
  let final_check () =
    Array.iter
      (fun cid ->
        let c = Hashtbl.find model cid in
        let last =
          match R.Table.find_pk env.customer [ R.Value.Text cid ] with
          | Some row -> str_of_value (R.Table.get row env.customer "LAST_NAME")
          | None -> "<missing>"
        in
        let ccid = int_of_string (List.hd c.c_ccids) in
        let brand =
          match R.Table.find_pk env.credit_card [ R.Value.Int ccid ] with
          | Some row -> str_of_value (R.Table.get row env.credit_card "CC_BRAND")
          | None -> "<missing>"
        in
        match Hashtbl.find_all acks cid with
        | [] -> expect (last = c.c_last && brand = c.c_brand) "final %s: changed without a submit" cid
        | toks ->
          expect (last = brand && List.mem last toks) "final %s: %s/%s is no acknowledged submit" cid
            last brand)
      pairs
  in
  let tables = [ env.customer; env.orders; env.credit_card ] in
  {
    template = sess;
    workers = serve_workers;
    (* jobs cost ~0.07 ms at the median, so a kernel sample per job
       would dominate the run *)
    batch = 100;
    prefix_rounds = 5;
    round;
    final_check;
    probes = ignore;
    tables;
    xa_dbs = [ env.db1; env.db2 ];
    ws = env.ws;
    compile_ms = List.map snd compiled;
  }

(* ------------------------------------------------------------------ *)
(* Layer probes and scale counts                                        *)
(* ------------------------------------------------------------------ *)

let time_us reps f =
  let t0 = now () in
  for _ = 1 to reps do f () done;
  (now () -. t0) *. 1e6 /. float_of_int reps

(* median of [samples] timings of [reps] calls each *)
let probe_us ?(samples = 9) reps f = median (List.init samples (fun _ -> time_us reps f))

let probe_scan table =
  let rows = max 1 (R.Table.row_count table) in
  let reps = max 1 (20_000 / rows) in
  probe_us reps (fun () ->
      let c = R.Table.scan_cursor table in
      let rec drain () = match Cursor.next c with Some _ -> drain () | None -> () in
      drain ())
  /. float_of_int rows

let probe_find_pk table =
  let keys = Array.of_list (List.map (R.Table.pk_of_row table) (R.Table.scan table)) in
  let n = Array.length keys in
  let i = ref 0 in
  probe_us 2000 (fun () ->
      ignore (R.Table.find_pk table keys.(!i mod n));
      incr i)

(* rewrite the first row of each database's first table with its own
   values: a real two-phase round over two participants that leaves
   the data as it was *)
let xa_touch dbs () =
  List.iter
    (fun db ->
      match R.Database.tables db with
      | t :: _ -> (
        match R.Table.scan t with
        | row :: _ ->
          let s = R.Table.schema t in
          let pk = List.hd s.R.Table.primary_key in
          let col = (List.nth s.R.Table.columns 1).R.Table.col_name in
          ignore
            (R.Database.exec db
               (R.Database.Update
                  { table = R.Table.name t;
                    set = [ (col, R.Table.get row t col) ];
                    where = R.Pred.eq pk (R.Table.get row t pk) }))
        | [] -> ())
      | [] -> ())
    dbs

let rating_request =
  let crs = Qname.make ~prefix:"crs" ~uri:"urn:creditrating" in
  Node.element (crs "getCreditRating")
    [ Node.element (crs "lastName") [ Node.text "Carrey" ];
      Node.element (crs "ssn") [ Node.text "111-22-3333" ] ]

let wide_doc k =
  Node.element (Qname.local "doc")
    (List.init k (fun i -> Node.element (Qname.local "v") [ Node.text (string_of_int i) ]))

let construct_width = 1000

(* rows scanned and web-service calls of one warm lookup at [n] customers *)
let lookup_counts n =
  let instr = Instr.create () in
  let env = FC.make ~customers:n ~seed:data_seed ~instr () in
  let prog = Xqse.Session.compile (Aldsp.Dataspace.session env.ds) lookup_text in
  let go () = ignore (run_prog ~vars:[ var "cid" (Item.str "C1") ] prog) in
  go ();
  Instr.enable instr;
  let before = Instr.stats instr in
  go ();
  let d = Instr.since instr before in
  let get k = Option.value (List.assoc_opt k d.Instr.counters) ~default:0 in
  (get Instr.K.rows_scanned, get Instr.K.ws_calls)

(* minor-heap words allocated per child by building a k-child document
   and stepping its child axis (the program runs once before measuring).
   [Gc.minor_words] is exact for the calling domain, unlike the
   per-collection totals of [Gc.quick_stat]. *)
let path_program =
  lazy
    (Xqse.Session.compile (Xqse.Session.create ())
       {|declare variable $k as xs:integer external;
count(<doc>{for $i in 1 to $k return <v>{$i}</v>}</doc>/v)|})

let path_words k =
  let go () = ignore (Xqse.Session.run ~opts:{ Xqse.Session.default_exec_opts with vars = [ var "k" (Item.int k) ] } (Lazy.force path_program)) in
  go ();
  let a0 = Gc.minor_words () in
  go ();
  (Gc.minor_words () -. a0) /. float_of_int k

let growth_n = 25
let growth_k = 500

let scale () =
  Printf.printf "%-10s %14s %12s %10s\n" "customers" "rows/lookup" "ws/lookup" "ms/lookup";
  List.iter
    (fun n ->
      let t0 = now () in
      let rows, ws = lookup_counts n in
      Printf.printf "%-10d %14d %12d %10.1f\n" n rows ws ((now () -. t0) *. 1000.))
    [ growth_n; 4 * growth_n; 16 * growth_n ];
  Printf.printf "\n%-10s %14s\n" "children" "words/child";
  List.iter
    (fun k -> Printf.printf "%-10d %14.1f\n" k (path_words k))
    [ growth_k; 4 * growth_k; 16 * growth_k ];
  let r1, _ = lookup_counts growth_n and r4, _ = lookup_counts (4 * growth_n) in
  Printf.printf "\naldsp.rows_scanned_growth = %.4f   xdm.path_growth = %.4f\n"
    (float_of_int r4 /. float_of_int r1)
    (path_words (4 * growth_k) /. path_words growth_k)

(* ------------------------------------------------------------------ *)
(* The run                                                              *)
(* ------------------------------------------------------------------ *)

(* with each workload's tail percentile: the highest of p90, p95, p98,
   p99 and p99.9 that keeps at least ten samples beyond it in a 30-s run
   in the host's slow state (~1,050 lookups, ~900 scripts operations,
   ~60,000 serve jobs) *)
let workloads =
  [ ("lookup", (setup_lookup, 99.)); ("scripts", (setup_scripts, 98.)); ("serve", (setup_serve, 99.9)) ]

(* set-up is a millisecond-scale step: it is sampled this many times
   before the timed phase, each sample after one calibration kernel *)
let setup_samples = 60

type totals = {
  mutable ops : int;  (** completed *)
  mutable counted : int;  (** completed in rounds whose counters are kept *)
  mutable rounds : (float * (float * float) list) list;
      (** per [Pool.run] batch: seconds, and (latency, speed scale) per
          completed operation *)
  mutable attempted : int;
  mutable words : float;
  mutable queue : float list;  (** per batch: pool p50 minus body p50 *)
  mutable minor : int;
  mutable major : int;
  mutable ser_us : float;
  mutable stats : Instr.stats;
  mutable versions_peak : int;
}

let totals () =
  { ops = 0; counted = 0; rounds = []; attempted = 0; words = 0.; queue = []; minor = 0; major = 0;
    ser_us = 0.; stats = { Instr.counters = []; timers = [] }; versions_peak = 0 }

let latencies t = List.concat_map (fun (_, l) -> List.map fst l) t.rounds
let scaled_latencies t = List.concat_map (fun (_, l) -> List.map (fun (x, k) -> x *. k) l) t.rounds
let round_secs t = List.fold_left (fun a (dt, _) -> a +. dt) 0. t.rounds

let metric name unit v = Printf.sprintf "%S: {\"value\": %.12g, \"unit\": %S}" name v unit

let run_workload name ~seed ~seconds ~traced =
  let setup, tail_pct = List.assoc name workloads in
  let instr = Instr.create () in
  Instr.preregister instr;
  if traced then Instr.enable instr;
  let t0 = now () in
  let inst = setup ~seed ~instr in
  let first_setup = now () -. t0 in
  let heap_peak = ref (Gc.quick_stat ()).Gc.heap_words in
  let setup_stats = Instr.stats instr in
  Instr.disable instr;
  let untraced = totals () and traced_t = totals () in
  let samples =
    List.init setup_samples (fun _ ->
        let k = Calib.time () in
        let t0 = now () in
        ignore (setup ~seed ~instr:(Instr.create ()));
        (k, now () -. t0))
  in
  let setups = first_setup :: List.map snd samples and setup_kernels = List.map fst samples in
  (* the samples' garbage is collected before the timed phase, not by
     its first operations *)
  Gc.full_major ();
  let r = ref 0 and timed = ref 0. in
  let failed = ref 0 and errors = ref [] in
  (* one [Pool.run] over [ops], after its kernel sample *)
  let run_batch ~tracing ~counted ops =
    let acc = if tracing then traced_t else untraced in
    let n = Array.length ops in
    let lat = Array.make n nan and ser = Array.make n 0. in
    let scale = if traced then 1. else Calib.reference_s /. Calib.time () in
    let pool_span = ref 0 in
    let jobs =
      Array.to_list
        (Array.mapi
           (fun i (req, op) ->
             {
               Pool.j_kind = op.kind;
               j_label = op.label;
               j_arrival_ms = 0.;
               j_deadline_ms = None;
               j_run =
                 (fun sess ->
                   Span.in_request ~parent:!pool_span ~req (fun () ->
                       Span.record ~layer:"bench" op.label (fun () ->
                           let t0 = now () in
                           let res = op.call sess in
                           lat.(i) <- (now () -. t0) *. 1000.;
                           if tracing then begin
                             let t1 = now () in
                             Span.record ~layer:"xdm" "Xml_serialize" (fun () ->
                                 ignore (Xml_serialize.seq_to_string res));
                             ser.(i) <- (now () -. t1) *. 1e6;
                             let v = List.fold_left (fun a t -> a + R.Table.live_versions t) 0 inst.tables in
                             if v > acc.versions_peak then acc.versions_peak <- v
                           end;
                           op.check res)));
             })
           ops)
    in
    let before = if counted then Some (Instr.stats instr) else None in
    let gc0 = Gc.quick_stat () in
    if tracing then begin
      Instr.enable instr;
      Span.on := true
    end;
    let a0 = alloc_words () in
    let t0 = now () in
    let report =
      Span.record ~layer:"server" "Pool.run" (fun () ->
          pool_span := Span.top ();
          Pool.run ~workers:inst.workers ~session:inst.template jobs)
    in
    let dt = now () -. t0 in
    let da = alloc_words () -. a0 in
    Instr.disable instr;
    Span.on := false;
    let gc1 = Gc.quick_stat () in
    (match before with
    | Some b ->
      acc.stats <- Instr.add_stats acc.stats (Instr.since instr b);
      acc.counted <- acc.counted + report.Pool.r_ok
    | None -> ());
    let ok = Array.to_list lat |> List.filter (fun x -> not (Float.is_nan x)) in
    acc.ops <- acc.ops + report.Pool.r_ok;
    acc.rounds <- (dt, List.map (fun x -> (x, scale)) ok) :: acc.rounds;
    acc.attempted <- acc.attempted + report.Pool.r_jobs;
    acc.words <- acc.words +. da;
    acc.queue <- (report.Pool.r_latency.Pool.l_p50 -. median ok) :: acc.queue;
    acc.minor <- acc.minor + (gc1.Gc.minor_collections - gc0.Gc.minor_collections);
    acc.major <- acc.major + (gc1.Gc.major_collections - gc0.Gc.major_collections);
    acc.ser_us <- acc.ser_us +. Array.fold_left ( +. ) 0. ser;
    failed := !failed + (report.Pool.r_jobs - report.Pool.r_ok);
    errors := List.rev_append report.Pool.r_errors !errors;
    timed := !timed +. dt
  in
  while !timed < seconds do
    let ops = Array.mapi (fun i op -> ((!r * 10_000) + i + 1, op)) (inst.round !r) in
    let tracing = traced && !r mod 2 = 0 in
    let counted = tracing && !r < inst.prefix_rounds in
    let n = Array.length ops in
    for b = 0 to ((n - 1) / inst.batch) do
      let lo = b * inst.batch in
      run_batch ~tracing ~counted (Array.sub ops lo (min inst.batch (n - lo)))
    done;
    if !r < inst.prefix_rounds then heap_peak := max !heap_peak (Gc.quick_stat ()).Gc.heap_words;
    incr r
  done;
  inst.final_check ();
  List.iteri
    (fun i (l, m) -> if i < 5 then Printf.eprintf "error: %s: %s\n" l m)
    !errors;
  let attempted = untraced.attempted + traced_t.attempted in
  let metrics =
    if not traced then begin
      let t = untraced in
      let ops = float_of_int (max 1 t.ops) in
      let lat = scaled_latencies t in
      (* one client: its rate is the inverse of its mean request time,
         at reference speed *)
      let busy l = List.fold_left ( +. ) 0. l /. 1000. in
      let secs = busy lat in
      let scales = List.concat_map (fun (_, l) -> List.map snd l) t.rounds in
      let setup_scaled = median setups *. Calib.reference_s /. median setup_kernels in
      Printf.eprintf
        "unscaled: setup_s %.6g ops_per_s %.6g p50_ms %.6g; median speed scale %.3f\n"
        (median setups) (float_of_int t.ops /. busy (latencies t)) (pct (latencies t) 50.)
        (median scales);
      [
        metric "setup_s" "s" setup_scaled;
        metric "ops_per_s" "1/s" (float_of_int t.ops /. secs);
        metric "p50_ms" "ms" (pct lat 50.);
        metric "tail_ms" "ms" (pct lat tail_pct);
        metric "alloc_kb_per_op" "KiB" (t.words *. word_bytes /. 1024. /. ops);
        metric "heap_peak_mb" "MiB" (float_of_int !heap_peak *. word_bytes /. 1048576.);
      ]
    end
    else begin
      let t = traced_t in
      (* probes run traced, after the timed phase, outside the per-op counts *)
      Instr.enable instr;
      Span.on := true;
      let before = Instr.stats instr in
      inst.probes ();
      let probe_stats = Instr.since instr before in
      Instr.disable instr;
      Span.on := false;
      let all_stats = Instr.add_stats t.stats probe_stats in
      let ops = float_of_int (max 1 t.ops) in
      let count s k = float_of_int (Option.value (List.assoc_opt k s.Instr.counters) ~default:0) in
      let timer s k = Option.value (List.assoc_opt k s.Instr.timers) ~default:0. in
      let per_op k = count t.stats k /. float_of_int (max 1 t.counted) in
      let ratio a b = if a +. b = 0. then 0. else a /. (a +. b) in
      let spans = !Span.recorded in
      let span_mean name =
        mean (List.filter_map (fun s -> if s.Span.name = name then Some ((s.t1 -. s.t0) *. 1000.) else None) spans)
      in
      let span_total name =
        List.fold_left (fun a s -> if s.Span.name = name then a +. ((s.t1 -. s.t0) *. 1000.) else a) 0. spans
      in
      let submits = count all_stats Instr.K.sdo_submits in
      let per_submit v = if submits = 0. then 0. else v /. submits in
      let optimizer =
        List.fold_left
          (fun a (k, v) -> if String.length k > 10 && String.sub k 0 10 = "optimizer." then a +. v else a)
          0. setup_stats.Instr.timers
      in
      let compiles = Float.max 1. (count setup_stats Instr.K.queries_compiled) in
      let xa_dbs = inst.xa_dbs in
      let big =
        List.fold_left (fun a t -> if R.Table.row_count t > R.Table.row_count a then t else a)
          (List.hd inst.tables) inst.tables
      in
      let rows_n, _ = lookup_counts growth_n and rows_4n, _ = lookup_counts (4 * growth_n) in
      let self = Span.self_times spans in
      List.iter (fun (l, ms) -> Printf.eprintf "self %-8s %10.3f ms/op\n" l (ms /. ops)) self;
      (try Sys.mkdir "perfbench/traces" 0o755 with Sys_error _ -> ());
      let path = Printf.sprintf "perfbench/traces/%s-%d.jsonl" name seed in
      (try Span.write path spans with Sys_error e -> Printf.eprintf "trace not written: %s\n" e);
      [
        metric "server.queue_ms" "ms" (median t.queue);
        metric "server.service_ms" "ms" (pct (latencies t) 50.);
        metric "xqse.compile_ms" "ms" (mean inst.compile_ms);
        metric "xqse.run_ms" "ms" (span_total "Session.run" /. ops);
        metric "xqse.statements_per_op" "count" (per_op Instr.K.xqse_statements);
        metric "xqse.plan_hit_ratio" "ratio"
          (ratio (count t.stats Instr.K.plan_cache_hit) (count t.stats Instr.K.plan_cache_miss));
        metric "xquery.optimizer_ms" "ms" (optimizer /. compiles);
        metric "xquery.stream_materialized_per_op" "count" (per_op Instr.K.stream_materialized);
        metric "aldsp.rows_scanned_per_op" "count" (per_op Instr.K.rows_scanned);
        metric "aldsp.ws_calls_per_op" "count" (per_op Instr.K.ws_calls);
        metric "aldsp.rows_scanned_growth" "ratio" (float_of_int rows_4n /. float_of_int rows_n);
        metric "aldsp.read_ms" "ms" (span_mean "Dataspace.get");
        metric "aldsp.submit_ms" "ms" (span_mean "Dataspace.submit");
        metric "aldsp.sdo_statements_per_submit" "count" (per_submit (count all_stats Instr.K.sdo_statements));
        metric "aldsp.occ_retries_per_submit" "count"
          (if Stdlib.Atomic.get submit_count = 0 then 0.
           else float_of_int (Stdlib.Atomic.get retry_count) /. float_of_int (Stdlib.Atomic.get submit_count));
        metric "relational.scan_us_per_row" "us" (probe_scan big);
        metric "relational.find_pk_us" "us" (probe_find_pk big);
        metric "relational.rows_fetched_per_op" "count" (per_op Instr.K.rows_fetched);
        metric "relational.lock_contended_per_submit" "count"
          (per_submit (count all_stats Instr.K.mvcc_lock_contended));
        metric "relational.versions_live_peak" "count" (float_of_int t.versions_peak);
        metric "relational.xa_ms" "ms"
          (probe_us 50 (fun () -> ignore (R.Xa.run xa_dbs (xa_touch xa_dbs))) /. 1000.);
        metric "webservice.call_us" "us"
          (probe_us 500 (fun () -> ignore (Webservice.invoke inst.ws "getCreditRating" rating_request)));
        metric "xdm.construct_us_per_node" "us"
          (probe_us 5 (fun () -> ignore (wide_doc construct_width)) /. float_of_int ((2 * construct_width) + 1));
        metric "xdm.path_growth" "ratio" (path_words (4 * growth_k) /. path_words growth_k);
        metric "xdm.serialize_us_per_op" "us" (t.ser_us /. ops);
        metric "cache.hit_ratio" "ratio"
          (ratio (count t.stats Instr.K.cache_hit) (count t.stats Instr.K.cache_miss));
        metric "cache.evict_per_submit" "count" (per_submit (count all_stats Instr.K.cache_evict));
        metric "resilience.guard_ms_per_op" "ms" (timer t.stats "resil.guard" /. float_of_int (max 1 t.counted));
        metric "gc.minor_per_op" "count" (float_of_int t.minor /. ops);
        metric "gc.major_per_op" "count" (float_of_int t.major /. ops);
        metric "trace.overhead_ratio" "ratio"
          ((float_of_int t.ops /. round_secs t) /. (float_of_int untraced.ops /. round_secs untraced));
      ]
    end
  in
  List.iter (Printf.eprintf "check failed: %s\n") (List.rev !check_notes);
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n"
    (!check_failures = 0) attempted !failed (String.concat ", " metrics)

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10. and trace = ref 0 and cmd = ref "run" in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME lookup | scripts | serve");
      ("--seed", Arg.Set_int seed, "N input seed");
      ("--seconds", Arg.Set_float seconds, "S length of the timed phase");
      ("--trace", Arg.Set_int trace, "0|1 per-layer (traced) run");
    ]
    (fun a -> cmd := a)
    "main.exe --workload NAME --seed N --seconds S --trace 0|1 | main.exe scale";
  match !cmd with
  | "scale" -> scale ()
  | "run" when List.mem_assoc !workload workloads ->
    run_workload !workload ~seed:!seed ~seconds:!seconds ~traced:(!trace = 1)
  | _ ->
    prerr_endline "unknown workload or command";
    exit 2
