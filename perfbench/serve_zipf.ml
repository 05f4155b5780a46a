(* serve-zipf: sbdserve as a child process with one worker, driven over
   one stdin/stdout pipe pair by a single-threaded generator.

   The mix (counts per block below) is Zipfian over the non-Boolean and
   Boolean suites, plus never-seen patterns (a fresh literal prefix on a
   labeled instance: the label is unchanged and the result cache
   misses), plus subset/equiv requests over [Pairs.all] and match
   requests on short inputs.  A warm-up runs until the worker's first
   memo clear; then each round takes set-ups on fresh servers, an
   open-loop segment of seeded Poisson arrivals (latency, timed from
   each request's due time) and a closed-loop capacity block with a
   fixed in-flight window. *)

module J = Sbd_obs.Obs.Json
module Jsonin = Sbd_service.Jsonin
module I = Sbd_benchgen.Instance
module Pairs = Sbd_benchgen.Pairs

let workers = 1
let window = 16
let rate = 60.0  (* open-loop arrivals per second *)
let zipf_s = 1.0
let rank_seed = 12

(* The worker's derivative memo cap.  At the server's default (200k
   entries) the first clear comes whenever a heavy Boolean instance is
   first drawn, anywhere from a few thousand to tens of thousands of
   requests into a session; at 20k every run crosses several clears, so
   latency is measured in the grown-and-cleared state a long session
   lives in (see README.md). *)
let memo_cap = 20_000

(* Requests come in blocks of [block] with exact per-kind counts; the
   rest of a block is Zipfian solve traffic. *)
let block = 500
let per_block_match = 35
let per_block_contain = 35
let per_block_fresh = 50

let warmup_blocks = 4
let warmup_cap = 12_000

(* -- the request mix ------------------------------------------------------ *)

type kind =
  | Solve of { pattern : string; label : I.expected; expect : Oracle.expect Lazy.t }
  | Contain of { pair : Pairs.t; expect : Oracle.expect Lazy.t }
  | Match of { pattern : string; input : string }

type req = { id : int; kind : kind; line : string }

let match_patterns =
  [| "[0-9]{2,4}"; "ab+c"; "(a|b)*c&.{3,6}"; "~(.*aa.*)&[ab]{4}"; "x[a-c]*y" |]

(* What a request asks, before it gets an id. *)
type spec = Zipf of int | Fresh of int | Pair of int | Input of int * int

(* The pool, its popularity ranks and the request sequence are the same
   for every seed; the seed draws the open loop's arrival times. *)
type corpus = {
  pool : I.t array;  (** Zipf rank order *)
  expects : Oracle.expect Lazy.t array;
  cdf : float array;
  labeled : I.t array;
  pairs : (Pairs.t * Oracle.expect Lazy.t) array;
  inputs : string array;
}

let corpus =
  lazy
    (let pool =
       Array.of_list
         (Util.shuffle rank_seed
            (Sbd_benchgen.Standard.non_boolean () @ Sbd_benchgen.Standard.boolean ()))
     in
     let w = Array.mapi (fun i _ -> 1.0 /. (float_of_int (i + 1) ** zipf_s)) pool in
     let total = Array.fold_left ( +. ) 0.0 w in
     let acc = ref 0.0 in
     let cdf =
       Array.map
         (fun x ->
           acc := !acc +. (x /. total);
           !acc)
         w
     in
     let st = Random.State.make [| 0x1eaf |] in
     {
       pool;
       expects = Array.map (fun inst -> lazy (Oracle.expect_of_instance inst)) pool;
       cdf;
       labeled =
         Array.of_list
           (List.filter (fun (i : I.t) -> i.expected <> I.Unlabeled) (Array.to_list pool));
       pairs = Array.of_list (List.map (fun p -> (p, lazy (Oracle.pair_expect p))) (Pairs.all ()));
       inputs =
         Array.init 64 (fun _ ->
             String.init (8 + Random.State.int st 17) (fun _ -> "abcxy0123".[Random.State.int st 9]));
     })

let zipf_rank cdf u =
  let lo = ref 0 and hi = ref (Array.length cdf - 1) in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if cdf.(mid) < u then lo := mid + 1 else hi := mid
  done;
  !lo

(* Block [b]: its multiset of requests in a fixed order.  The sequence
   is the same for every seed because the worker's cost depends on its
   history: one Boolean instance that takes 1 ms on a fresh worker takes
   over 200 ms and adds 135k memo entries in some histories, after which
   every miss pays a gauge several times dearer (see README.md).  A
   seeded order turned that into a coin toss per run; a fixed order
   keeps the event in every run. *)
let block_specs (c : corpus) b : spec array =
  let st = Random.State.make [| 0x5e7e; b |] in
  let pick n = Random.State.int st n in
  let specs =
    Array.init block (fun i ->
        if i < per_block_match then
          Input (pick (Array.length match_patterns), pick (Array.length c.inputs))
        else if i < per_block_match + per_block_contain then Pair (pick (Array.length c.pairs))
        else if i < per_block_match + per_block_contain + per_block_fresh then
          Fresh (pick (Array.length c.labeled))
        else Zipf (zipf_rank c.cdf (Random.State.float st 1.0)))
  in
  Array.of_list (Util.shuffle (0x0b10c + b) (Array.to_list specs))

type mix = { c : corpus; mutable specs : spec array; mutable next_id : int }

let mix () = { c = Lazy.force corpus; specs = [||]; next_id = 1 }

(* A literal prefix no other request of the run carries. *)
let fresh_prefix id =
  let rec go n acc = if n = 0 then acc else go (n / 26) (String.make 1 (Char.chr (97 + (n mod 26))) ^ acc) in
  "qz" ^ go id ""

let next m : req =
  let id = m.next_id in
  m.next_id <- id + 1;
  let pos = (id - 1) mod block in
  if pos = 0 then m.specs <- block_specs m.c ((id - 1) / block);
  let c = m.c in
  let kind, fields =
    match m.specs.(pos) with
    | Input (p, i) ->
      let pattern = match_patterns.(p) and input = c.inputs.(i) in
      (Match { pattern; input }, [ ("op", J.Str "match"); ("re", J.Str pattern); ("input", J.Str input) ])
    | Pair k ->
      let pair, expect = c.pairs.(k) in
      let op = Pairs.string_of_mode pair.mode in
      (Contain { pair; expect }, [ ("op", J.Str op); ("re", J.Str pair.left); ("re2", J.Str pair.right) ])
    | Fresh k ->
      let inst = c.labeled.(k) in
      let pattern = Printf.sprintf "%s(%s)" (fresh_prefix id) inst.pattern in
      let expect = Lazy.from_val (Oracle.Label (inst.expected = I.Sat)) in
      (Solve { pattern; label = inst.expected; expect }, [ ("op", J.Str "solve"); ("re", J.Str pattern) ])
    | Zipf k ->
      let inst = c.pool.(k) in
      ( Solve { pattern = inst.pattern; label = inst.expected; expect = c.expects.(k) },
        [ ("op", J.Str "solve"); ("re", J.Str inst.pattern) ] )
  in
  { id; kind; line = J.to_string (J.Obj (("id", J.Int id) :: fields)) }

(* -- checking responses --------------------------------------------------- *)

(* Solver witnesses carry one layer of escaping: a backslash before a
   double quote or a backslash, and \u{HHHH} for other code points
   outside printable ASCII. *)
let decode_witness (s : string) : int list =
  let n = String.length s in
  let rec go i acc =
    if i >= n then List.rev acc
    else if s.[i] = '\\' && i + 1 < n && s.[i + 1] = 'u' then
      let close = String.index_from s i '}' in
      go (close + 1) (int_of_string ("0x" ^ String.sub s (i + 3) (close - i - 3)) :: acc)
    else if s.[i] = '\\' && i + 1 < n then go (i + 2) (Char.code s.[i + 1] :: acc)
    else go (i + 1) (Char.code s.[i] :: acc)
  in
  go 0 []

let verdict_of_doc ~contain doc : Oracle.verdict =
  match Jsonin.str_member "error" doc with
  | Some e -> Oracle.Failed e
  | None -> (
    match Jsonin.str_member "status" doc with
    | Some ("sat" | "refuted") when contain -> (
      match Jsonin.member "witness_codepoints" doc with
      | Some (J.Arr cps) ->
        Oracle.Sat (List.map (function[@warning "-4"] J.Int c -> c | _ -> -1) cps)
      | Some _ | None -> Oracle.Failed "refutation without witness")
    | Some "sat" -> Oracle.Sat (decode_witness (Option.value ~default:"" (Jsonin.str_member "witness" doc)))
    | Some ("unsat" | "proved") -> Oracle.Unsat
    | Some "unknown" ->
      Oracle.Unknown (Option.value ~default:"" (Jsonin.str_member "reason" doc))
    | Some s -> Oracle.Failed ("status " ^ s)
    | None -> Oracle.Failed "no status")

(* Leftmost-earliest span by brute force over the reference matcher. *)
let match_expect : (string * string, bool * (int * int) option) Hashtbl.t = Hashtbl.create 64

let expected_match pattern input =
  match Hashtbl.find_opt match_expect (pattern, input) with
  | Some e -> e
  | None ->
    let cps = Array.of_list (Oracle.codepoints input) in
    let n = Array.length cps in
    let sub i j = Array.to_list (Array.sub cps i (j - i)) in
    let span = ref None in
    (try
       for i = 0 to n do
         for j = i to n do
           if Oracle.member pattern (sub i j) then begin
             span := Some (i, j);
             raise Exit
           end
         done
       done
     with Exit -> ());
    let e = (Oracle.member pattern (Array.to_list cps), !span) in
    Hashtbl.add match_expect (pattern, input) e;
    e

let check (r : req) (d : J.t) : Oracle.outcome =
  match r.kind with
  | Solve { pattern; label; expect } ->
    let v = verdict_of_doc ~contain:false d in
    let expect =
      match (v, label) with
      | Oracle.Unsat, _ -> Lazy.force expect
      | _, I.Sat -> Oracle.Label true
      | _, I.Unsat -> Oracle.Label false
      | _, I.Unlabeled -> Oracle.Baseline None
    in
    Oracle.check_solve ~pattern ~expect v
  | Contain { pair; expect } ->
    let v = verdict_of_doc ~contain:true d in
    let expect =
      match (v, pair.expected) with
      | Oracle.Unsat, Pairs.Unlabeled -> Lazy.force expect
      | _, Pairs.Holds -> Oracle.Label false
      | _, Pairs.Fails -> Oracle.Label true
      | _, Pairs.Unlabeled -> Oracle.Baseline None
    in
    Oracle.check_pair pair ~expect v
  | Match { pattern; input } -> (
    match (Jsonin.str_member "error" d, Jsonin.bool_member "full" d) with
    | Some e, _ -> Error (Oracle.Unanswered e)
    | None, None -> Error (Oracle.Unanswered "no match verdict")
    | None, Some full ->
      let span =
        match Jsonin.member "span" d with
        | Some (J.Arr [ J.Int i; J.Int j ]) -> Some (i, j)
        | Some _ | None -> None
      in
      let efull, espan = expected_match pattern input in
      if full <> efull then Error (Oracle.Wrong "full-match flag differs from Refmatch")
      else Oracle.check_span ~pattern ~haystack:input ~expected:espan span)

(* -- the connection ----------------------------------------------------- *)

type conn = {
  pid : int;
  wr : Unix.file_descr;
  rd : Unix.file_descr;
  pending : Buffer.t;
  chunk : Bytes.t;
  mutable eof : bool;
  mutable sent_ids : int list;  (** load requests sent *)
  mutable recv_ids : int list;  (** ids of the replies read by the load loops *)
}

let spawn sbdserve =
  let in_r, in_w = Unix.pipe ~cloexec:true () in
  let out_r, out_w = Unix.pipe ~cloexec:true () in
  let pid =
    Unix.create_process sbdserve
      [| sbdserve; "--workers"; string_of_int workers; "--memo-cap"; string_of_int memo_cap |]
      in_r out_w Unix.stderr
  in
  Unix.close in_r;
  Unix.close out_w;
  {
    pid;
    wr = in_w;
    rd = out_r;
    pending = Buffer.create 4096;
    chunk = Bytes.create 65536;
    eof = false;
    sent_ids = [];
    recv_ids = [];
  }

let send_line c line =
  let s = line ^ "\n" in
  let rec go off =
    if off < String.length s then go (off + Unix.write_substring c.wr s off (String.length s - off))
  in
  go 0

(* Complete lines available within [timeout] seconds (possibly none). *)
let recv c ~timeout : string list =
  if c.eof then []
  else
    match Unix.select [ c.rd ] [] [] (Float.max 0.0 timeout) with
    | [], _, _ -> []
    | _ ->
      let n = Unix.read c.rd c.chunk 0 (Bytes.length c.chunk) in
      if n = 0 then c.eof <- true;
      Buffer.add_subbytes c.pending c.chunk 0 n;
      let s = Buffer.contents c.pending in
      (match String.rindex_opt s '\n' with
      | None -> []
      | Some last ->
        Buffer.clear c.pending;
        Buffer.add_substring c.pending s (last + 1) (String.length s - last - 1);
        String.split_on_char '\n' (String.sub s 0 last))
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> []

let id_of doc = Option.value ~default:(-1) (Jsonin.int_member "id" doc)

(* A load request: its id is accounted for in [check_ids]. *)
let send c (r : req) =
  c.sent_ids <- r.id :: c.sent_ids;
  send_line c r.line

(* Send one control request and wait for its reply.  Control requests
   are sent only when no load request is in flight. *)
let call c ~id fields : J.t =
  send_line c (J.to_string (J.Obj (("id", J.Int id) :: fields)));
  let rec wait deadline =
    if Util.now () > deadline || c.eof then failwith "sbdserve: no reply to control request"
    else
      let found =
        List.find_map
          (fun l ->
            match Jsonin.parse l with
            | Ok d when id_of d = id -> Some d
            | Ok _ | Error _ -> None)
          (recv c ~timeout:1.0)
      in
      match found with Some d -> d | None -> wait deadline
  in
  wait (Util.now () +. 60.0)

let stats c =
  match Jsonin.member "stats" (call c ~id:0 [ ("op", J.Str "stats") ]) with
  | Some s -> s
  | None -> J.Obj []

let stat name s = Option.value ~default:0.0 (Jsonin.float_member name s)

let shutdown c =
  (try ignore (call c ~id:(-2) [ ("op", J.Str "shutdown") ]) with Failure _ | Unix.Unix_error _ -> ());
  (try Unix.close c.wr with Unix.Unix_error _ -> ());
  (try Unix.kill c.pid Sys.sigterm with Unix.Unix_error _ -> ());
  ignore (Unix.waitpid [] c.pid);
  Unix.close c.rd

(* Request-id faults of the connections closed so far. *)
let id_faults : Oracle.fault list ref = ref []

let with_server sbdserve f =
  let c = spawn sbdserve in
  match f c with
  | v ->
    shutdown c;
    id_faults := Oracle.check_ids ~sent:c.sent_ids ~received:c.recv_ids @ !id_faults;
    v
  | exception e ->
    (try Unix.kill c.pid Sys.sigkill with Unix.Unix_error _ -> ());
    ignore (Unix.waitpid [] c.pid);
    raise e

(* -- load loops ------------------------------------------------------------ *)

(* A response as the generator saw it.  The reply is kept as its raw
   line and parsed again when checked: a string is one opaque block to
   this process's GC, so the generator's collections do not trace
   thousands of parsed trees while it should be feeding the server. *)
type obs = { r : req; sent : float; due : float; recv : float; reply : string }

let doc_of (o : obs) = Result.get_ok (Jsonin.parse o.reply)

let complete tbl c ~timeout (on : obs -> unit) =
  List.iter
    (fun line ->
      match Jsonin.parse line with
      | Error _ -> ()
      | Ok doc -> (
        let id = id_of doc in
        c.recv_ids <- id :: c.recv_ids;
        match Hashtbl.find_opt tbl id with
        | None -> ()
        | Some (r, sent, due) ->
          Hashtbl.remove tbl id;
          on { r; sent; due; recv = Util.now (); reply = line }))
    (recv c ~timeout)

(* Drain what is in flight; give up on stragglers after [grace] s (they
   count as missing in [check_ids]). *)
let drain tbl c on ~grace =
  let deadline = Util.now () +. grace in
  while Hashtbl.length tbl > 0 && Util.now () < deadline && not c.eof do
    complete tbl c ~timeout:0.5 on
  done;
  Hashtbl.reset tbl

(* Closed loop: [window] requests in flight until [stop ()]. *)
let closed_loop c m ~stop (on : obs -> unit) =
  let tbl = Hashtbl.create 64 in
  while not (stop ()) do
    while Hashtbl.length tbl < window && not (stop ()) do
      let r = next m in
      let t = Util.now () in
      send c r;
      Hashtbl.replace tbl r.id (r, t, t)
    done;
    complete tbl c ~timeout:1.0 on;
    if c.eof then failwith "sbdserve exited"
  done;
  drain tbl c on ~grace:60.0

(* Open loop: [requests] requests at Poisson arrivals of [rate]; each
   is sent at its due time (or as soon after as the generator can).  The
   count is fixed, not the duration, so that the same requests of the
   sequence fall into each segment whatever the seed: the seed moves
   their arrival times only. *)
let open_loop c m ~requests ~st (on : obs -> unit) ~late =
  let tbl = Hashtbl.create 64 in
  let t0 = Util.now () +. 0.05 in
  let due = ref t0 in
  let next_gap () = -.log (1.0 -. Random.State.float st 1.0) /. rate in
  let sent = ref 0 in
  while !sent < requests do
    let now = Util.now () in
    if now >= !due then begin
      incr sent;
      let r = next m in
      send c r;
      Util.Samples.add late (Util.now () -. !due);
      Hashtbl.replace tbl r.id (r, Util.now (), !due);
      due := !due +. next_gap ()
    end
    else complete tbl c ~timeout:(!due -. now) on
  done;
  drain tbl c on ~grace:60.0

(* -- the run --------------------------------------------------------------- *)

(* Responses are checked after the load stops, so that the checker never
   delays the generator. *)
type acc = { mutable seen : obs list }

let checker acc (o : obs) =
  acc.seen <- o :: acc.seen

let settle acc : Oracle.tally =
  let tally = Oracle.tally () in
  List.iter
    (fun o ->
      let outcome = check o.r (doc_of o) in
      Oracle.record tally outcome;
      match outcome with
      | Error f -> Util.info "serve-zipf FAIL id %d: %s :: %s" o.r.id (Oracle.string_of_fault f) o.r.line
      | Ok _ -> ())
    (List.rev acc.seen);
  List.iter
    (fun f ->
      Util.info "serve-zipf FAIL %s" (Oracle.string_of_fault f);
      Oracle.record tally (Error f))
    !id_faults;
  id_faults := [];
  tally

(* Spawn to first reply on a fresh server, after a full major
   collection in this process. *)
let setup_once sbdserve =
  Gc.full_major ();
  with_server sbdserve (fun c -> snd (Util.time (fun () -> stats c)))

(* Closed loop, a block at a time, for [warmup_blocks] blocks and until
   the worker has cleared its memo tables once; returns the number of
   requests it took. *)
let warm_up c m acc =
  let id0 = m.next_id in
  let rec go () =
    let sent = m.next_id - id0 in
    if
      sent < warmup_blocks * block
      || (sent < warmup_cap && stat "service.worker.memo_clears" (stats c) < 1.0)
    then begin
      closed_loop c m ~stop:(fun () -> m.next_id - id0 >= sent + block) (checker acc);
      go ()
    end
  in
  go ();
  m.next_id - id0

(* Closed loop to the next block boundary, unmeasured. *)
let to_boundary c m acc =
  let boundary = ((m.next_id - 1 + block - 1) / block * block) + 1 in
  closed_loop c m ~stop:(fun () -> m.next_id >= boundary) (checker acc)

(* One whole block in closed loop: (requests, seconds). *)
let capacity_block c m acc =
  let id0 = m.next_id in
  let t0 = Util.now () in
  closed_loop c m ~stop:(fun () -> m.next_id - id0 >= block) (checker acc);
  (m.next_id - id0, Util.now () -. t0)

(* The measured session is [rounds] rounds of: set-ups on fresh
   servers; an open-loop segment on the main server; closed loop to the
   next block boundary; one capacity block.  Each open-loop
   segment takes fewer requests than a block, so the capacity blocks are
   the same blocks in every run, and every metric samples the whole run
   rather than one stretch of it: the host under test drifts by tens of
   percent within a minute (README.md). *)
let rounds = 8
let setups_per_round = 2

let run ~sbdserve ~seed ~seconds : Util.metric list * Oracle.tally * float =
  let acc = { seen = [] } in
  ignore (Lazy.force corpus);
  let late = Util.Samples.create () and lat = Util.Samples.create () in
  let setups = ref [] and blocks = ref [] in
  let st = Random.State.make [| seed; 0x0a11 |] in
  let segment =
    min (block - 1) (max 1 (int_of_float (0.65 *. seconds /. float_of_int rounds *. rate)))
  in
  let m = mix () in
  let rss, warm, clears =
    with_server sbdserve (fun c ->
        let warm = warm_up c m acc in
        for _ = 1 to rounds do
          for _ = 1 to setups_per_round do
            setups := setup_once sbdserve :: !setups
          done;
          open_loop c m ~requests:segment ~st ~late (fun o ->
              checker acc o;
              Util.Samples.add lat (o.recv -. o.due));
          to_boundary c m acc;
          blocks := capacity_block c m acc :: !blocks
        done;
        let clears = stat "service.worker.memo_clears" (stats c) in
        (Util.peak_rss_mb ~pid:(string_of_int c.pid) (), warm, clears))
  in
  let tally = settle acc in
  let lat = Util.Samples.to_array lat and late = Util.Samples.to_array late in
  let n = List.fold_left (fun a (n, _) -> a + n) 0 !blocks
  and dt = List.fold_left (fun a (_, dt) -> a +. dt) 0.0 !blocks in
  Util.info "serve-zipf: capacity per block %s req/s"
    (String.concat " "
       (List.rev_map (fun (n, dt) -> Printf.sprintf "%.0f" (float_of_int n /. dt)) !blocks));
  Util.info
    "serve-zipf: warm-up %d requests, %d open-loop samples, %.0f memo clears, p90_ms %.3f p99_ms %.3f"
    warm (Array.length lat) clears (1e3 *. Util.quantile lat 0.9) (1e3 *. Util.quantile lat 0.99);
  ( [
      Util.m "setup_s" "s" (Util.median_l !setups);
      Util.m "ops_per_s" "1/s" (float_of_int n /. dt);
      Util.m "p50_ms" "ms" (1e3 *. Util.median lat);
      Util.m "peak_rss_mb" "MB" rss;
    ],
    tally,
    1e3 *. Util.quantile late 0.99 )

(* -- the traced run ---------------------------------------------------------- *)

module Replica = struct
  module B = Sbd_alphabet.Bdd.Make ()
  module R = Sbd_regex.Regex.Make (B)
  module P = Sbd_regex.Parser.Make (R)
  module C = Sbd_contain.Contain.Make (R)
end

let overhead_requests = 200
let traced_open_s = 5.0

let traced ~sbdserve ~seed : Util.metric list * Oracle.tally =
  let m = mix () in
  let acc = { seen = [] } in
  let late = Util.Samples.create () in
  let service = Util.Samples.create () and wait = Util.Samples.create () in
  let lines = ref [] and docs = ref [] in
  let record_span name (o : obs) = Trace.record ~req:o.r.id name o.sent o.recv in
  let overhead, st =
    with_server sbdserve (fun c ->
        ignore (warm_up c m acc);
        (* the same closed-loop load, untraced and traced in turn *)
        let phase () =
          let id0 = m.next_id in
          closed_loop c m ~stop:(fun () -> m.next_id - id0 >= overhead_requests) (fun o ->
              checker acc o;
              record_span "client.request" o)
        in
        let overhead = Trace.overhead phase in
        Trace.enabled := true;
        let st = Random.State.make [| seed; 0x0a11 |] in
        open_loop c m ~requests:(int_of_float (traced_open_s *. rate)) ~st ~late (fun o ->
            checker acc o;
            record_span "client.request" o;
            let d = doc_of o in
            lines := o.r.line :: !lines;
            docs := d :: !docs;
            let wall = Option.value ~default:nan (Jsonin.float_member "wall_s" d) in
            Util.Samples.add service wall;
            Util.Samples.add wait (o.recv -. o.due -. wall));
        Trace.enabled := false;
        (overhead, stats c))
  in
  (* protocol decode and encode, in this process on the same lines; per
     line as the loop's wall time over the line count, since one call is
     close to the clock's resolution *)
  Trace.enabled := true;
  let per_line f xs = 1e6 *. snd (Util.time (fun () -> List.iter f xs)) /. float_of_int (List.length xs) in
  let decode_us =
    per_line
      (fun l -> ignore (Trace.span "protocol.parse_request" (fun () -> Sbd_service.Protocol.parse_request l)))
      !lines
  in
  let encode_us = per_line (fun d -> ignore (Trace.span "json.encode" (fun () -> J.to_string d))) !docs in
  (* the containment prover on its own, over the pair corpus *)
  let cs = Replica.C.create_session () in
  List.iter
    (fun (p : Pairs.t) ->
      match (Replica.P.parse p.left, Replica.P.parse p.right) with
      | Ok l, Ok r ->
        ignore
          (Trace.span "contain.query" (fun () ->
               match p.mode with
               | Pairs.Subset -> Replica.C.subset cs l r
               | Pairs.Equiv -> Replica.C.equiv cs l r))
      | Error _, _ | _, Error _ -> ())
    (Pairs.all ());
  Trace.enabled := false;
  let tally = settle acc in
  let us name = 1e6 *. Util.median (Trace.durations name) in
  let service = Util.Samples.to_array service and wait = Util.Samples.to_array wait in
  let hits = stat "service.cache.hits" st and misses = stat "service.cache.misses" st in
  ( [
      Util.m "service.decode_us" "us" decode_us;
      Util.m "service.encode_us" "us" encode_us;
      Util.m "service.service_ms.p50" "ms" (1e3 *. Util.median service);
      Util.m "service.service_ms.p90" "ms" (1e3 *. Util.quantile service 0.9);
      Util.m "service.wait_ms.p50" "ms" (1e3 *. Util.median wait);
      Util.m "service.wait_ms.p90" "ms" (1e3 *. Util.quantile wait 0.9);
      Util.m "service.cache_hit_ratio" "ratio" (hits /. (hits +. misses));
      Util.m "service.memo_clears" "count" (stat "service.worker.memo_clears" st);
      Util.m "service.engine_compiles" "count" (stat "engine.compiles" st);
      Util.m "contain.query_us" "us" (us "contain.query");
      Util.m "contain.expansions" "count"
        (Option.value ~default:nan (List.assoc_opt "contain.expansions" (Replica.C.session_stats cs)));
      Util.m "loadgen.late_ms" "ms" (1e3 *. Util.quantile (Util.Samples.to_array late) 0.99);
      Util.m "trace.overhead_ms.serve-zipf" "ms" (1e3 *. overhead);
    ],
    tally )
