(* match-scan: a fixed pattern set, one pattern per class, scanned over
   a seeded haystack with planted matches, through [Worker.match_input]:
   hot rounds on one worker, with set-ups and cold rounds on fresh
   workers between them.

   The haystack filler is lowercase words, spaces and [,.]; every
   pattern's first character lies outside the filler and outside the
   other classes' tokens, so no match can start anywhere but at a
   planted token.  The leftmost-earliest span is therefore the first
   planted token of the class, with an end known from its shape. *)

module Pr = Sbd_service.Protocol

let haystack_bytes = 4 * 1024 * 1024
let plants_per_class = 40

type cls = {
  name : string;
  pattern : string;
  token : Random.State.t -> string;  (** a planted match *)
  match_len : int;  (** bytes from token start to the earliest match end *)
  located : (string * string) option;
      (** lookbehind body and matched body, for a located pattern *)
}

let digits st n = String.init n (fun _ -> Char.chr (48 + Random.State.int st 10))

let lower_no_x st n =
  String.init n (fun _ ->
      let c = Random.State.int st 25 in
      Char.chr (97 + if c >= 23 then c + 1 else c))

let classes =
  [
    { name = "literal"; pattern = "Holmes"; token = (fun _ -> "Holmes"); match_len = 6; located = None };
    {
      name = "class";
      pattern = "[0-9]{3}-[0-9]{4}";
      token = (fun st -> digits st 3 ^ "-" ^ digits st 4);
      match_len = 8;
      located = None;
    };
    {
      name = "boolean";
      pattern = "@[a-z]+&~(.*x.*)&.{4,}";
      token = (fun st -> "@" ^ lower_no_x st (4 + Random.State.int st 5));
      match_len = 4;
      located = None;
    };
    {
      name = "counter";
      pattern = "[A-Z]{2}[0-9]{4,6}";
      token = (fun st -> "KX" ^ digits st 6);
      match_len = 6;
      located = None;
    };
    {
      name = "lookaround";
      pattern = "(?<=#)[0-9]{3}";
      token = (fun st -> "#" ^ digits st 3);
      match_len = 4;
      located = Some ("#", "[0-9]{3}");
    };
  ]

(* The haystack, the same filler before planting (no match of any
   class), and per class the offset of its first planted token. *)
let haystack seed : string * string * (string * int) list =
  let st = Random.State.make [| seed; 0x4a57 |] in
  let b = Bytes.create haystack_bytes in
  let i = ref 0 in
  while !i < haystack_bytes do
    let w = 2 + Random.State.int st 8 in
    for k = 0 to w - 1 do
      if !i + k < haystack_bytes then Bytes.set b (!i + k) (Char.chr (97 + Random.State.int st 26))
    done;
    i := !i + w;
    if !i < haystack_bytes then
      Bytes.set b !i (match Random.State.int st 12 with 0 -> ',' | 1 -> '.' | _ -> ' ');
    incr i
  done;
  let filler = Bytes.to_string b in
  (* one token per slot, slots dealt to classes in a seeded order *)
  let nslots = plants_per_class * List.length classes in
  let slot = haystack_bytes / nslots in
  let owners =
    Util.shuffle seed (List.concat_map (fun c -> List.init plants_per_class (fun _ -> c)) classes)
  in
  let first = Hashtbl.create 8 in
  List.iteri
    (fun k c ->
      let tok = c.token st in
      (* a filler byte on both sides keeps tokens apart *)
      let pos = (k * slot) + 1 + Random.State.int st (slot - String.length tok - 2) in
      Bytes.blit_string tok 0 b pos (String.length tok);
      if not (Hashtbl.mem first c.name) then Hashtbl.add first c.name pos)
    owners;
  (Bytes.to_string b, filler, List.map (fun c -> (c.name, Hashtbl.find first c.name)) classes)

(* -- checking ------------------------------------------------------------- *)

let check hay first (c : cls) (r : (Pr.match_verdict * _, string) result) : Oracle.outcome =
  let p = List.assoc c.name first in
  match r with
  | Error e -> Error (Oracle.Unanswered e)
  | Ok (Pr.Match_unknown why, _) -> Error (Oracle.Unanswered ("unknown: " ^ why))
  | Ok (Pr.Matched { full; span; found_end }, _) -> (
    if full then Error (Oracle.Wrong "full match on the haystack")
    else
      match c.located with
      | None -> Oracle.check_span ~pattern:c.pattern ~haystack:hay ~expected:(Some (p, p + c.match_len)) span
      | Some (behind, body) ->
        let slice i j = Oracle.codepoints (String.sub hay i (j - i)) in
        if found_end <> Some (p + c.match_len) then Error (Oracle.Wrong "match end differs from the planted end")
        else if
          Oracle.member behind (slice p (p + 1)) && Oracle.member body (slice (p + 1) (p + c.match_len))
        then Ok true
        else Error (Oracle.Wrong "reported match outside the lookbehind or the body"))

(* -- the run --------------------------------------------------------------- *)

let fresh_worker () =
  let (module W : Sbd_service.Worker.WORKER) = Sbd_service.Worker.create () in
  List.iter (fun c -> ignore (W.match_input ~pattern:c.pattern ~input:"" ())) classes;
  (module W : Sbd_service.Worker.WORKER)

let round_time = Array.fold_left ( +. ) 0.0

(* Geometric mean over the classes of [mb / median time]: each class
   weighs the same, where a bytes-over-time total would be four-fifths
   lookaround. *)
let geomean_mb_s mb (rows : float array list) =
  let ncls = List.length classes in
  let logs =
    List.init ncls (fun k -> log (mb /. Util.median_l (List.map (fun r -> r.(k)) rows)))
  in
  exp (List.fold_left ( +. ) 0.0 logs /. float_of_int ncls)

(* Before every [cold_every]-th hot round, a cold scan on a fresh
   worker; before every round, a set-up.  Cold scans and set-ups thus
   sample the whole run, not its first seconds. *)
let cold_every = 2

let run ~seed ~seconds : Util.metric list * Oracle.tally =
  let hay, _, first = haystack seed in
  let tally = Oracle.tally () in
  let record c r =
    let o = check hay first c r in
    (match o with
    | Error f -> Util.info "match-scan FAIL %s: %s" c.name (Oracle.string_of_fault f)
    | Ok _ -> ());
    Oracle.record tally o
  in
  let mb = float_of_int haystack_bytes /. 1e6 in
  (* one scan of each class, in class order: their times *)
  let round (module W : Sbd_service.Worker.WORKER) =
    Array.of_list
      (List.map
         (fun c ->
           let r, dt = Util.time (fun () -> W.match_input ~pattern:c.pattern ~input:hay ()) in
           record c r;
           dt)
         classes)
  in
  let setups = ref [] and colds = ref [] and hots = ref [] in
  let w = fresh_worker () in
  ignore (round w);
  let t_start = Util.now () in
  while List.length !hots < 2 * cold_every || Util.now () -. t_start < seconds do
    let w', dt = Util.timed_setup fresh_worker in
    setups := dt :: !setups;
    if List.length !hots mod cold_every = 0 then begin
      Gc.full_major ();
      colds := round w' :: !colds
    end;
    Gc.full_major ();
    hots := round w :: !hots
  done;
  (* time statistics over the faster half of the rounds *)
  let hot = Util.faster_half ~time:round_time !hots
  and cold = Util.faster_half ~time:round_time !colds in
  let round_s = Util.median_l (List.map round_time hot) in
  let lat = Array.concat hot in
  Util.info "match-scan: %d hot rounds and %d cold scans of %d patterns, %.1f MiB haystack"
    (List.length !hots) (List.length !colds) (List.length classes)
    (float_of_int haystack_bytes /. 1048576.0);
  Util.info "match-scan: round s, all hot rounds in order: %s"
    (String.concat " "
       (List.rev_map (fun r -> Printf.sprintf "%.3f" (round_time r)) !hots));
  List.iteri
    (fun k c ->
      let rate rows = mb /. Util.median_l (List.map (fun r -> r.(k)) rows) in
      Util.info "match-scan: %-10s %-24s cold %8.1f MB/s  hot %8.1f MB/s" c.name c.pattern
        (rate cold) (rate hot))
    classes;
  ( [
      Util.m "setup_s" "s" (Util.median_l !setups);
      Util.m "ops_per_s" "1/s" (float_of_int (List.length classes) /. round_s);
      Util.m "p50_ms" "ms" (1e3 *. Util.median lat);
      Util.m "p90_ms" "ms" (1e3 *. Util.quantile lat 0.9);
      Util.m "mb_s" "MB/s" (geomean_mb_s mb hot);
      Util.m "cold_mb_s" "MB/s" (geomean_mb_s mb cold);
      Util.m "peak_rss_mb" "MB" (Util.peak_rss_mb ());
    ],
    tally )

(* -- the traced run --------------------------------------------------------- *)

module Replica = struct
  module B = Sbd_alphabet.Bdd.Make ()
  module R = Sbd_regex.Regex.Make (B)
  module P = Sbd_regex.Parser.Make (R)
  module An = Sbd_analysis.Analyze.Make (R)
  module Eng = Sbd_engine.Search.Make (R)
  module LR = Sbd_locregex.Locregex.Make (R)
  module LP = Sbd_locregex.Locparser.Make (LR)
  module LM = Sbd_engine.Locmatch.Make (LR)
end

let reps = 5

let traced ~seed : Util.metric list * Oracle.tally =
  let open Replica in
  let hay, filler, first = haystack seed in
  let tally = Oracle.tally () in
  let mb = float_of_int haystack_bytes /. 1e6 in
  let timed name f = snd (Util.time (fun () -> Trace.span name f)) in
  (* median of [reps] timed calls, after the call that fills the DFA *)
  let hot name f =
    ignore (f ());
    Util.median_l (List.init reps (fun _ -> timed name f))
  in
  let (module W) = fresh_worker () in
  let worker c () = W.match_input ~pattern:c.pattern ~input:hay () in
  let round () =
    List.iter
      (fun c -> Oracle.record tally (check hay first c (Trace.span "worker.match_input" (worker c))))
      classes
  in
  round ();
  let overhead = Trace.overhead round in
  Trace.enabled := true;
  (* the worker's own cost: its call minus the engine calls it makes,
     in alternation on the same input *)
  let worker_minus direct c =
    Util.median_l
      (List.init reps (fun _ ->
           let w = timed "worker.match_input" (worker c) in
           w -. direct ()))
  in
  let per_class = ref [] and compile = ref 0.0 and cold_fill = ref 0.0 in
  let states = ref 0 and resets = ref 0 and accel = ref 0 and overheads = ref [] in
  let loc_mb_s = ref nan in
  List.iter
    (fun c ->
      match c.located with
      | Some _ -> (
        match LP.parse c.pattern with
        | Error _ -> ()
        | Ok t ->
          let e = Trace.span "locmatch.create" (fun () -> LM.create ~mode:Sbd_engine.Byteclass.Utf8 t) in
          let cold = timed "locmatch.run" (fun () -> LM.run e hay) in
          let run = hot "locmatch.run" (fun () -> LM.run e hay) in
          cold_fill := !cold_fill +. (cold -. run);
          loc_mb_s := mb /. run;
          overheads := worker_minus (fun () -> timed "locmatch.run" (fun () -> LM.run e hay)) c :: !overheads)
      | None -> (
        match P.parse c.pattern with
        | Error _ -> ()
        | Ok r ->
          let mk r =
            Eng.create ~max_states:(An.hints_of (An.metrics_of r)).An.max_states
              ~mode:Sbd_engine.Byteclass.Utf8 r
          in
          let e, dc = Util.time (fun () -> Trace.span "engine.create" (fun () -> mk r)) in
          compile := !compile +. dc;
          let cold = timed "engine.find" (fun () -> Eng.find e hay) in
          let find = hot "engine.find" (fun () -> Eng.find e hay) in
          cold_fill := !cold_fill +. (cold -. find);
          (* no match in the filler: contains reads all of it *)
          let contains = hot "engine.contains" (fun () -> Eng.contains e filler) in
          (* a full anchored scan: the class wrapped in .*( ).* over the
             filler, which it does not match, so no early exit *)
          let full = mk (R.concat_list [ R.full; r; R.full ]) in
          let scan = hot "engine.matches" (fun () -> Eng.matches full filler) in
          overheads :=
            worker_minus
              (fun () ->
                timed "engine.matches" (fun () -> Eng.matches e hay)
                +. timed "engine.find" (fun () -> Eng.find e hay))
              c
            :: !overheads;
          let s = Eng.stats e in
          states := !states + s.Eng.fwd_states + s.Eng.unanch_states + s.Eng.back_states;
          resets := !resets + s.Eng.resets;
          accel := !accel + s.Eng.accel_bytes + s.Eng.back_accel_bytes;
          per_class :=
            [
              Util.m ("engine.find_mb_s." ^ c.name) "MB/s" (mb /. find);
              Util.m ("engine.contains_mb_s." ^ c.name) "MB/s" (mb /. contains);
              Util.m ("engine.matches_mb_s." ^ c.name) "MB/s" (mb /. scan);
            ]
            :: !per_class))
    classes;
  Trace.enabled := false;
  ( [
      Util.m "engine.compile_ms" "ms" (1e3 *. !compile);
      Util.m "engine.cold_fill_ms" "ms" (1e3 *. !cold_fill);
      Util.m "engine.dfa_states" "count" (float_of_int !states);
      Util.m "engine.dfa_resets" "count" (float_of_int !resets);
      Util.m "engine.accel_bytes" "count" (float_of_int !accel);
      Util.m "locmatch.mb_s" "MB/s" !loc_mb_s;
      Util.m "worker.match_overhead_ms" "ms" (1e3 *. Util.median_l !overheads);
      Util.m "trace.overhead_ms.match-scan" "ms" (1e3 *. overhead);
    ]
    @ List.concat (List.rev !per_class),
    tally )
