(* solve-corpus: the Fig. 4 corpus decided one instance at a time,
   closed loop on one thread, through [Worker.solve_pattern] on a fresh
   worker tower per pass.  Every pass starts cold, so a gain cannot hide
   in memo tables warmed by an earlier pass. *)

module I = Sbd_benchgen.Instance
module Pr = Sbd_service.Protocol

let verdict_of = function
  | Ok (Pr.Sat { codepoints; _ }, _) -> Oracle.Sat codepoints
  | Ok (Pr.Unsat, _) -> Oracle.Unsat
  | Ok (Pr.Unknown why, _) -> Oracle.Unknown why
  | Error msg -> Oracle.Failed msg

let new_worker () = Sbd_service.Worker.create ()

type inputs = { corpus : I.t array; expects : Oracle.expect Lazy.t array }

(* The corpus in its suite order, whatever the seed: the order alone
   moves a pass's cost by up to four times (see README.md), so a
   seed-dependent order would measure the seed, not the program. *)
let inputs () =
  let corpus = Array.of_list (Sbd_benchgen.Standard.all ()) in
  { corpus; expects = Array.map (fun inst -> lazy (Oracle.expect_of_instance inst)) corpus }

let check inp i v =
  let inst = inp.corpus.(i) in
  let expect =
    match v with
    | Oracle.Unsat -> Lazy.force inp.expects.(i)
    | Oracle.Sat _ | Oracle.Unknown _ | Oracle.Failed _ | Oracle.Missing ->
      Oracle.Label (inst.expected <> I.Unsat)
  in
  let o = Oracle.check_solve ~pattern:inst.pattern ~expect v in
  (match o with
  | Error f ->
    Util.info "solve-corpus FAIL %s %S: %s" inst.id inst.pattern (Oracle.string_of_fault f)
  | Ok _ -> ());
  o

(* One cold pass; returns its wall time.  Each latency goes to [lat];
   [gauge i memo_entries] runs after query [i], outside its latency. *)
let pass ?(gauge = fun _ _ -> ()) inp tally lat =
  let (module W : Sbd_service.Worker.WORKER) = new_worker () in
  let n = Array.length inp.corpus in
  let results = Array.make n (Error "") in
  let t_pass = Util.now () in
  for i = 0 to n - 1 do
    let pat = inp.corpus.(i).I.pattern in
    let t0 = Util.now () in
    let r = Trace.span ~req:i "worker.solve_pattern" (fun () -> W.solve_pattern pat) in
    Util.Samples.add lat (Util.now () -. t0);
    results.(i) <- r;
    gauge i W.memo_entries
  done;
  let wall = Util.now () -. t_pass in
  Array.iteri (fun i r -> Oracle.record tally (check inp i (verdict_of r))) results;
  wall

(* Set-ups are taken between passes, [setups_per_pass] at a time, so
   that they sample the whole run.  A calibration kernel ([Calib]) runs
   before and after every pass; each pass's wall time and latencies are
   scaled by [Calib.reference_s] over the mean of its two kernel times,
   which takes out the host's speed at that moment (README.md, "Host
   drift").  Pass figures are medians over all passes. *)
let setups_per_pass = 4
let min_passes = 4

let run ~seconds : Util.metric list * Oracle.tally =
  let inp = inputs () in
  let tally = Oracle.tally () in
  let setups = ref [] and passes = ref [] and t_start = Util.now () in
  let cal = ref (Calib.time ()) in
  while List.length !passes < min_passes || Util.now () -. t_start < seconds do
    for _ = 1 to setups_per_pass do
      setups := snd (Util.timed_setup new_worker) :: !setups
    done;
    Gc.full_major ();
    let lat = Util.Samples.create () in
    let wall = pass inp tally lat in
    let cal_after = Calib.time () in
    let scale = Calib.reference_s /. ((!cal +. cal_after) /. 2.0) in
    passes := (wall, scale, !cal, Util.Samples.to_array lat) :: !passes;
    cal := cal_after
  done;
  let n = float_of_int (Array.length inp.corpus) in
  let wall = Util.median_l (List.map (fun (w, k, _, _) -> w *. k) !passes) in
  let lat = Array.concat (List.map (fun (_, k, _, l) -> Array.map (fun x -> x *. k) l) !passes) in
  let raw_wall = Util.median_l (List.map (fun (w, _, _, _) -> w) !passes) in
  let raw_lat = Array.concat (List.map (fun (_, _, _, l) -> l) !passes) in
  Util.info "solve-corpus: %d passes of %d instances, pass wall / kernel s: %s, unchecked %d"
    (List.length !passes) (Array.length inp.corpus)
    (String.concat " " (List.rev_map (fun (w, _, c, _) -> Printf.sprintf "%.3f/%.3f" w c) !passes))
    tally.unchecked;
  Util.info "solve-corpus: unscaled ops_per_s %.1f p50_ms %.3f" (n /. raw_wall)
    (1e3 *. Util.median raw_lat);
  Util.info "solve-corpus: p90_ms %.3f p99_ms %.3f over %d samples"
    (1e3 *. Util.quantile lat 0.9) (1e3 *. Util.quantile lat 0.99) (Array.length lat);
  ( [
      Util.m "setup_s" "s" (Util.median_l !setups);
      Util.m "ops_per_s" "1/s" (n /. wall);
      Util.m "p50_ms" "ms" (1e3 *. Util.median lat);
      Util.m "peak_rss_mb" "MB" (Util.peak_rss_mb ());
    ],
    tally )

(* -- the traced run ------------------------------------------------------ *)

(* A replica of the worker's solver tower, built from the same functors,
   so that each layer's public function can be timed on its own. *)
module Replica () = struct
  module B = Sbd_alphabet.Bdd.Make ()
  module R = Sbd_regex.Regex.Make (B)
  module P = Sbd_regex.Parser.Make (R)
  module S = Sbd_solver.Solve.Make (R)
  module Ab = Sbd_absdom.Absdom.Make (R)
end

let stat name stats = Option.value ~default:nan (List.assoc_opt name stats)

let overhead_prefix = 200

let traced () : Util.metric list * Oracle.tally =
  let inp = inputs () in
  let tally = Oracle.tally () in
  let n = Array.length inp.corpus in
  (* tracing overhead on the first [overhead_prefix] instances *)
  let prefix = { inp with corpus = Array.sub inp.corpus 0 overhead_prefix } in
  let overhead =
    Trace.overhead (fun () ->
        Gc.full_major ();
        ignore (pass prefix (Oracle.tally ()) (Util.Samples.create ())))
  in
  Trace.enabled := true;
  Gc.full_major ();
  let gauges = Util.Samples.create () in
  let gauge i memo_entries =
    if i mod 100 = 99 then
      let _, dt = Util.time (fun () -> Trace.span "worker.memo_entries" memo_entries) in
      Util.Samples.add gauges dt
  in
  let a0 = Util.alloc_mb () in
  let lat = Util.Samples.create () in
  ignore (pass ~gauge inp tally lat);
  let alloc = Util.alloc_mb () -. a0 in
  let lat = Util.Samples.to_array lat in
  (* replica pass with the pre-solver on, as the worker runs it: the
     worker's own cost is its latency minus parse and solve *)
  let module Ra = Replica () in
  let sa = Ra.S.create_session () in
  let base = Array.make n 0.0 in
  Array.iteri
    (fun i (inst : I.t) ->
      let r, tp =
        Util.time (fun () -> Trace.span ~req:i "regex.parse" (fun () -> Ra.P.parse inst.pattern))
      in
      let ts =
        match r with
        | Ok r ->
          snd (Util.time (fun () -> Trace.span ~req:i "solver.solve" (fun () -> Ra.S.solve sa r)))
        | Error _ -> 0.0
      in
      base.(i) <- tp +. ts)
    inp.corpus;
  let worker_overhead = Array.mapi (fun i b -> lat.(i) -. b) base in
  (* replica pass with the pre-solver off: parse, abstract domain and
     the derivative search each on their own *)
  let module Rb = Replica () in
  let sb = Rb.S.create_session () in
  let decided = ref 0 and solve_s = ref 0.0 in
  Array.iteri
    (fun i (inst : I.t) ->
      match Trace.span ~req:i "regex.parse" (fun () -> Rb.P.parse inst.pattern) with
      | Error _ -> ()
      | Ok r ->
        (match Trace.span ~req:i "absdom.presolve" (fun () -> Rb.Ab.presolve r) with
        | Rb.Ab.Unsat_proved | Rb.Ab.Sat_witnessed _ -> incr decided
        | Rb.Ab.Unknown -> ());
        let _, dt =
          Util.time (fun () ->
              Trace.span ~req:i "solver.solve_nopre" (fun () ->
                  Rb.S.solve ~presolve:false sb r))
        in
        solve_s := !solve_s +. dt)
    inp.corpus;
  let stats = Rb.S.session_stats sb in
  let memo_entries = Rb.S.D.memo_entries () in
  (* cold symbolic derivatives of every pattern on a fresh tower *)
  let module Rc = Replica () in
  let module Dc = Sbd_core.Deriv.Make (Rc.R) in
  let parsed =
    Array.map (fun (inst : I.t) -> Result.to_option (Rc.P.parse inst.pattern)) inp.corpus
  in
  let (), dnf_s =
    Util.time (fun () ->
        Array.iteri
          (fun i r ->
            Option.iter
              (fun r -> ignore (Trace.span ~req:i "deriv.delta_dnf" (fun () -> Dc.delta_dnf r)))
              r)
          parsed)
  in
  Trace.enabled := false;
  let per_call name scale = Util.median (Trace.durations name) *. scale in
  ( [
      Util.m "regex.parse_us" "us" (per_call "regex.parse" 1e6);
      Util.m "absdom.presolve_us" "us" (per_call "absdom.presolve" 1e6);
      Util.m "absdom.decided" "count" (float_of_int !decided);
      Util.m "solver.solve_ms" "ms" (1e3 *. !solve_s);
      Util.m "solver.expansions" "count" (stat "session.expansions" stats);
      Util.m "solver.graph_vertices" "count" (stat "session.graph_vertices" stats);
      Util.m "deriv.delta_dnf_ms" "ms" (1e3 *. dnf_s);
      Util.m "deriv.memo_entries" "count" (float_of_int memo_entries);
      Util.m "worker.gauge_ms" "ms" (1e3 *. Util.median (Util.Samples.to_array gauges));
      Util.m "worker.overhead_ms" "ms" (1e3 *. Util.median worker_overhead);
      Util.m "gc.alloc_mb" "MB" alloc;
      Util.m "trace.overhead_ms.solve-corpus" "ms" (1e3 *. overhead);
    ],
    tally )
