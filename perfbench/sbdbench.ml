(* Benchmark entry point (see README.md).

   sbdbench --workload W --seed N --seconds S --trace 0|1 [--sbdserve PATH]

   With --trace 0 it runs workload W for about S seconds and prints its
   end-to-end metrics; with --trace 1 it traces every layer on the
   seed's inputs of all three workloads and prints the per-layer
   metrics.  The last line of stdout is the result object. *)

let workloads = [ "solve-corpus"; "serve-zipf"; "match-scan" ]

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10.0 and trace = ref 0 in
  let sbdserve = ref "_build/default/bin/sbdserve.exe" in
  let trace_out = ref "" in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, " one of " ^ String.concat ", " workloads);
      ("--seed", Arg.Set_int seed, " input seed");
      ("--seconds", Arg.Set_float seconds, " measuring time");
      ("--trace", Arg.Set_int trace, " 1 = traced run (per-layer metrics)");
      ("--sbdserve", Arg.Set_string sbdserve, " server binary for serve-zipf");
      ("--trace-out", Arg.Set_string trace_out, " file for the recorded spans");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "sbdbench --workload W --seed N --seconds S --trace 0|1";
  if not (List.mem !workload workloads) then begin
    prerr_endline ("sbdbench: unknown workload " ^ !workload);
    exit 2
  end;
  Util.info "ocaml=%s workload=%s seed=%d seconds=%g trace=%d" Sys.ocaml_version
    !workload !seed !seconds !trace;
  match Oracle.self_test () with
  | Error why ->
    prerr_endline ("sbdbench: oracle self-test failed: " ^ why);
    exit 1
  | Ok () ->
    let seed = !seed in
    if !trace = 0 then begin
      let metrics, (t : Oracle.tally), late_ms =
        match !workload with
        | "solve-corpus" ->
          let m, t = Solve_corpus.run ~seconds:!seconds in
          (m, t, 0.0)
        | "serve-zipf" -> Serve_zipf.run ~sbdserve:!sbdserve ~seed ~seconds:!seconds
        | _ ->
          let m, t = Match_scan.run ~seed ~seconds:!seconds in
          (m, t, 0.0)
      in
      Util.info "%s: attempted %d failed %d wrong %d unchecked %d loadgen_late_p99_ms %.3f"
        !workload t.attempted t.failed t.wrong t.unchecked late_ms;
      Util.print_result ~correct:(t.wrong = 0) ~attempted:t.attempted ~failed:t.failed metrics
    end
    else begin
      let sc, tc = Solve_corpus.traced () in
      let sz, tz = Serve_zipf.traced ~sbdserve:!sbdserve ~seed in
      let ms, tm = Match_scan.traced ~seed in
      let total = Oracle.tally () in
      List.iter (Oracle.add_tally total) [ tc; tz; tm ];
      List.iter
        (fun (name, calls, self_s) ->
          Util.info "span %-28s calls %8d self %10.3f ms" name calls (1e3 *. self_s))
        (Trace.summary ());
      if !trace_out <> "" then Trace.write !trace_out;
      Util.info "traced: attempted %d failed %d wrong %d unchecked %d" total.attempted
        total.failed total.wrong total.unchecked;
      Util.print_result ~correct:(total.wrong = 0) ~attempted:total.attempted
        ~failed:total.failed (sc @ sz @ ms)
    end
