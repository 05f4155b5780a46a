(* Spans recorded around the benchmark's calls into each layer.

   A span has a name, start, end, the span that encloses it and a
   request id.  Spans stay in memory while the run measures and are
   written out when it ends.  With tracing off [span] is a direct call. *)

type span = {
  name : string;
  start : float;
  mutable stop : float;
  parent : int;  (** index of the enclosing span, or -1 *)
  req : int;  (** request/instance id, or -1 *)
  mutable child_s : float;  (** summed duration of direct children *)
}

let enabled = ref false
let spans : span array ref = ref [||]
let count = ref 0
let current = ref (-1)

let push sp =
  if !count = Array.length !spans then begin
    let a = Array.make (max 1024 (2 * !count)) sp in
    Array.blit !spans 0 a 0 !count;
    spans := a
  end;
  !spans.(!count) <- sp;
  incr count;
  !count - 1

let span ?(req = -1) name f =
  if not !enabled then f ()
  else begin
    let parent = !current in
    let id =
      push { name; start = Util.now (); stop = nan; parent; req; child_s = 0.0 }
    in
    current := id;
    let finish () =
      let sp = !spans.(id) in
      sp.stop <- Util.now ();
      current := parent;
      if parent >= 0 then
        let p = !spans.(parent) in
        p.child_s <- p.child_s +. (sp.stop -. sp.start)
    in
    match f () with
    | v ->
      finish ();
      v
    | exception e ->
      finish ();
      raise e
  end

(* A span whose start and end were taken elsewhere, such as a request
   sent now and answered later; it has no parent. *)
let record ?(req = -1) name start stop =
  if !enabled then
    ignore (push { name; start; stop; parent = -1; req; child_s = 0.0 })

(* Tracing overhead of [f]: the median, over [reps] alternations, of its
   traced minus its untraced wall time.  Spans recorded here are kept. *)
let overhead ?(reps = 5) f =
  let diffs =
    List.init reps (fun _ ->
        enabled := false;
        let untraced = snd (Util.time f) in
        enabled := true;
        let traced = snd (Util.time f) in
        traced -. untraced)
  in
  enabled := false;
  Util.median_l diffs

(* Self time of a span: its duration minus that of its children. *)
let self_s sp = sp.stop -. sp.start -. sp.child_s

let durations name : float array =
  let acc = Util.Samples.create () in
  for i = 0 to !count - 1 do
    let sp = !spans.(i) in
    if sp.name = name then Util.Samples.add acc (sp.stop -. sp.start)
  done;
  Util.Samples.to_array acc

(* Write every span as one tab-separated line:
   index, name, start, end, parent, request id, self time. *)
let write path =
  let dir = Filename.dirname path in
  (try Sys.mkdir dir 0o755 with Sys_error _ -> ());
  let oc = open_out path in
  output_string oc "index\tname\tstart_s\tend_s\tparent\treq\tself_s\n";
  for i = 0 to !count - 1 do
    let sp = !spans.(i) in
    Printf.fprintf oc "%d\t%s\t%.6f\t%.6f\t%d\t%d\t%.9f\n" i sp.name sp.start
      sp.stop sp.parent sp.req (self_s sp)
  done;
  close_out oc

(* Per-name summary lines: calls and total self time. *)
let summary () =
  let tbl = Hashtbl.create 32 in
  for i = 0 to !count - 1 do
    let sp = !spans.(i) in
    let n, s = Option.value ~default:(0, 0.0) (Hashtbl.find_opt tbl sp.name) in
    Hashtbl.replace tbl sp.name (n + 1, s +. self_s sp)
  done;
  Hashtbl.fold (fun name (n, s) acc -> (name, n, s) :: acc) tbl []
  |> List.sort compare
