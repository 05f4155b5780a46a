(* Clocks, order statistics, process gauges and the result line. *)

let now = Unix.gettimeofday

let time f =
  let t0 = now () in
  let v = f () in
  (v, now () -. t0)

(* Quantile of an unsorted sample, linear interpolation between order
   statistics (the "inclusive" method). *)
let quantile (xs : float array) (q : float) : float =
  let n = Array.length xs in
  if n = 0 then nan
  else begin
    let s = Array.copy xs in
    Array.sort compare s;
    let pos = q *. float_of_int (n - 1) in
    let i = int_of_float pos in
    if i >= n - 1 then s.(n - 1)
    else s.(i) +. ((pos -. float_of_int i) *. (s.(i + 1) -. s.(i)))
  end

let median xs = quantile xs 0.5
let median_l xs = median (Array.of_list xs)

(* The faster half of a run's repetitions (those at or below the median
   [time]).  The host under test slows down in stretches of a few
   seconds, by up to a third (README.md); a repetition that fell into
   one says more about the host than about the program. *)
let faster_half ~time xs =
  let sorted = List.sort (fun a b -> compare (time a) (time b)) xs in
  List.filteri (fun i _ -> i < (List.length sorted + 1) / 2) sorted

(* Growable sample buffer. *)
module Samples = struct
  type t = { mutable a : float array; mutable n : int }

  let create () = { a = Array.make 1024 0.0; n = 0 }

  let add t x =
    if t.n = Array.length t.a then begin
      let a = Array.make (2 * t.n) 0.0 in
      Array.blit t.a 0 a 0 t.n;
      t.a <- a
    end;
    t.a.(t.n) <- x;
    t.n <- t.n + 1

  let to_array t = Array.sub t.a 0 t.n
end

(* Peak resident set (VmHWM) of a process, in MB. *)
let peak_rss_mb ?(pid = "self") () : float =
  let path = Printf.sprintf "/proc/%s/status" pid in
  match open_in path with
  | exception Sys_error _ -> nan
  | ic ->
    let rec scan () =
      match input_line ic with
      | exception End_of_file -> nan
      | line ->
        if String.length line > 6 && String.sub line 0 6 = "VmHWM:" then
          Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d kB"
            (fun kb -> float_of_int kb /. 1024.0)
        else scan ()
    in
    let v = scan () in
    close_in ic;
    v

let alloc_mb () = Gc.allocated_bytes () /. 1e6

(* Set-up is timed after a full major collection, so that the garbage
   of earlier set-ups and input generation is not collected inside the
   timed window. *)
let timed_setup f =
  Gc.full_major ();
  time f

(* Deterministic shuffle from the workload seed. *)
let shuffle seed (xs : 'a list) : 'a list =
  let st = Random.State.make [| seed |] in
  let a = Array.of_list xs in
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int st (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  Array.to_list a

(* -- the result line ------------------------------------------------ *)

type metric = { name : string; value : float; unit_ : string }

let m name unit_ value = { name; value; unit_ }

let print_result ~correct ~attempted ~failed (metrics : metric list) =
  let fmt_value v =
    if Float.is_nan v || Float.is_integer v && Float.abs v < 1e15 then
      if Float.is_nan v then "null" else Printf.sprintf "%.1f" v
    else Printf.sprintf "%.17g" v
  in
  let body =
    String.concat ", "
      (List.map
         (fun x ->
           Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" x.name
             (fmt_value x.value) x.unit_)
         metrics)
  in
  Printf.printf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    correct attempted failed body

(* Informational lines go to stdout before the result line, prefixed so
   that tools reading the last line can skip them. *)
let info fmt = Printf.ksprintf (fun s -> Printf.printf "# %s\n%!" s) fmt
