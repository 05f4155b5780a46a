(* A calibration kernel: a fixed amount of work of the same kind as the
   solver's (hash-consed terms, derivatives, hash tables, short-lived
   allocation, scans over large arrays) that shares no code with the
   program.  Its time, taken next to each measured repetition, reads the
   host's speed at that moment (see "Host drift" in README.md). *)

type re =
  | Eps
  | Chr of int
  | Cat of re * re
  | Alt of re list (* sorted, flattened, no duplicates; [Alt []] is empty *)
  | And of re list (* sorted, flattened, no duplicates, at least two *)
  | Not of re
  | Star of re

let empty = Alt []

let rec nullable = function
  | Chr _ -> false
  | Eps | Star _ -> true
  | Cat (a, b) -> nullable a && nullable b
  | Alt rs -> List.exists nullable rs
  | And rs -> List.for_all nullable rs
  | Not a -> not (nullable a)

(* Smart constructors normalise up to associativity, commutativity and
   idempotence, so that every pattern has finitely many derivatives. *)
let cat a b =
  match (a, b) with
  | Alt [], _ | _, Alt [] -> empty
  | Eps, x | x, Eps -> x
  | _ -> Cat (a, b)

let alt a b =
  let parts = function Alt rs -> rs | r -> [ r ] in
  match List.sort_uniq compare (parts a @ parts b) with [ r ] -> r | rs -> Alt rs

let conj a b =
  let parts = function And rs -> rs | r -> [ r ] in
  if a = empty || b = empty then empty
  else match List.sort_uniq compare (parts a @ parts b) with [ r ] -> r | rs -> And rs

let neg = function Not a -> a | a -> Not a

let rec deriv c = function
  | Eps -> empty
  | Chr d -> if c = d then Eps else empty
  | Cat (a, b) ->
    let d = cat (deriv c a) b in
    if nullable a then alt d (deriv c b) else d
  | Alt rs -> List.fold_left (fun acc r -> alt acc (deriv c r)) empty rs
  | And [] -> assert false
  | And (r :: rs) -> List.fold_left (fun acc r -> conj acc (deriv c r)) (deriv c r) rs
  | Not a -> neg (deriv c a)
  | Star a as s -> cat (deriv c a) s

let sigma = 4
let any = List.fold_left (fun acc c -> alt acc (Chr c)) empty (List.init sigma Fun.id)
let all = Star any
let rec word = function [] -> Eps | c :: cs -> cat (Chr c) (word cs)
let contains w = cat all (cat (word w) all)

(* Patterns of the shape the corpus uses: intersections of
   containment, complements and bounded gaps. *)
let patterns =
  let gap k = List.fold_left (fun acc _ -> cat any acc) Eps (List.init k Fun.id) in
  List.concat_map
    (fun k ->
      [
        conj (contains [ 0; 1; k mod sigma ]) (neg (contains [ 2; 2; 3 ]));
        conj (cat all (cat (Chr 0) (gap k))) (neg (cat all (cat (Chr 1) (gap k))));
        conj (contains [ 1; k mod sigma ]) (conj (contains [ 3; 0 ]) (neg (contains [ 0; 0; 0 ])));
      ])
    [ 3; 4; 5; 6; 7 ]

(* Explore the derivative automaton of [r]; number of states. *)
let states r =
  let ids = Hashtbl.create 256 in
  let q = Queue.create () in
  Hashtbl.add ids r 0;
  Queue.add r q;
  while not (Queue.is_empty q) do
    let s = Queue.pop q in
    for c = 0 to sigma - 1 do
      let d = deriv c s in
      if not (Hashtbl.mem ids d) then begin
        Hashtbl.add ids d (Hashtbl.length ids);
        Queue.add d q
      end
    done
  done;
  Hashtbl.length ids

let table = Array.init (1 lsl 20) (fun i -> (i * 7919) land 0xffff)

let kernel () =
  let n = List.fold_left (fun acc r -> acc + states r) 0 patterns in
  let sum = ref 0 in
  for _ = 1 to 8 do
    sum := Array.fold_left ( + ) !sum table
  done;
  n + (!sum land 1)

(* The kernel's result, checked on every call so that the work cannot
   be skipped or go wrong unnoticed. *)
let expected = lazy (kernel ())

let time () =
  let expected = Lazy.force expected in
  Gc.full_major ();
  let v, dt = Util.time kernel in
  if v <> expected then failwith "calibration kernel gave a different result";
  dt

(* The kernel time that scaled figures are quoted at: about its median
   on the 2-core VM this benchmark was tuned on, where it read 0.15 to
   0.23 s from run to run.  A time [t] measured while the kernel took
   [k] seconds is reported as [t *. reference_s /. k]. *)
let reference_s = 0.2
