(* Oracles that share no code with the symbolic derivatives.

   Witnesses, refutation words and match spans are checked with
   [Refmatch], the dynamic-programming reference semantics of
   lib/classic.  Verdicts are compared with the corpus labels; an unsat
   verdict on an unlabeled instance is compared with the eager
   symbolic-automaton solver of lib/sfa, and counted as unchecked when
   that baseline cannot decide it within its budget.  Everything runs on
   a tower of its own, so no memo table is shared with the program
   under test. *)

module B = Sbd_alphabet.Bdd.Make ()
module R = Sbd_regex.Regex.Make (B)
module P = Sbd_regex.Parser.Make (R)
module Ref = Sbd_classic.Refmatch.Make (R)
module Eager = Sbd_sfa.Eager.Make (R)
module Brz = Sbd_classic.Brzozowski.Make (R)

(* A verdict as the program reported it, whatever the surface. *)
type verdict =
  | Sat of int list  (** sat, or refuted with a distinguishing word *)
  | Unsat  (** unsat, or proved *)
  | Unknown of string
  | Failed of string  (** error response or exception *)
  | Missing

let string_of_verdict = function
  | Sat _ -> "sat"
  | Unsat -> "unsat"
  | Unknown why -> "unknown(" ^ why ^ ")"
  | Failed why -> "error(" ^ why ^ ")"
  | Missing -> "missing"

let parsed : (string, R.t) Hashtbl.t = Hashtbl.create 1024

let parse pat =
  match Hashtbl.find_opt parsed pat with
  | Some r -> r
  | None -> (
    match P.parse pat with
    | Ok r ->
      Hashtbl.add parsed pat r;
      r
    | Error (pos, msg) ->
      failwith (Printf.sprintf "oracle: parse error at %d in %S: %s" pos pat msg))

(* Refmatch's table is cubic in the word length; longer words (a few
   counter witnesses run to thousands of code points) go through the
   classical Brzozowski matcher, which shares no code with the symbolic
   derivatives either. *)
let ref_limit = 64

let member pat w =
  if List.length w <= ref_limit then Ref.matches (parse pat) w
  else Brz.matches (parse pat) w

(* Baseline emptiness of an unlabeled instance: [Some true] = empty. *)
let baseline_budget = 20_000

let baseline_empty (r : R.t) : bool option =
  Eager.is_empty_lang ~budget:baseline_budget r

(* What a solve verdict is checked against. *)
type expect =
  | Label of bool  (** corpus label: [true] = sat *)
  | Baseline of bool option  (** baseline emptiness, [None] = undecided *)

let expect_of_instance (inst : Sbd_benchgen.Instance.t) : expect =
  match inst.expected with
  | Sbd_benchgen.Instance.Sat -> Label true
  | Sbd_benchgen.Instance.Unsat -> Label false
  | Sbd_benchgen.Instance.Unlabeled -> Baseline (baseline_empty (parse inst.pattern))

(* How an operation went wrong: [Unanswered] when no answer came
   (missing, error, Unknown), [Wrong] when the answer disagrees with the
   oracle. *)
type fault = Unanswered of string | Wrong of string

let string_of_fault = function Unanswered why -> why | Wrong why -> "wrong: " ^ why

(* [Ok true]: checked; [Ok false]: not contradicted but unchecked;
   [Error f]: the operation failed or was wrong. *)
type outcome = (bool, fault) result

(* Counts for one workload.  Every fault counts as failed; wrong
   answers also make the run's result incorrect. *)
type tally = {
  mutable attempted : int;
  mutable failed : int;
  mutable wrong : int;
  mutable unchecked : int;  (** unsat on an unlabeled instance no baseline decided *)
}

let tally () = { attempted = 0; failed = 0; wrong = 0; unchecked = 0 }

let record t (o : outcome) =
  t.attempted <- t.attempted + 1;
  match o with
  | Ok true -> ()
  | Ok false -> t.unchecked <- t.unchecked + 1
  | Error (Unanswered _) -> t.failed <- t.failed + 1
  | Error (Wrong _) ->
    t.failed <- t.failed + 1;
    t.wrong <- t.wrong + 1

let add_tally into t =
  into.attempted <- into.attempted + t.attempted;
  into.failed <- into.failed + t.failed;
  into.wrong <- into.wrong + t.wrong;
  into.unchecked <- into.unchecked + t.unchecked

(* Checking is a pure function of (inputs, verdict), so identical
   outputs seen again are not re-validated. *)
let seen : (string, outcome) Hashtbl.t = Hashtbl.create 4096

let memo key f =
  match Hashtbl.find_opt seen key with
  | Some o -> o
  | None ->
    let o = f () in
    Hashtbl.add seen key o;
    o

let key_of parts w =
  String.concat "\x00" parts ^ "\x00"
  ^ String.concat "," (List.map string_of_int w)

let check_solve ~pattern ~(expect : expect) (v : verdict) : outcome =
  match v with
  | Unknown _ | Failed _ | Missing -> Error (Unanswered (string_of_verdict v))
  | Sat w ->
    memo (key_of [ "s"; pattern ] w) (fun () ->
        if not (member pattern w) then Error (Wrong "witness outside L(r)")
        else
          match expect with
          | Label false | Baseline (Some true) -> Error (Wrong "sat, expected unsat")
          | Label true | Baseline (Some false) | Baseline None -> Ok true)
  | Unsat -> (
    match expect with
    | Label true | Baseline (Some false) -> Error (Wrong "unsat, expected sat")
    | Label false | Baseline (Some true) -> Ok true
    | Baseline None -> Ok false)

(* Containment: [Sat w] is a refutation, [Unsat] a proof. *)
let pair_expect (p : Sbd_benchgen.Pairs.t) : expect =
  match p.expected with
  | Sbd_benchgen.Pairs.Holds -> Label false
  | Sbd_benchgen.Pairs.Fails -> Label true
  | Sbd_benchgen.Pairs.Unlabeled ->
    let l = parse p.left and r = parse p.right in
    let diff =
      match p.mode with
      | Sbd_benchgen.Pairs.Subset -> R.diff l r
      | Sbd_benchgen.Pairs.Equiv -> R.alt (R.diff l r) (R.diff r l)
    in
    Baseline (baseline_empty diff)

let check_pair (p : Sbd_benchgen.Pairs.t) ~(expect : expect) (v : verdict) :
    outcome =
  match v with
  | Unknown _ | Failed _ | Missing -> Error (Unanswered (string_of_verdict v))
  | Sat w ->
    memo (key_of [ "p"; p.left; p.right ] w) (fun () ->
        let inl = member p.left w and inr = member p.right w in
        let distinguishes =
          match p.mode with
          | Sbd_benchgen.Pairs.Subset -> inl && not inr
          | Sbd_benchgen.Pairs.Equiv -> inl <> inr
        in
        if not distinguishes then Error (Wrong "refutation word does not distinguish")
        else
          match expect with
          | Label false | Baseline (Some true) -> Error (Wrong "refuted, expected proved")
          | Label true | Baseline (Some false) | Baseline None -> Ok true)
  | Unsat -> (
    match expect with
    | Label true | Baseline (Some false) -> Error (Wrong "proved, expected refuted")
    | Label false | Baseline (Some true) -> Ok true
    | Baseline None -> Ok false)

let codepoints (s : string) = List.init (String.length s) (fun i -> Char.code s.[i])

(* A reported match span on an ASCII haystack: it must equal the span
   known by construction, and the matched slice must be in L(r). *)
let check_span ~pattern ~haystack ~(expected : (int * int) option)
    (reported : (int * int) option) : outcome =
  if reported <> expected then Error (Wrong "span differs from the planted span")
  else
    match reported with
    | None -> Ok true
    | Some (i, j) ->
      if member pattern (codepoints (String.sub haystack i (j - i))) then Ok true
      else Error (Wrong "reported span outside L(r)")

(* Every request id sent must come back exactly once: one fault per id
   that never came back, and one per reply that was not awaited. *)
let check_ids ~(sent : int list) ~(received : int list) : fault list =
  let tbl = Hashtbl.create 1024 in
  List.iter (fun id -> Hashtbl.replace tbl id false) sent;
  let extra =
    List.filter_map
      (fun id ->
        match Hashtbl.find_opt tbl id with
        | None -> Some (Wrong (Printf.sprintf "unexpected response id %d" id))
        | Some false ->
          Hashtbl.replace tbl id true;
          None
        | Some true -> Some (Wrong (Printf.sprintf "duplicate response id %d" id)))
      received
  in
  let missing =
    List.filter_map
      (fun id ->
        if Hashtbl.find tbl id then None
        else Some (Unanswered (Printf.sprintf "no response for id %d" id)))
      (List.sort_uniq compare sent)
  in
  missing @ extra

(* The check on the checker: each planted fault must be caught. *)
let self_test () : (unit, string) result =
  let caught name = function
    | Error _ -> None
    | Ok _ -> Some name
  in
  let misses =
    List.filter_map Fun.id
      [
        caught "flipped verdict"
          (check_solve ~pattern:"ab*c&a.*" ~expect:(Label true) Unsat);
        caught "witness outside L(r)"
          (check_solve ~pattern:"ab*c" ~expect:(Label true) (Sat (codepoints "abd")));
        caught "shifted span"
          (check_span ~pattern:"QQ[0-9]+" ~haystack:"xxQQ12yy"
             ~expected:(Some (2, 5)) (Some (3, 5)));
        caught "unknown verdict"
          (check_solve ~pattern:"a" ~expect:(Label true) (Unknown "budget"));
        (if check_ids ~sent:[ 1; 2; 3 ] ~received:[ 1; 3 ] <> [] then None
         else Some "dropped response id");
        (if check_ids ~sent:[ 1; 2 ] ~received:[ 2; 1; 2 ] <> [] then None
         else Some "duplicate response id");
      ]
  in
  (* and the genuine article must pass *)
  let genuine =
    [
      check_solve ~pattern:"ab*c" ~expect:(Label true) (Sat (codepoints "abbc"));
      check_span ~pattern:"QQ[0-9]+" ~haystack:"xxQQ12yy" ~expected:(Some (2, 5))
        (Some (2, 5));
    ]
  in
  Hashtbl.reset seen;
  if misses <> [] then Error ("checker missed: " ^ String.concat ", " misses)
  else if List.exists Result.is_error genuine || check_ids ~sent:[ 1; 2 ] ~received:[ 2; 1 ] <> []
  then
    Error "checker rejected a correct output"
  else Ok ()
