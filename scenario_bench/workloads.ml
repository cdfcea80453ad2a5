(* The benchmark's workloads and the known-answer table its runs are
   checked against.  Every query is one crcheck invocation; a round runs
   a workload's queries once. *)

type kind =
  | Refine of string * int
  | Verify of string * int
  | Experiments of int  (** [--max-n] *)
  | Lint of int
  | Flow of int

(* A verdict line the query must print: some output line starts with
   [line].  [source] says where the expected answer comes from, so a
   mismatch points at the claim it contradicts rather than at a
   recorded output. *)
type expect = { line : string; source : string }

type query = { kind : kind; exit_code : int; expect : expect list }

type workload = { name : string; queries : query list }

let argv = function
  | Refine (sys, n) -> [ "refine"; sys; "-n"; string_of_int n ]
  | Verify (sys, n) -> [ "verify"; sys; "-n"; string_of_int n ]
  | Experiments m -> [ "experiments"; "--max-n"; string_of_int m ]
  | Lint n -> [ "lint"; "--all"; "-n"; string_of_int n ]
  | Flow n -> [ "flow"; "--all"; "-n"; string_of_int n ]

let label q = String.concat " " (argv q.kind)

let e8 =
  "EXPERIMENTS.md E8, Theorem 11: C2[]W1''[]W2' unfair NO (N>=3), weakly \
   fair YES (all N)"

let fig1 = "paper Figure 1 (EXPERIMENTS.md E1)"

let workloads =
  [
    {
      name = "refine-rw";
      queries =
        [
          {
            kind = Refine ("rw-dijkstra3", 8);
            exit_code = 1;
            expect =
              [
                {
                  line = "convergence    [Dijkstra3-rw(8) ⪯ BTR(8)] FAILS";
                  source =
                    "EXPERIMENTS.md E17: read/write atomicity refinement is \
                     not convergence refinement";
                };
              ];
          };
        ];
    };
    {
      name = "verify-dense";
      queries =
        [
          {
            kind = Verify ("kstate", 6);
            exit_code = 0;
            expect =
              [
                {
                  line = "Kstate(n=6,K=7) stabilizes to UTR(6) (|Sigma|=823543,";
                  source =
                    "EXPERIMENTS.md E11 (K=N+1 holds); |Sigma| = 7^7 for 7 \
                     processes with K=7 values each";
                };
              ];
          };
          {
            kind = Verify ("dijkstra3", 9);
            exit_code = 0;
            expect =
              [
                {
                  line = "Dijkstra3(9) stabilizes to BTR(9) (|Sigma|=59049,";
                  source =
                    "EXPERIMENTS.md E8, Theorem 11 (Dijkstra-3 stabilizes, any \
                     daemon); |Sigma| = 3^10 for 10 processes with 3 values each";
                };
              ];
          };
          {
            kind = Verify ("c2-wrapped", 9);
            exit_code = 1;
            expect =
              [
                { line = "C2[]W1''[]W2'(9) does NOT stabilize to BTR(9)"; source = e8 };
                { line = "under a weakly fair daemon: stabilizing"; source = e8 };
              ];
          };
        ];
    };
    {
      name = "registry-sweep";
      queries =
        [
          {
            kind = Experiments 5;
            exit_code = 0;
            expect =
              [
                { line = "[C ⊑ A]_init                : yes"; source = fig1 };
                { line = "A stabilizing to A          : yes"; source = fig1 };
                { line = "C stabilizing to A          : NO"; source = fig1 };
                { line = "[C ⪯ A]                     : NO"; source = fig1 };
                { line = "5    729      NO             yes"; source = e8 };
              ];
          };
          {
            kind = Lint 3;
            exit_code = 0;
            expect =
              [
                {
                  line = "lint: 12 system(s), 148 finding(s), 0 error(s)";
                  source =
                    "EXPERIMENTS.md static-analysis audit: 148 findings (98 \
                     I1, 28 G1, 16 P1, 6 U1), zero errors";
                };
              ];
          };
          {
            kind = Flow 3;
            exit_code = 0;
            expect =
              [
                {
                  line = "flow: 12 system(s), 0 finding(s), 0 error(s)";
                  source =
                    "EXPERIMENTS.md flow audit: its only finding is the B1 \
                     degradation at N=6, and N=3 is within exact reach";
                };
              ];
          };
        ];
    };
  ]

let find name = List.find_opt (fun w -> w.name = name) workloads

(* Mismatches between one run of [q] and the known answers; empty when
   the run is correct. *)
let check q ~code ~output =
  let lines = String.split_on_char '\n' output in
  let code_err =
    if code = q.exit_code then []
    else [ Printf.sprintf "exit code %d, expected %d" code q.exit_code ]
  in
  code_err
  @ List.filter_map
      (fun e ->
        if List.exists (String.starts_with ~prefix:e.line) lines then None
        else Some (Printf.sprintf "missing %S (%s)" e.line e.source))
      q.expect

(* The round order: a seeded permutation of the workload's queries. *)
let shuffle rng qs =
  let a = Array.of_list qs in
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  Array.to_list a
