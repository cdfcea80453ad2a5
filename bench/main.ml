(* Experiment-table harness.

   Regenerates every experiment table of DESIGN.md/EXPERIMENTS.md at the
   ring sizes EXPERIMENTS.md reports (the paper has no quantitative
   tables; its evaluation artifacts are theorems, lemmas and figures —
   each becomes a verdict table here).  [crcheck experiments] prints the
   same tables over one shared size list; checker performance is
   measured end to end by the scenario benchmark (scenario_bench/).

   Run with:  dune exec bench/main.exe *)

let () =
  if Array.length Sys.argv > 1 then begin
    prerr_endline "usage: bench/main.exe (takes no arguments)";
    exit 2
  end;
  Cr_experiments.Report.all ~ns:[ 2; 3; 4; 5 ]
    ~ns_direct:[ 2; 3; 4; 5; 6; 7; 8 ]
    ~ns_kstate:[ 2; 3; 4; 5; 6 ] ();
  Format.printf "@.done.@."
