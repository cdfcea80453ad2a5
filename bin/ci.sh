#!/bin/sh
# Minimal CI gate: full build (including benches and examples) + test suite,
# then a telemetry smoke run: CR_STATS/CR_TRACE must produce a summary and a
# well-formed, non-empty Chrome-trace JSON, and --stats must print verdict
# costs.  Finally the static-analysis gate: crcheck lint --all must report
# zero error-severity findings over every registry system at the default
# ring size, and its --json findings artifact must be well-formed JSON.
set -eu
cd "$(dirname "$0")/.."
dune build @all
dune runtest

# One scratch directory for every artifact below, removed on exit.
work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT
trace="$work/trace"
lintjson="$work/lint.json"

# runtest diffs crcheck's golden transcripts (test/golden/); the
# experiment harness's stdout is one more golden, compared here.
benchout="$work/bench.out"
dune exec bench/main.exe > "$benchout"
cmp -s test/golden/bench-main.expected "$benchout" || {
  echo "ci: bench/main.exe output differs from test/golden/bench-main.expected" >&2
  diff test/golden/bench-main.expected "$benchout" >&2 || true
  exit 1
}

# test_metatheory's qcheck properties under fixed seeds as well as
# dune's random one: Theorem 1 was refuted through an abstraction under
# seed 847234730 while Stabilize rejected τ-steps.  Its other groups
# read no seed, so only the properties group runs here.
metaout="$work/meta.out"
for seed in 847234730 $(seq 1 19); do
  QCHECK_SEED=$seed dune exec test/test_metatheory.exe -- test properties \
    > "$metaout" 2>&1 || {
    echo "ci: test_metatheory failed under QCHECK_SEED=$seed" >&2
    cat "$metaout" >&2
    exit 1
  }
done

CR_STATS=1 CR_TRACE="$trace" dune exec bin/crcheck.exe -- verify dijkstra3 --stats
test -s "$trace" || { echo "ci: CR_TRACE produced no output" >&2; exit 1; }
dune exec bin/crcheck.exe -- validate trace "$trace"

dune exec bin/crcheck.exe -- lint --all --json "$lintjson" > /dev/null
test -s "$lintjson" || { echo "ci: lint --json produced no output" >&2; exit 1; }
dune exec bin/crcheck.exe -- validate json "$lintjson"

# Abstract-interpretation gate: the flow audit must be error-clean over
# the whole registry at N = 3, its --json artifact must be well-formed,
# and the journal stream must carry the flow.report events.  (That its
# definite verdicts agree with exact enumeration is test_flow's
# "soundness" group, at N = 2 and 3.)
flowjson="$work/flow.json"
flowjournal="$work/flow.jsonl"
: > "$flowjournal"
CR_JOURNAL="$flowjournal" dune exec bin/crcheck.exe -- flow --all -n 3 \
  --json "$flowjson" > /dev/null
test -s "$flowjson" || { echo "ci: flow --json produced no output" >&2; exit 1; }
dune exec bin/crcheck.exe -- validate json "$flowjson"
dune exec bin/crcheck.exe -- validate journal "$flowjournal" --expect flow.report

# Budget smoke: past the exact budget — here 3^62 states, more than an
# int holds — lint and flow degrade to one B1 finding and exit 0.
b1out="$work/b1.out"
for cmd in lint flow; do
  dune exec bin/crcheck.exe -- $cmd rw-dijkstra3 -n 20 > "$b1out" || {
    echo "ci: $cmd rw-dijkstra3 -n 20 failed" >&2
    exit 1
  }
  grep -q '^ *B1 ' "$b1out" || {
    echo "ci: $cmd rw-dijkstra3 -n 20 printed no B1 finding" >&2
    cat "$b1out" >&2
    exit 1
  }
done

# The same past what any engine can index: verify's dense compile
# refuses 3^62 states with one line on stderr and exit 2 (a refusal, not
# a crash), worded like the B1 count above.
toobig="$work/toobig.err"
rc=0
dune exec bin/crcheck.exe -- verify rw-dijkstra3 -n 20 > /dev/null 2> "$toobig" || rc=$?
[ "$rc" = 2 ] && [ "$(wc -l < "$toobig")" = 1 ] \
  && grep -q 'dense engine cannot index more than 4611686018427387903 states' "$toobig" || {
  echo "ci: verify rw-dijkstra3 -n 20 did not refuse cleanly (rc=$rc)" >&2
  cat "$toobig" >&2
  exit 1
}

# Past the lane bound: the dense engine keeps state indices and one
# reserved edge lane per action per state in four-byte lanes, at most
# 2^31 - 1 of each.  kstate at N = 8 (9^9 states, 9 actions: 3.5G edge
# lanes) and N = 9 (10^10 states) are refused before any allocation,
# with one stderr line and exit 2, within a 3 GB address-space limit.
for n in 8 9; do
  rc=0
  (ulimit -v 3000000; dune exec bin/crcheck.exe -- verify kstate -n $n) \
    > /dev/null 2> "$toobig" || rc=$?
  [ "$rc" = 2 ] && [ "$(wc -l < "$toobig")" = 1 ] \
    && grep -q '^crcheck: Kstate(n='"$n"',K=[0-9]*): the dense engine cannot index' "$toobig" || {
    echo "ci: verify kstate -n $n did not refuse cleanly (rc=$rc)" >&2
    cat "$toobig" >&2
    exit 1
  }
done

# A firing builds no state: the compile evaluates each action's
# assignment in place, ranking its successor by rank delta, so the
# whole verify kstate -n 5 run (46,656 states, 6 actions) allocates
# well under 1.0 Mwords on the minor heap (building a state per firing
# took 4.4 Mwords).
alloclog="$work/alloc.log"
CR_JOBS=1 CR_STATS=1 dune exec bin/crcheck.exe -- verify kstate -n 5 \
  > /dev/null 2> "$alloclog"
minor=$(sed -n 's/^ *minor \([0-9.]*\) Mwords.*/\1/p' "$alloclog")
[ -n "$minor" ] && awk -v m="$minor" 'BEGIN { exit !(m < 1.0) }' || {
  echo "ci: verify kstate -n 5 allocated ${minor:-?} Mwords minor, want < 1.0" >&2
  cat "$alloclog" >&2
  exit 1
}

# An α-table builds no image either: each of verify dijkstra3 -n 9's
# 59,049 states is ranked straight into the spec's rank index, so the
# run stays under 0.1 Mwords of minor allocation (building a BTR state
# per concrete state took 1.3 Mwords).
CR_JOBS=1 CR_STATS=1 dune exec bin/crcheck.exe -- verify dijkstra3 -n 9 \
  > /dev/null 2> "$alloclog"
minor=$(sed -n 's/^ *minor \([0-9.]*\) Mwords.*/\1/p' "$alloclog")
[ -n "$minor" ] && awk -v m="$minor" 'BEGIN { exit !(m < 0.1) }' || {
  echo "ci: verify dijkstra3 -n 9 allocated ${minor:-?} Mwords minor, want < 0.1" >&2
  cat "$alloclog" >&2
  exit 1
}

# Compile smoke: verify builds every graph exactly once — the dense
# program and the spec's sparse legitimate orbit, two compiles even for
# btr, whose spec is its program — so the CR_STATS summary must count
# exactly 2 explicit systems.  btr itself is the fault-INtolerant
# abstract ring, so verify may exit 1 — only a crash or a usage error
# (exit > 1) fails the gate.
compilelog="$work/compile.log"
rc=0
CR_JOBS=2 CR_STATS=1 dune exec bin/crcheck.exe -- verify btr --stats \
  > /dev/null 2> "$compilelog" || rc=$?
[ "$rc" -le 1 ] || { echo "ci: verify btr crashed (rc=$rc)" >&2; cat "$compilelog" >&2; exit 1; }
systems=$(sed -n 's/^ *explicit\.systems *\([0-9][0-9]*\)$/\1/p' "$compilelog")
[ "$systems" = 2 ] || {
  echo "ci: expected exactly 2 explicit.systems for verify btr" >&2
  cat "$compilelog" >&2
  exit 1
}

# Journal smoke: a CR_JOURNAL run must produce a valid JSONL stream
# that records the compile and stabilize.check spans and the stabilize
# verdict — and, under CR_JOBS=4, the persistent pool's spawn event.
# CR_PAR_CAP lifts the busy-domain cap so the pool really spawns even on
# a single-core CI host.  At N = 4 the dense compile (243 states, four
# 64-state chunks) is a fan-out the pool runs.
journal="$work/journal.jsonl"
: > "$journal"
CR_JOBS=4 CR_PAR_CAP=4 CR_JOURNAL="$journal" dune exec bin/crcheck.exe -- verify dijkstra3 -n 4 > /dev/null
test -s "$journal" || { echo "ci: CR_JOURNAL produced no output" >&2; exit 1; }
dune exec bin/crcheck.exe -- validate journal "$journal" \
  --expect compile --expect stabilize.verdict --expect par.pool \
  --expect stabilize.check

# An unwritable journal is one "cr-obs: journal:" line on stderr and
# changes nothing else: stdout is byte-identical to a run without it.
nojref="$work/nojournal-ref.out"
nojout="$work/nojournal.out"
nojerr="$work/nojournal.err"
dune exec bin/crcheck.exe -- verify dijkstra3 -n 3 > "$nojref" 2> /dev/null
CR_JOURNAL="$work/missing/dir/x.jsonl" dune exec bin/crcheck.exe -- \
  verify dijkstra3 -n 3 > "$nojout" 2> "$nojerr"
[ "$(grep -c '^cr-obs: journal: ' "$nojerr")" = 1 ] && cmp -s "$nojref" "$nojout" || {
  echo "ci: an unwritable CR_JOURNAL must warn once and change no output" >&2
  cat "$nojerr" >&2
  exit 1
}

# The validator's gates bite: each malformed artifact kind exits 1.
printf '[]\n' > "$work/empty.trace"
printf '{"ev":"journal.open","seq":0,"rev":"x","jobs":1}\n' > "$work/header.jsonl"
printf '{"a": [1,\n' > "$work/truncated.json"
for bad in "trace $work/empty.trace" "journal $work/header.jsonl" \
           "json $work/truncated.json"; do
  rc=0; dune exec bin/crcheck.exe -- validate $bad > /dev/null 2>&1 || rc=$?
  [ "$rc" = 1 ] || { echo "ci: validate $bad exited $rc, want 1" >&2; exit 1; }
done

# Pool-shutdown smoke: a CR_JOBS=4 run spawns the persistent worker pool;
# the at_exit hook must join every domain, so the process exits promptly
# (the timeout catches a lingering-domain hang) with the verify verdict
# (btr is fault-INtolerant, so exit 1 is the expected verdict; > 1 or a
# timeout kill means a crash or a stuck pool).
rc=0
timeout 120 env CR_JOBS=4 CR_PAR_CAP=4 dune exec bin/crcheck.exe -- verify btr > /dev/null 2>&1 || rc=$?
[ "$rc" -le 1 ] || { echo "ci: CR_JOBS=4 verify btr did not exit cleanly (rc=$rc)" >&2; exit 1; }

# Byte-identical checker output across job counts: the pool, the chunked
# sweeps and the shared oracle must not change a single output byte.
jout1="$work/jobs1.out"
jout4="$work/jobs4.out"
CR_JOBS=1 dune exec bin/crcheck.exe -- experiments --max-n 3 > "$jout1" 2> /dev/null
CR_JOBS=4 CR_PAR_CAP=4 dune exec bin/crcheck.exe -- experiments --max-n 3 > "$jout4" 2> /dev/null
cmp -s "$jout1" "$jout4" || {
  echo "ci: experiment output differs between CR_JOBS=1 and CR_JOBS=4" >&2
  diff "$jout1" "$jout4" >&2 || true
  exit 1
}
# The chunked dense compile on whole verify/refine queries: stdout and
# exit code must not depend on the job count (exit 1 is a verdict).
# refine rw-dijkstra3 and refine utr discover their closure from the
# closure's seeds; refine c2-wrapped, a boxed program, seeds from the
# whole closure; refine kstate seeds from its initial predicate.
# dot prints the Good bitset and the initial states, swept on first use
# by a chunked sweep; spans and verify kstate -n 5 read the recovery
# depths of the forward settle pass.
for q in "verify kstate -n 4" "verify c2-wrapped -n 5" "refine dijkstra3 -n 5" \
         "refine rw-dijkstra3 -n 6" "refine c2-wrapped -n 4" "dot kstate -n 3" \
         "spans dijkstra4 -n 3" "verify kstate -n 5" "refine kstate -n 4" \
         "refine utr -n 5"; do
  rc1=0; CR_JOBS=1 dune exec bin/crcheck.exe -- $q > "$jout1" 2> /dev/null || rc1=$?
  rc4=0; CR_JOBS=4 CR_PAR_CAP=4 dune exec bin/crcheck.exe -- $q > "$jout4" 2> /dev/null || rc4=$?
  [ "$rc1" -le 1 ] && [ "$rc1" = "$rc4" ] && cmp -s "$jout1" "$jout4" || {
    echo "ci: $q differs between CR_JOBS=1 and CR_JOBS=4 (exit $rc1 vs $rc4)" >&2
    diff "$jout1" "$jout4" >&2 || true
    exit 1
  }
done
# The same for the static audits: the per-action Rwsets fan-out must
# merge back into exactly the sequential report.  kstate -n 5 has
# 6-valued slots and an initial set defined by a predicate, not a
# closure.
for q in "lint --all -n 3" "flow --all -n 3" "lint kstate -n 5" \
         "flow kstate -n 5"; do
  CR_JOBS=1 dune exec bin/crcheck.exe -- $q > "$jout1" 2> /dev/null
  CR_JOBS=4 CR_PAR_CAP=4 dune exec bin/crcheck.exe -- $q > "$jout4" 2> /dev/null
  cmp -s "$jout1" "$jout4" || {
    echo "ci: $q output differs between CR_JOBS=1 and CR_JOBS=4" >&2
    diff "$jout1" "$jout4" >&2 || true
    exit 1
  }
done

# Space-engine smoke: every stabilization question checks against the
# spec's legitimate orbit (a sparse compile by default), and a verdict
# reads the spec only through that orbit — so forcing the full dense
# spec with CR_SPACE=dense must not change a single output byte or exit
# code.  Covers verify on the btr self-check, a boxed program whose
# initial set is BTR's closure (btr-wrapped), a stabilizing ring, the
# failing and weakly fair re-check path (c2-wrapped) and kstate's UTR
# spec, plus the experiment tables, the fault spans, the K-state sweep
# and the dot export (Good region and initial states).  Exit 1 is a
# "not stabilizing" verdict; only exit > 1 is a crash.
spdef="$work/space-default.out"
spdense="$work/space-dense.out"
for q in "verify btr" "verify btr-wrapped -n 4" "verify dijkstra3 -n 4" \
         "verify c2-wrapped -n 4" "verify kstate -n 3" "experiments --max-n 3" \
         "spans dijkstra3 -n 4" "kstate -n 3" "dot dijkstra3 -n 3"; do
  rc=0; dune exec bin/crcheck.exe -- $q > "$spdef" 2> /dev/null || rc=$?
  [ "$rc" -le 1 ] || { echo "ci: $q crashed (rc=$rc)" >&2; exit 1; }
  rcd=0; CR_SPACE=dense dune exec bin/crcheck.exe -- $q > "$spdense" 2> /dev/null || rcd=$?
  [ "$rc" = "$rcd" ] && cmp -s "$spdef" "$spdense" || {
    echo "ci: $q differs under CR_SPACE=dense (exit $rc vs $rcd)" >&2
    diff "$spdef" "$spdense" >&2 || true
    exit 1
  }
done

# Usage errors are refusals, not crashes: an out-of-range integer
# option fails at parse time (exit 124, Cmdliner's usage code), and an
# unwritable output path is one "crcheck:" line on stderr and exit 2.
usageerr="$work/usage.err"
rc=0
dune exec bin/crcheck.exe -- verify dijkstra3 -n 0 > /dev/null 2> "$usageerr" || rc=$?
[ "$rc" = 124 ] && ! grep -q 'internal error' "$usageerr" || {
  echo "ci: verify dijkstra3 -n 0 exited $rc, want a clean 124" >&2
  cat "$usageerr" >&2
  exit 1
}
rc=0
dune exec bin/crcheck.exe -- dot btr -n 2 -o "$work/missing/dir/x.dot" \
  > /dev/null 2> "$usageerr" || rc=$?
[ "$rc" = 2 ] && [ "$(wc -l < "$usageerr")" = 1 ] || {
  echo "ci: dot to an unwritable path exited $rc, want 2 and one stderr line" >&2
  cat "$usageerr" >&2
  exit 1
}

# The sparse engine's reason to exist: an init-anchored query at a ring
# size whose dense space (3^26 states) cannot be materialized at all.
# refine reports failures (exit 1) — only exit > 1 or a hang fails CI.
rc=0
timeout 120 env CR_SPACE=sparse dune exec bin/crcheck.exe -- refine rw-dijkstra3 -n 8 > /dev/null 2>&1 || rc=$?
[ "$rc" -le 1 ] || { echo "ci: sparse refine rw-dijkstra3 -n 8 failed (rc=$rc)" >&2; exit 1; }

# The refine frontier: the spec side is BTR(N)'s α-closure (2N of 4^N
# states), the concrete closure is discovered from its seeds straight
# into its CSR, and each relation keeps a bounded failure report, so
# the E17 run answers within a 1 GB address-space limit at N = 11 and
# N = 12 (1.8M and 4.2M failures per relation).  A dense spec compile
# (4^11 states) runs out of memory under it.
frontier="$work/frontier.out"
for n in 11 12; do
  rc=0
  (ulimit -v 1000000; timeout 120 dune exec bin/crcheck.exe -- refine rw-dijkstra3 -n $n) \
    > "$frontier" 2>&1 || rc=$?
  [ "$rc" = 1 ] && grep -q "^convergence    \\[Dijkstra3-rw($n) ⪯ BTR($n)\\] FAILS" "$frontier" || {
    echo "ci: refine rw-dijkstra3 -n $n did not answer within the limit (rc=$rc)" >&2
    head -n 5 "$frontier" >&2
    exit 1
  }
done

# The dense verify frontier: kstate -n 7 (8^8 = 16,777,216 states,
# 104,857,600 edges) holds its graph and the settle pass's scratch in
# four-byte lanes, so it answers within a 1.5 GB address-space limit
# (with full-width ints it needed about 2.5 GB).
dense="$work/dense.out"
rc=0
(ulimit -v 1500000; timeout 120 dune exec bin/crcheck.exe -- verify kstate -n 7) \
  > "$dense" 2>&1 || rc=$?
[ "$rc" = 0 ] && grep -qxF 'Kstate(n=7,K=8) stabilizes to UTR(7) (|Sigma|=16777216, |L|=8, |Good|=400, worst-case recovery 75 steps)' "$dense" || {
  echo "ci: verify kstate -n 7 did not answer within the limit (rc=$rc)" >&2
  head -n 5 "$dense" >&2
  exit 1
}

# The exact-analysis frontier: lint and flow infer the read/write sets
# of every Dijkstra-3 action at N = 12 over all 3^13 = 1,594,323 states
# (a byte of guard bits and four bytes of ranks, then codes, per
# state), and must report no error within a 1 GB address-space limit.
exact="$work/exact.out"
for cmd in lint flow; do
  rc=0
  (ulimit -v 1000000; timeout 120 dune exec bin/crcheck.exe -- $cmd dijkstra3 -n 12) \
    > "$exact" 2>&1 || rc=$?
  [ "$rc" = 0 ] && grep -q "^$cmd: 1 system(s), [0-9]* finding(s), 0 error(s)$" "$exact" || {
    echo "ci: $cmd dijkstra3 -n 12 did not pass within the limit (rc=$rc)" >&2
    tail -n 5 "$exact" >&2
    exit 1
  }
done

# trace picks its start state by sweeping Σ until the first converged
# state, never listing it: at a ring size past what any engine can
# index (3^62 states) it must answer at once under a small address-space
# limit, which also stops a regression from exhausting the host's memory.
rc=0
(ulimit -v 2000000; timeout 60 dune exec bin/crcheck.exe -- trace rw-dijkstra3 -n 20 --steps 5) \
  > /dev/null 2>&1 || rc=$?
[ "$rc" = 0 ] || { echo "ci: trace rw-dijkstra3 -n 20 failed (rc=$rc)" >&2; exit 1; }

# Known-answer gate: every query of the scenario benchmark runs once and
# must print the verdict lines and exit codes its workload table
# expects.
bash scenario_bench/run.sh --check

echo "ci: OK"
