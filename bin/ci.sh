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

CR_STATS=1 CR_TRACE="$trace" dune exec bin/crcheck.exe -- verify dijkstra3 --stats
test -s "$trace" || { echo "ci: CR_TRACE produced no output" >&2; exit 1; }
dune exec bin/crcheck.exe -- validate trace "$trace"

dune exec bin/crcheck.exe -- lint --all --json "$lintjson" > /dev/null
test -s "$lintjson" || { echo "ci: lint --json produced no output" >&2; exit 1; }
dune exec bin/crcheck.exe -- validate json "$lintjson"

# Abstract-interpretation gate: the flow audit must be error-clean over
# the whole registry, its definite verdicts must agree with exact
# enumeration at N = 3 (--check-exact), its --json artifact must be
# well-formed, and the journal stream must carry the flow.report events.
flowjson="$work/flow.json"
flowjournal="$work/flow.jsonl"
: > "$flowjournal"
CR_JOURNAL="$flowjournal" dune exec bin/crcheck.exe -- flow --all -n 3 \
  --check-exact --json "$flowjson" > /dev/null
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

# Compile-cache smoke: verify builds every graph exactly once — the
# dense program and the spec's sparse legitimate orbit, two compiles
# even for btr, whose spec is its program — so the CR_STATS summary
# must count exactly 2 compile-cache misses.  btr itself is the
# fault-INtolerant abstract ring, so verify may exit 1 — only a crash or
# a usage error (exit > 1) fails the gate.
cachelog="$work/cache.log"
rc=0
CR_JOBS=2 CR_STATS=1 dune exec bin/crcheck.exe -- verify btr --stats \
  > /dev/null 2> "$cachelog" || rc=$?
[ "$rc" -le 1 ] || { echo "ci: verify btr crashed (rc=$rc)" >&2; cat "$cachelog" >&2; exit 1; }
misses=$(sed -n 's/^ *compile\.cache\.misses *\([0-9][0-9]*\)$/\1/p' "$cachelog")
[ "$misses" = 2 ] || {
  echo "ci: expected exactly 2 compile.cache.misses for verify btr" >&2
  cat "$cachelog" >&2
  exit 1
}

# Cache smoke on the experiment tables: they compile the same registry
# systems for several tables and ask the same refinement /
# stabilization questions more than once, so both the memoized compiler
# and the content-addressed verdict memo must report hits — and
# disabling every memo with
# CR_CACHE=0 (compiles and verdicts alike) must not change a single
# output byte.  CR_CACHE_PARANOID=1 re-computes every hit and asserts it
# equals the memoized value: it must exit 0 with identical output too.
expout="$work/exp.out"
expout0="$work/exp0.out"
expoutp="$work/expp.out"
explog="$work/exp.log"
CR_JOBS=2 CR_STATS=1 dune exec bin/crcheck.exe -- experiments --max-n 3 \
  > /dev/null 2> "$explog"
for counter in compile check; do
  hits=$(sed -n "s/^ *$counter\\.cache\\.hits *\\([0-9][0-9]*\\)\$/\\1/p" "$explog")
  [ -n "$hits" ] && [ "$hits" -ge 1 ] || {
    echo "ci: expected nonzero $counter.cache.hits in CR_STATS summary" >&2
    cat "$explog" >&2
    exit 1
  }
done
# Byte-compare without CR_STATS: the stats cost appendix carries cache
# counters that legitimately differ between the runs.
CR_JOBS=2 dune exec bin/crcheck.exe -- experiments --max-n 3 \
  > "$expout" 2> /dev/null
CR_JOBS=2 CR_CACHE=0 dune exec bin/crcheck.exe -- experiments --max-n 3 \
  > "$expout0" 2> /dev/null
cmp -s "$expout" "$expout0" || {
  echo "ci: verdicts differ between cached and CR_CACHE=0 runs" >&2
  diff "$expout" "$expout0" >&2 || true
  exit 1
}
CR_CACHE_PARANOID=1 dune exec bin/crcheck.exe -- experiments --max-n 3 \
  > "$expoutp" 2> /dev/null || {
  echo "ci: CR_CACHE_PARANOID=1 experiments run failed" >&2
  exit 1
}
cmp -s "$expout" "$expoutp" || {
  echo "ci: verdicts differ between cached and CR_CACHE_PARANOID=1 runs" >&2
  diff "$expout" "$expoutp" >&2 || true
  exit 1
}

# Journal smoke: a CR_JOURNAL run must produce a valid JSONL stream
# that records the compile-cache traffic, the stabilize verdict and the
# span lines — and, under CR_JOBS=4, the persistent pool's spawn event.
# CR_PAR_CAP lifts the busy-domain cap so the pool really spawns even on
# a single-core CI host.
journal="$work/journal.jsonl"
: > "$journal"
CR_JOBS=4 CR_PAR_CAP=4 CR_JOURNAL="$journal" dune exec bin/crcheck.exe -- verify dijkstra3 -n 3 > /dev/null
test -s "$journal" || { echo "ci: CR_JOURNAL produced no output" >&2; exit 1; }
dune exec bin/crcheck.exe -- validate journal "$journal" \
  --expect compile.cache --expect stabilize.verdict --expect par.pool \
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
for q in "verify kstate -n 4" "verify c2-wrapped -n 5" "refine dijkstra3 -n 5"; do
  rc1=0; CR_JOBS=1 dune exec bin/crcheck.exe -- $q > "$jout1" 2> /dev/null || rc1=$?
  rc4=0; CR_JOBS=4 CR_PAR_CAP=4 dune exec bin/crcheck.exe -- $q > "$jout4" 2> /dev/null || rc4=$?
  [ "$rc1" -le 1 ] && [ "$rc1" = "$rc4" ] && cmp -s "$jout1" "$jout4" || {
    echo "ci: $q differs between CR_JOBS=1 and CR_JOBS=4 (exit $rc1 vs $rc4)" >&2
    diff "$jout1" "$jout4" >&2 || true
    exit 1
  }
done
# The same for the static audits: the per-action Rwsets fan-out must
# merge back into exactly the sequential report.
for cmd in lint flow; do
  CR_JOBS=1 dune exec bin/crcheck.exe -- $cmd --all -n 3 > "$jout1" 2> /dev/null
  CR_JOBS=4 CR_PAR_CAP=4 dune exec bin/crcheck.exe -- $cmd --all -n 3 > "$jout4" 2> /dev/null
  cmp -s "$jout1" "$jout4" || {
    echo "ci: $cmd --all output differs between CR_JOBS=1 and CR_JOBS=4" >&2
    diff "$jout1" "$jout4" >&2 || true
    exit 1
  }
done

# Space-engine smoke: verify checks against the spec's legitimate orbit
# (a sparse compile by default), and a stabilization verdict reads the
# spec only through that orbit — so forcing the full dense spec with
# CR_SPACE=dense must not change a single output byte or exit code.
# Covers the btr self-check, a stabilizing ring, the failing and weakly
# fair re-check path (c2-wrapped) and kstate's UTR spec.  Exit 1 is a
# "not stabilizing" verdict; only exit > 1 is a crash.
spdef="$work/space-default.out"
spdense="$work/space-dense.out"
for q in "btr" "dijkstra3 -n 4" "c2-wrapped -n 4" "kstate -n 3"; do
  rc=0; dune exec bin/crcheck.exe -- verify $q > "$spdef" 2> /dev/null || rc=$?
  [ "$rc" -le 1 ] || { echo "ci: verify $q crashed (rc=$rc)" >&2; exit 1; }
  rcd=0; CR_SPACE=dense dune exec bin/crcheck.exe -- verify $q > "$spdense" 2> /dev/null || rcd=$?
  [ "$rc" = "$rcd" ] && cmp -s "$spdef" "$spdense" || {
    echo "ci: verify $q differs under CR_SPACE=dense (exit $rc vs $rcd)" >&2
    diff "$spdef" "$spdense" >&2 || true
    exit 1
  }
done

# The sparse engine's reason to exist: an init-anchored query at a ring
# size whose dense space (3^26 states) cannot be materialized at all.
# refine reports failures (exit 1) — only exit > 1 or a hang fails CI.
rc=0
timeout 120 env CR_SPACE=sparse dune exec bin/crcheck.exe -- refine rw-dijkstra3 -n 8 > /dev/null 2>&1 || rc=$?
[ "$rc" -le 1 ] || { echo "ci: sparse refine rw-dijkstra3 -n 8 failed (rc=$rc)" >&2; exit 1; }

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
