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

trace=$(mktemp /tmp/cr.trace.XXXXXX)
lintjson=$(mktemp /tmp/cr.lint.XXXXXX)
trap 'rm -f "$trace" "$lintjson"' EXIT

CR_STATS=1 CR_TRACE="$trace" dune exec bin/crcheck.exe -- verify dijkstra3 --stats
test -s "$trace" || { echo "ci: CR_TRACE produced no output" >&2; exit 1; }
dune exec bin/trace_lint.exe -- "$trace"

dune exec bin/crcheck.exe -- lint --all --json "$lintjson" > /dev/null
test -s "$lintjson" || { echo "ci: lint --json produced no output" >&2; exit 1; }
dune exec bin/trace_lint.exe -- --json-only "$lintjson"

# Abstract-interpretation gate: the flow audit must be error-clean over
# the whole registry, its definite verdicts must agree with exact
# enumeration at N = 3 (--check-exact), its --json artifact must be
# well-formed, and the journal stream must carry the flow.report events.
flowjson=$(mktemp /tmp/cr.flow.XXXXXX)
flowjournal=$(mktemp /tmp/cr.flowj.XXXXXX)
trap 'rm -f "$trace" "$lintjson" "$flowjson" "$flowjournal"' EXIT
: > "$flowjournal"
CR_JOURNAL="$flowjournal" dune exec bin/crcheck.exe -- flow --all -n 3 \
  --check-exact --json "$flowjson" > /dev/null
test -s "$flowjson" || { echo "ci: flow --json produced no output" >&2; exit 1; }
dune exec bin/trace_lint.exe -- --json-only "$flowjson"
dune exec bin/journal_lint.exe -- "$flowjournal" --expect flow.report

# Compile-cache smoke: verifying btr compiles the program and its spec,
# which are the same system, so the chunked+memoized compiler must report
# at least one cache hit in the CR_STATS summary.  btr itself is the
# fault-INtolerant abstract ring, so verify may exit 1 — only a crash or
# a usage error (exit > 1) fails the gate.
cachelog=$(mktemp /tmp/cr.cache.XXXXXX)
trap 'rm -f "$trace" "$lintjson" "$flowjson" "$flowjournal" "$cachelog"' EXIT
rc=0
CR_JOBS=2 CR_STATS=1 dune exec bin/crcheck.exe -- verify btr --stats \
  > /dev/null 2> "$cachelog" || rc=$?
[ "$rc" -le 1 ] || { echo "ci: verify btr crashed (rc=$rc)" >&2; cat "$cachelog" >&2; exit 1; }
hits=$(sed -n 's/^ *compile\.cache\.hits *\([0-9][0-9]*\)$/\1/p' "$cachelog")
[ -n "$hits" ] && [ "$hits" -ge 1 ] || {
  echo "ci: expected nonzero compile.cache.hits in CR_STATS summary" >&2
  cat "$cachelog" >&2
  exit 1
}

# Verdict-cache smoke: the experiment tables ask the same refinement /
# stabilization questions more than once, so the content-addressed
# Check_cache must report hits — and disabling it with CR_CHECK_CACHE=0
# must not change a single output byte.
expout=$(mktemp /tmp/cr.exp.XXXXXX)
expout0=$(mktemp /tmp/cr.exp0.XXXXXX)
explog=$(mktemp /tmp/cr.explog.XXXXXX)
trap 'rm -f "$trace" "$lintjson" "$flowjson" "$flowjournal" "$cachelog" "$expout" "$expout0" "$explog"' EXIT
CR_JOBS=2 CR_STATS=1 dune exec bin/crcheck.exe -- experiments --max-n 3 \
  > /dev/null 2> "$explog"
checkhits=$(sed -n 's/^ *check\.cache\.hits *\([0-9][0-9]*\)$/\1/p' "$explog")
[ -n "$checkhits" ] && [ "$checkhits" -ge 1 ] || {
  echo "ci: expected nonzero check.cache.hits in CR_STATS summary" >&2
  cat "$explog" >&2
  exit 1
}
# Byte-compare without CR_STATS: the stats cost appendix carries cache
# counters that legitimately differ between the two runs.
CR_JOBS=2 dune exec bin/crcheck.exe -- experiments --max-n 3 \
  > "$expout" 2> /dev/null
CR_JOBS=2 CR_CHECK_CACHE=0 dune exec bin/crcheck.exe -- experiments --max-n 3 \
  > "$expout0" 2> /dev/null
cmp -s "$expout" "$expout0" || {
  echo "ci: verdicts differ between cached and CR_CHECK_CACHE=0 runs" >&2
  diff "$expout" "$expout0" >&2 || true
  exit 1
}

# Journal smoke: a CR_JOURNAL run must produce a lintable JSONL stream
# that records the compile-cache traffic and the stabilize verdict —
# and, under CR_JOBS=4, the persistent pool's spawn event.  CR_PAR_CAP
# lifts the busy-domain cap so the pool really spawns even on a
# single-core CI host.
journal=$(mktemp /tmp/cr.journal.XXXXXX)
trap 'rm -f "$trace" "$lintjson" "$flowjson" "$flowjournal" "$cachelog" "$expout" "$expout0" "$explog" "$journal"' EXIT
: > "$journal"
CR_JOBS=4 CR_PAR_CAP=4 CR_JOURNAL="$journal" dune exec bin/crcheck.exe -- verify dijkstra3 -n 3 > /dev/null
test -s "$journal" || { echo "ci: CR_JOURNAL produced no output" >&2; exit 1; }
dune exec bin/journal_lint.exe -- "$journal" \
  --expect compile.cache --expect stabilize.verdict --expect par.pool

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
jout1=$(mktemp /tmp/cr.jobs1.XXXXXX)
jout4=$(mktemp /tmp/cr.jobs4.XXXXXX)
trap 'rm -f "$trace" "$lintjson" "$flowjson" "$flowjournal" "$cachelog" "$expout" "$expout0" "$explog" "$journal" "$jout1" "$jout4"' EXIT
CR_JOBS=1 dune exec bin/crcheck.exe -- experiments --max-n 3 > "$jout1" 2> /dev/null
CR_JOBS=4 CR_PAR_CAP=4 dune exec bin/crcheck.exe -- experiments --max-n 3 > "$jout4" 2> /dev/null
cmp -s "$jout1" "$jout4" || {
  echo "ci: experiment output differs between CR_JOBS=1 and CR_JOBS=4" >&2
  diff "$jout1" "$jout4" >&2 || true
  exit 1
}

# Space-engine smoke: verify (a stabilization question) quantifies over
# ALL states, so it is dense by construction — forcing CR_SPACE=sparse
# must not change a single output byte.  btr is fault-INtolerant, so
# verify exits 1; only exit > 1 is a crash.
spdef=$(mktemp /tmp/cr.spdef.XXXXXX)
spsparse=$(mktemp /tmp/cr.spsparse.XXXXXX)
trap 'rm -f "$trace" "$lintjson" "$flowjson" "$flowjournal" "$cachelog" "$expout" "$expout0" "$explog" "$journal" "$jout1" "$jout4" "$spdef" "$spsparse"' EXIT
rc=0; dune exec bin/crcheck.exe -- verify btr > "$spdef" 2> /dev/null || rc=$?
[ "$rc" -le 1 ] || { echo "ci: verify btr crashed (rc=$rc)" >&2; exit 1; }
rc=0; CR_SPACE=sparse dune exec bin/crcheck.exe -- verify btr > "$spsparse" 2> /dev/null || rc=$?
[ "$rc" -le 1 ] || { echo "ci: CR_SPACE=sparse verify btr crashed (rc=$rc)" >&2; exit 1; }
cmp -s "$spdef" "$spsparse" || {
  echo "ci: verify output differs under CR_SPACE=sparse (verify must stay dense)" >&2
  diff "$spdef" "$spsparse" >&2 || true
  exit 1
}

# The sparse engine's reason to exist: an init-anchored query at a ring
# size whose dense space (3^26 states) cannot be materialized at all.
# refine reports failures (exit 1) — only exit > 1 or a hang fails CI.
rc=0
timeout 120 env CR_SPACE=sparse dune exec bin/crcheck.exe -- refine rw-dijkstra3 -n 8 > /dev/null 2>&1 || rc=$?
[ "$rc" -le 1 ] || { echo "ci: sparse refine rw-dijkstra3 -n 8 failed (rc=$rc)" >&2; exit 1; }

# Known-answer gate: every query of the scenario benchmark runs once and
# must print the verdict lines and exit codes its workload table
# expects.
bash scenario_bench/run.sh --check

# The committed benchmark artifacts must stay well-formed JSON.
dune exec bin/trace_lint.exe -- --json-only BENCH_PR4.json
dune exec bin/trace_lint.exe -- --json-only BENCH_PR6.json
dune exec bin/trace_lint.exe -- --json-only BENCH_PR7.json
dune exec bin/trace_lint.exe -- --json-only BENCH_PR8.json
dune exec bin/trace_lint.exe -- --json-only BENCH_PR9.json
dune exec bin/trace_lint.exe -- --json-only BENCH_PR10.json

# The PR 10 artifact must carry the space-engine head-to-head rows (the
# PR 9 jobs-scaling matrix rides along in the same sweep).
for row in space-dense-compile-rw-n3 space-sparse-compile-rw-n3 \
           space-dense-refine-rw-n3 space-sparse-refine-rw-n3 \
           classify-seq-dijkstra3-n6 compile-seq-dijkstra3-n7 \
           stabilize-sweep-seq-dijkstra3-n6; do
  grep -q "\"$row\"" BENCH_PR10.json || {
    echo "ci: BENCH_PR10.json is missing row $row" >&2
    exit 1
  }
done

# Perf-regression gate: the committed baseline must self-diff cleanly
# (exit 0, no regressions), the PR 10 artifact must stay within the
# generous cross-machine gate of the PR 9 baseline, and a fresh artifact
# from this machine must stay within it too.  Low-r^2 rows are never
# gated and sub-microsecond rows get 4x slack, so this catches
# order-of-magnitude regressions without flaking on scheduler noise.
dune exec bin/perfdiff.exe -- BENCH_PR9.json BENCH_PR9.json > /dev/null
dune exec bin/perfdiff.exe -- --gate 100 BENCH_PR9.json BENCH_PR10.json > /dev/null
if [ "${CI_BENCH:-0}" = "1" ]; then
  dune exec bench/main.exe -- --json BENCH_PR10.json > /dev/null
  dune exec bin/trace_lint.exe -- --json-only BENCH_PR10.json
  dune exec bin/perfdiff.exe -- --gate 100 BENCH_PR9.json BENCH_PR10.json
fi

echo "ci: OK"
