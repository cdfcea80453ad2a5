#!/usr/bin/env bash
# Build crcheck and the scenario bench, then run the bench with the
# given arguments (see scenarios.ml).  Run from anywhere; it works in
# the repository root.  Build output goes to stderr, so the bench's
# last stdout line stays its JSON result.
set -euo pipefail
cd "$(dirname "$0")/.."
dune build --root . --cache=disabled --display=quiet \
  ./bin/crcheck.exe ./scenario_bench/scenarios.exe 1>&2
exec ./_build/default/scenario_bench/scenarios.exe "$@"
