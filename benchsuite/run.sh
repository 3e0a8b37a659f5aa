#!/usr/bin/env bash
# Builds the benchmark from source in this checkout, then runs it:
#   bash benchsuite/run.sh --workload W --seed S --seconds R --trace 0|1
#   bash benchsuite/run.sh suite | suite-compare OLD.json NEW.json
# Run from the repository root. Build output goes to stderr, so the last
# line of stdout stays the run's JSON result.
set -euo pipefail
if [ ! -f dune-project ] || [ ! -d lib ]; then
  echo "benchsuite/run.sh: run from the root of a full checkout (no dune-project or lib/ here)" >&2
  exit 2
fi
DUNE_CACHE=disabled dune build --root . ./benchsuite/main.exe 1>&2
exec ./_build/default/benchsuite/main.exe "$@"
