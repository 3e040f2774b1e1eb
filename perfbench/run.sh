#!/usr/bin/env bash
# Build the benchmark and the pllscope binary from source, then run one
# benchmark workload. Run from the repository root:
#   bash perfbench/run.sh --workload sweep --seed 1 --seconds 15 --trace 0
# Build output goes to stderr; the last stdout line is the JSON result.
set -euo pipefail
dune build --root . ./perfbench/pllbench.exe ./bin/pllscope.exe 1>&2
exec ./_build/default/perfbench/pllbench.exe "$@"
