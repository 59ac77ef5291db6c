#!/usr/bin/env bash
# Build the benchmark from source, then run one workload:
#   bash perfbench/run.sh --workload NAME --seed N --seconds S --trace 0|1
# The last line of standard output is the result object (see
# perfbench/README.md); build output goes to standard error.
set -euo pipefail
cd "$(dirname "$0")/.."
if [ ! -f dune-project ]; then
  echo "run.sh: $(pwd) holds no dune-project; run from a checkout of the repository" >&2
  exit 2
fi
dune build --root . ./perfbench/cdw_bench.exe 1>&2
exec ./_build/default/perfbench/cdw_bench.exe "$@"
