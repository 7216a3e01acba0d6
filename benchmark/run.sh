#!/usr/bin/env bash
# Build the benchmark from the source tree this script sits in, then run
# it with the given arguments (see benchmark/README.md):
#
#   bash benchmark/run.sh --workload web-openloop --seed 11 --seconds 20 --trace 0
#   bash benchmark/run.sh compare BASE.jsonl NEW.jsonl
#
# Build output goes to stderr, so the last line of stdout is the result.
set -euo pipefail
cd "$(dirname "$0")/.."
if [ ! -f dune-project ] || [ ! -d lib ]; then
  echo "run.sh: $(pwd) holds no MCR source tree (dune-project, lib/)" >&2
  exit 2
fi
# Build only inside this tree: no shared cache in the home directory.
export DUNE_CACHE=disabled
dune build --root . ./benchmark/main.exe 1>&2
exec ./_build/default/benchmark/main.exe "$@"
