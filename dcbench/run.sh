#!/usr/bin/env bash
# Builds the engine and the benchmark from the sources of this checkout,
# then runs one benchmark invocation:
#
#   bash dcbench/run.sh --workload tc-rmat800 --seed 1 --seconds 10 --trace 0
#
# Everything the build and the run leave behind stays inside the
# checkout (_build/ and .dcbench/).
set -euo pipefail
cd "$(dirname "$0")/.."
if [ ! -f dune-project ] || [ ! -d lib ] || [ ! -d bin ]; then
  echo "dcbench: the engine sources (dune-project, lib/, bin/) are not beside the benchmark" >&2
  exit 2
fi
export DUNE_CACHE=disabled
dune build --root . --display quiet ./dcbench/main.exe ./bin/dcdatalog_cli.exe 1>&2
exec ./_build/default/dcbench/main.exe --server-exe ./_build/default/bin/dcdatalog_cli.exe "$@"
