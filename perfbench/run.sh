#!/bin/sh
# Build the matprod daemon and the benchmark from source, then run one
# benchmark pass. Arguments go to the benchmark:
#   sh perfbench/run.sh --workload serve-steady --seed 1 --seconds 20 --trace 0
set -eu
cd "$(dirname "$0")/.."
if [ ! -f dune-project ] || [ ! -d lib ] || [ ! -d bin ]; then
  echo "perfbench: needs a full source checkout (dune-project, lib/, bin/)" >&2
  exit 2
fi
if ! command -v dune >/dev/null 2>&1 && command -v opam >/dev/null 2>&1; then
  eval "$(opam env)"
fi
# The dune cache lives outside the checkout; build without it.
DUNE_CACHE=disabled dune build --root . ./bin/matprod.exe ./perfbench/perfbench.exe >&2
exec ./_build/default/perfbench/perfbench.exe "$@"
