#!/usr/bin/env bash
# Build the benchmark and the proxion executable from this source tree,
# then run one benchmark invocation; arguments pass through to bench.exe
# (--workload NAME --seed N --seconds S --trace 0|1).  Run from the root
# of the tree.  Build output goes to stderr, so the result object stays
# the last line of stdout.
set -euo pipefail
if [ ! -f dune-project ] || [ ! -d lib ] || [ ! -d bin ]; then
  echo "proxbench: not a proxion source tree (no dune-project, lib/ or bin/)" >&2
  exit 2
fi
# The shared dune cache lives outside the tree; keep the build inside it.
DUNE_CACHE=disabled dune build --root . ./proxbench/bench.exe ./bin/proxion_cli.exe 1>&2
exec ./_build/default/proxbench/bench.exe \
  --cli ./_build/default/bin/proxion_cli.exe "$@"
