#!/bin/sh
# Build the benchmark from source, then run it with the given arguments:
#   sh depnnbench/run.sh --workload table2 --seed 1 --seconds 30 --trace 0
# Run from the repository root. The dune cache is off so that building
# reads and writes nothing outside the checkout.
#
# The run is pinned to one CPU (the first one this process may use) when
# taskset is available: the proof-server workload ping-pongs between the
# client and the server child, and where the scheduler happened to place
# the two made its hit throughput differ by 2x from run to run.
set -eu
DUNE_CACHE=disabled dune build --root . ./depnnbench/main.exe >&2
exe=./_build/default/depnnbench/main.exe
if command -v taskset >/dev/null 2>&1; then
  cpu=$(taskset -cp $$ | sed 's/.*: *//; s/[-,].*//')
  exec taskset -c "$cpu" "$exe" "$@"
fi
exec "$exe" "$@"
