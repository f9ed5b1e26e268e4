#!/bin/sh
# Build the wall-clock benchmark from source, then run it with the given
# arguments. Run from the repository root:
#   sh bench/wall/run.sh --workload star-maintain --seed 1 --seconds 25 --trace 0
# Build output goes to stderr; standard output is the benchmark's alone.
# The shared dune cache is off so the build writes only under ./_build.
set -e
DUNE_CACHE=disabled dune build --root . --display quiet ./bench/wall/wall.exe 1>&2
exec ./_build/default/bench/wall/wall.exe "$@"
