#!/bin/sh
# Build the benchmark and the daemon it drives from this checkout's sources,
# then run one workload.  Run from the repository root:
#   sh benchmark/run.sh --workload W --seed N --seconds S --trace 0|1
set -u
dune build --root . --cache=disabled --display quiet benchmark/rlc_bench.exe bin/rlc_timing.exe 1>&2 || exit 2
exec ./_build/default/benchmark/rlc_bench.exe "$@"
