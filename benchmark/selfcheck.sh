#!/usr/bin/env bash
# Two sets of runs of the same code, interleaved run by run, then
# `compare`: exits non-zero when any workload x end-to-end metric reads
# `regressed` or `unresolved`, i.e. when the benchmark disagrees with
# itself by more than its own bounds.
#
#   benchmark/selfcheck.sh [SEED...]
set -euo pipefail
cd "$(dirname "$0")/.."
benchmark/run.sh selfcheck-a,selfcheck-b "$@"
benchmark/bench.sh compare benchmark/out/selfcheck-a benchmark/out/selfcheck-b
