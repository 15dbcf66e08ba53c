#!/usr/bin/env bash
# One benchmark run — the `command` of /BENCHMARK.json. Builds the
# package if needed, then runs it on every CPU the process may use, so
# that work a change spreads over threads shows. Arguments go to the
# binary; see README.md.
set -euo pipefail
cd "$(dirname "$0")/.."
cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml
bin=${CARGO_TARGET_DIR:-benchmark/target}/release/lmpr-benchmark
case "${1:-}" in compare | workloads) exec "$bin" "$@" ;; esac
cpus=$(nproc)
# As many malloc arenas as CPUs instead of glibc's eight per CPU: which
# arena a short-lived thread gets no longer decides the peak RSS
# (ctl_mixed: 10.8-11.1 MB against 11.6-14.4 MB), and threads that run
# at once still need not share one.
export MALLOC_ARENA_MAX=$cpus
# An idle-priority spinner per CPU keeps the virtual CPUs from halting
# while the workload's threads wait for each other or for the next
# request (see `spin` in main.rs); any runnable benchmark thread preempts
# one at once.
spinners=()
if command -v chrt > /dev/null; then
  for _ in $(seq "$cpus"); do
    chrt -i 0 "$bin" spin 2> /dev/null &
    spinners+=($!)
  done
fi
stop_spinners() {
  for pid in "${spinners[@]}"; do
    kill "$pid" 2> /dev/null || true
    wait "$pid" 2> /dev/null || true
  done
}
trap stop_spinners EXIT
pin=()
# ctl_query alone runs on one CPU. It is one closed-loop client, so
# whatever the server's design only one thread is runnable at any
# instant and a second CPU adds nothing but the cost of waking it:
# 524k-842k pairs/s with its threads free to move, 828k-856k on one CPU.
if [[ " $* " == *" --workload ctl_query "* ]] && command -v taskset > /dev/null; then
  pin=(taskset -c "$(taskset -cp $$ | sed 's/.*: *//; s/[,-].*//')")
fi
"${pin[@]}" "$bin" "$@"
