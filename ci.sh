#!/usr/bin/env bash
# Repository CI gate: formatting, lints, and the full test suite.
# Run from the repository root: ./ci.sh
set -euo pipefail
cd "$(dirname "$0")"

echo "==> cargo fmt --check"
cargo fmt --check

echo "==> cargo xtask analyze --ci"
cargo xtask analyze --ci

echo "==> crate graph and one-definition gate"
# The daemon reads a socket; it must not link the experiment harness or
# the flit simulator to do so. And the byte-level primitives every
# golden, checkpoint and wire reply rests on — FNV-1a, SplitMix64, the
# JSON string escaper — are each written once, in crates/codec (the
# vendored rand/proptest/criterion stand-ins keep their own).
if cargo tree -p lmpr-ctld -e normal --offline | grep -E "lmpr-(bench|flitsim) "; then
  echo "lmpr-ctld must not depend on lmpr-bench or lmpr-flitsim" >&2
  exit 1
fi
if grep -rniE --include="*.rs" \
     "0100_?0000_?01b3|bf58_?476d_?1ce4_?e5b9|7f4a_?7c15|fn json_string" \
     crates src tests examples |
   grep -vE "^crates/(codec|rand|proptest|criterion)/"; then
  echo "FNV-1a / SplitMix64 / json_string redefined outside crates/codec" >&2
  exit 1
fi
# Degraded selection has one path: SelectionEngine computes it (the
# top-up lives in core/src/selection.rs), is the Router under faults,
# and the certificate scope is derived from the blast radius — the
# retired adapter and the knob that selected the scope stay retired.
if grep -rnE --include="*.rs" "FaultAware|scoped_certs|full-certs" \
     crates src tests examples; then
  echo "FaultAware / scoped_certs / --full-certs are retired" >&2
  exit 1
fi
if grep -rn --include="*.rs" "fn degrade_selection" crates src tests examples |
   grep -v "^crates/core/src/selection.rs:"; then
  echo "degrade_selection defined outside crates/core/src/selection.rs" >&2
  exit 1
fi

echo "==> cargo clippy --workspace --all-targets -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> cargo doc --workspace --no-deps (warnings are errors)"
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --quiet

echo "==> cargo test -q --workspace"
cargo test -q --workspace

echo "==> cargo test -q --release -p xgft -p lmpr-core -p lmpr-flitsim"
# The simulator stack again as it ships: the bitset worklists and
# round-robin rotation are shift/mask arithmetic that wraps silently in
# release builds, and every debug_assert! above them is compiled out.
cargo test -q --release -p xgft -p lmpr-core -p lmpr-flitsim

echo "==> verify --ci (static routing-correctness matrix)"
cargo run -q --release -p lmpr-bench --bin verify -- --ci > /dev/null

echo "==> golden equivalence (chaos + faults quick documents, 180 s budget)"
# Runs the seeded chaos and faults harnesses in-process and
# byte-compares their serialized documents against the committed
# results/chaos_quick.json and results/faults_quick.json, so any
# behavioral drift in the simulators, the SelectionEngine or the RNG
# consumption order fails CI. The chaos half also gates on runtime
# invariant violations (conservation, duplicates, progress).
timeout 180 cargo test -q --release -p lmpr-bench --test golden -- --ignored

echo "==> benchmark output oracle (every workload once, on a copy, 300 s budget)"
# The benchmark checks what it measures: flit conservation, routed +
# disconnected = flows, one epoch per committed batch, ctld replies and
# digests equal to a direct SelectionEngine's. Each workload runs once,
# briefly; timings are ignored and every run must exit 0 with no failed
# operation. It builds on a copy of the tree because building in place
# re-resolves benchmark/Cargo.lock, which only a benchmark change may
# rewrite.
timeout 300 bash -c '
  set -euo pipefail
  dir=$(mktemp -d)
  trap "rm -rf \"$dir\"" EXIT
  cp -r Cargo.toml Cargo.lock BENCHMARK.json src crates "$dir"/
  mkdir "$dir/benchmark"
  tar -C benchmark --exclude=./target --exclude=./out -cf - . | tar -C "$dir/benchmark" -xf -
  cd "$dir"
  for w in $(bash benchmark/bench.sh workloads); do
    out=$(bash benchmark/bench.sh --workload "$w" --seed 7 --seconds 1 --trace 0 \
          2> "$dir/err") || {
      echo "benchmark workload $w exited non-zero" >&2; cat "$dir/err" >&2; exit 1; }
    last=$(tail -n 1 <<< "$out")
    [[ $last == *"\"failed\": 0,"* ]] || {
      echo "benchmark workload $w failed operations: $last" >&2; exit 1; }
  done
'

echo "==> SIGKILL-and-resume smoke (orchestrated chaos sweep, 120 s budget)"
# Start an orchestrated quick sweep, SIGKILL it mid-flight, re-run the
# same command, and byte-compare the resumed document against the
# committed golden. Proves crash-consistency end to end: journal
# replay, snapshot restore, and byte-identical reassembly.
cargo build -q --release -p lmpr-bench --bin chaos
timeout 120 bash -c '
  dir=$(mktemp -d)
  trap "rm -rf \"$dir\"" EXIT
  orch=(./target/release/chaos --quick --orchestrate "$dir/results" \
        --json "$dir/resumed.json")
  "${orch[@]}" > /dev/null 2>&1 &
  pid=$!
  sleep 1.2
  kill -KILL "$pid" 2> /dev/null || true
  wait "$pid" 2> /dev/null || true
  [ -f "$dir/results/journal.json" ] || {
    echo "no journal written before the kill" >&2; exit 1; }
  "${orch[@]}" > /dev/null
  cmp "$dir/resumed.json" results/chaos_quick.json || {
    echo "resumed document is not byte-identical to the golden" >&2; exit 1; }
'

echo "==> ctld SIGKILL-and-restart smoke (epoch-fenced controller, 120 s budget)"
# Reference run: an uninterrupted daemon drains a scripted Poisson fault
# schedule and reports its routing-state digest. Crash run: the same
# daemon (same state dir semantics, fresh dir) is SIGKILLed mid-
# reconvergence — an artificial per-epoch certification delay keeps the
# window open — restarted against the same state directory, re-driven
# through the same ticks, and must land on the byte-identical digest.
# Also exercises chaos-injected certificate failure: the daemon must
# report degraded mode while serving the last-good epoch, then recover
# once the injected fault clears.
cargo build -q --release -p lmpr-ctld --bins
timeout 120 bash -c '
  set -euo pipefail
  dir=$(mktemp -d)
  trap "rm -rf \"$dir\"" EXIT
  CTLD=./target/release/ctld
  CTLC=./target/release/ctlc
  SCHED=poisson:0.0005:500:3000:9

  # --- Reference: uninterrupted run. ---
  "$CTLD" --topo 8port2tree --kind disjoint:4 --state-dir "$dir/a" \
          --socket "$dir/a.sock" --schedule "$SCHED" 2> /dev/null &
  apid=$!
  for _ in $(seq 100); do [ -S "$dir/a.sock" ] && break; sleep 0.1; done
  for t in 500 1000 1500 2000 2500 3000; do
    "$CTLC" --socket "$dir/a.sock" tick "$t" > /dev/null
  done
  ref=$("$CTLC" --socket "$dir/a.sock" digest)
  "$CTLC" --socket "$dir/a.sock" shutdown > /dev/null
  wait "$apid"

  # --- Crash run: SIGKILL mid-reconvergence, restart, re-drive. ---
  "$CTLD" --topo 8port2tree --kind disjoint:4 --state-dir "$dir/b" \
          --socket "$dir/b.sock" --schedule "$SCHED" \
          --reconverge-delay-ms 400 2> /dev/null &
  bpid=$!
  for _ in $(seq 100); do [ -S "$dir/b.sock" ] && break; sleep 0.1; done
  "$CTLC" --socket "$dir/b.sock" tick 500 > /dev/null
  # This tick dies with the daemon; its failure is the point.
  "$CTLC" --socket "$dir/b.sock" tick 1500 > /dev/null 2>&1 &
  cpid=$!
  sleep 0.15   # land inside the artificially slowed reconvergence
  kill -KILL "$bpid" 2> /dev/null || true
  wait "$bpid" 2> /dev/null || true
  # ctlc retries for over a second: left alive it reconnects to the
  # restarted daemon and its 500 -> 1500 jump merges two epochs.
  kill "$cpid" 2> /dev/null || true
  wait "$cpid" 2> /dev/null || true
  rm -f "$dir/b.sock"   # stale socket from the killed process
  ls "$dir/b"/epoch-*.snap > /dev/null || {
    echo "no checkpoint survived the kill" >&2; exit 1; }

  "$CTLD" --topo 8port2tree --kind disjoint:4 --state-dir "$dir/b" \
          --socket "$dir/b.sock" --schedule "$SCHED" 2> /dev/null &
  bpid=$!
  for _ in $(seq 100); do [ -S "$dir/b.sock" ] && break; sleep 0.1; done
  for t in 500 1000 1500 2000 2500 3000; do
    "$CTLC" --socket "$dir/b.sock" tick "$t" > /dev/null
  done
  got=$("$CTLC" --socket "$dir/b.sock" digest)
  [ "$got" = "$ref" ] || {
    echo "post-crash digest diverged from the uninterrupted run" >&2
    echo "  ref: $ref" >&2; echo "  got: $got" >&2; exit 1; }

  # --- Degraded mode: injected cert failure, then recovery. ---
  "$CTLC" --socket "$dir/b.sock" chaos on > /dev/null
  "$CTLC" --socket "$dir/b.sock" fault 1 link-down:3 > /dev/null
  "$CTLC" --socket "$dir/b.sock" status | grep -q "\"mode\": \"degraded\"" || {
    echo "injected certificate failure did not degrade the daemon" >&2; exit 1; }
  "$CTLC" --socket "$dir/b.sock" paths 0:5 > /dev/null || {
    echo "degraded daemon stopped serving the last-good epoch" >&2; exit 1; }
  "$CTLC" --socket "$dir/b.sock" chaos off > /dev/null
  "$CTLC" --socket "$dir/b.sock" tick 2000000 > /dev/null
  "$CTLC" --socket "$dir/b.sock" status | grep -q "\"mode\": \"serving\"" || {
    echo "daemon did not recover after the injected fault cleared" >&2; exit 1; }
  "$CTLC" --socket "$dir/b.sock" shutdown > /dev/null
  wait "$bpid"
'

echo "==> ctl_soak chaos + failover smoke (seeded failpoint soak, 120 s budget)"
# Seeded chaos soak (DESIGN.md §13–14): daemon + feeder + query
# workers under the escalating failpoint schedule (≥100 injected
# faults, ≥10 induced crash-restarts), then the failover phase — a hot
# standby replicates the primary and every daemon death promotes it
# (≥3 promotions) under wire + storage chaos. Every invariant is
# machine-checked (CTL-SOAK-EPOCH/SERVE/RECOVER/BATCH/FAILOVER/GEN).
# The binary exits non-zero on any invariant violation; two runs with
# the same seed must produce byte-identical documents, because every
# interleaving is a pure function of the seed (repro fp1:11:s0:w0:c0).
cargo build -q --release -p lmpr-ctld --bin ctl_soak
timeout 120 bash -c '
  set -euo pipefail
  dir=$(mktemp -d)
  trap "rm -rf \"$dir\"" EXIT
  ./target/release/ctl_soak --seed 11 --out "$dir/a.json" \
      > /dev/null 2> /dev/null
  ./target/release/ctl_soak --seed 11 --out "$dir/b.json" \
      > /dev/null 2> /dev/null
  cmp "$dir/a.json" "$dir/b.json" || {
    echo "soak documents differ across same-seed runs" >&2; exit 1; }
  grep -q "\"certified\": true" "$dir/a.json" || {
    echo "soak certificate did not certify" >&2; exit 1; }
  if grep -q "\"promotions\": 0," "$dir/a.json"; then
    echo "failover phase never promoted the standby" >&2; exit 1
  fi
  # A second seed takes a different path through the failpoint
  # schedule — promotions, fence crossings and recoveries all land on
  # different batches — and must certify just the same.
  ./target/release/ctl_soak --seed 7 --out "$dir/c.json" \
      > /dev/null 2> /dev/null
  grep -q "\"certified\": true" "$dir/c.json" || {
    echo "second-seed soak did not certify" >&2; exit 1; }
  grep -q "\"quotas_met\": true" "$dir/c.json" || {
    echo "second-seed soak missed its fault/promotion quotas" >&2; exit 1; }
'

echo "CI green."
