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
# JSON string escaper — are each written once, in crates/codec, and the
# seeded property cases draw from those same two.
if cargo tree -p lmpr-ctld -e normal --offline | grep -E "lmpr-(bench|flitsim) "; then
  echo "lmpr-ctld must not depend on lmpr-bench or lmpr-flitsim" >&2
  exit 1
fi
if grep -rniE --include="*.rs" \
     "0100_?0000_?01b3|bf58_?476d_?1ce4_?e5b9|7f4a_?7c15|fn json_string" \
     crates src tests examples |
   grep -v "^crates/codec/"; then
  echo "FNV-1a / SplitMix64 / json_string redefined outside crates/codec" >&2
  exit 1
fi
# Independent work fans out through lmpr_codec::par alone: one CPU
# count, one scoped pool, one panic policy. (The analyzer's pattern list
# names `thread::scope` as data.) The sweep's panic-to-error variants
# stay retired.
if grep -rnE --include="*.rs" "available_parallelism|thread::scope" \
     crates src tests examples |
   grep -v "^crates/codec/" |
   grep -vE '^crates/xtask/src/analyze.rs:[0-9]+: +"thread::scope",$'; then
  echo "available_parallelism / thread::scope outside crates/codec" >&2
  exit 1
fi
if grep -rnE --include="*.rs" "WorkerPanicked|MissingResult" \
     crates src tests examples; then
  echo "SweepError::WorkerPanicked / MissingResult are retired" >&2
  exit 1
fi
# JSON layout lives in crates/codec: every result document, certificate
# and wire frame is written by lmpr_codec::json::Writer, and a nested
# document writes itself into its parent's writer. The hand-laid-out
# emitters it replaced stay retired, and so does any format string that
# opens a JSON object (`"{{\"…"`, `"{{\n…"`).
if grep -rnE --include="*.rs" \
     -e "json_list|reports_to_json|witness_json|sim_error_to_json|write_document" \
     -e '"\{\{\\("|n)' \
     crates src tests examples | grep -v "^crates/codec/"; then
  echo "JSON is laid out by lmpr_codec::json::Writer alone" >&2
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
# One PRNG and one perf harness: the xoshiro256++ stream lives in
# crates/codec and benchmark/ is the only timing harness, so the
# vendored rand and criterion stand-ins and perf_baseline stay retired.
if grep -rnE --include="*.rs" "rand::|SmallRng|criterion|perf_baseline" \
     crates src tests examples ||
   cargo tree --workspace -e all --offline | grep -E " (rand|criterion) v"; then
  echo "rand / SmallRng / criterion / perf_baseline are retired" >&2
  exit 1
fi
# Properties run on lmpr_codec::cases: plain functions of a seeded
# CaseRng and the standard assert macros. The proptest stand-in, whose
# macro added syntax but no shrinking, stays retired.
if grep -rnE --include="*.rs" --include="Cargo.toml" \
     "proptest|prop_assert|prop_assume|ProptestConfig" \
     Cargo.toml crates src tests examples ||
   cargo tree --workspace -e all --offline | grep -E "proptest v"; then
  echo "proptest / prop_assert / prop_assume / ProptestConfig are retired" >&2
  exit 1
fi
# A chaos sweep is deterministic and short, so a killed one is rerun:
# the sweep orchestrator, its LMPRSNAP flit snapshot and the SNAP-*
# certificates stay retired.
if grep -rnE --include="*.rs" \
     "SweepOrchestrator|OrchestratorOptions|snapcheck|LMPRSNAP|SnapshotError|restore_cached|--orchestrate" \
     crates src tests examples; then
  echo "the sweep orchestrator and the flit snapshot are retired" >&2
  exit 1
fi
# ctld answers reads from a published snapshot, so nothing queues a read
# and nothing can expire one: the read deadline, its error code and the
# ctlc flag stay retired, and the daemon serves from an uncached engine.
if grep -rnE --include="*.rs" "ErrorCode::Deadline|--deadline-ms" \
     crates src tests examples; then
  echo "ErrorCode::Deadline / --deadline-ms are retired" >&2
  exit 1
fi
# The checkpoint store calls std::fs itself and consults one private
# fault injector; the soak's seed is its repro. The two-trait storage
# seam, FailPlan's repro-string parser, the typed crash marker and the
# flit sweep's pre-flight hook, none of which had a caller, stay retired.
if grep -rnE --include="*.rs" \
     -e "StoreIo|StoreFile|OsStoreIo|FailpointIo|RawFailpointFile|PlanParseError" \
     -e "InjectedCrash|is_injected_crash|open_with_io|start_with_io|run_sweep_with_preflight" \
     crates src tests examples; then
  echo "the store I/O seam, FailPlan::parse, InjectedCrash and the sweep pre-flight hook are retired" >&2
  exit 1
fi
if grep -rn --include="*.rs" "SelectionEngine::cached" crates/ctld/src; then
  echo "ctld serves from an uncached SelectionEngine" >&2
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

echo "==> cargo test -q --release -p xgft -p lmpr-core -p lmpr-flitsim -p lmpr-flowsim -p lmpr-verify"
# The simulator stack again as it ships: the bitset worklists and
# round-robin rotation are shift/mask arithmetic that wraps silently in
# release builds, and every debug_assert! above them is compiled out.
# The flow-level deposit and the certificates' path-shape check walk
# paths by the closed-form u32 link arithmetic of xgft::PairWalk, so
# they run here too.
cargo test -q --release -p xgft -p lmpr-core -p lmpr-flitsim -p lmpr-flowsim -p lmpr-verify

echo "==> verify --ci (static routing-correctness matrix)"
cargo run -q --release -p lmpr-bench --bin verify -- --ci > /dev/null

echo "==> golden equivalence (chaos + faults quick documents, 180 s budget)"
# Runs the seeded chaos and faults harnesses in-process and
# byte-compares their serialized documents against the committed
# results/chaos_quick.json and results/faults_quick.json, so any
# behavioral drift in the simulators, the SelectionEngine or the RNG
# consumption order fails CI. The chaos half also gates on runtime
# invariant violations (conservation, duplicates, progress).
timeout 180 cargo test -q --release -p lmpr-bench --test golden -- --ignored quick

echo "==> full chaos sweep golden (results/chaos.json, 120 s budget)"
# A killed sweep is rerun, not resumed; this pins what the rerun writes:
# the full chaos document, byte for byte.
timeout 120 cargo test -q --release -p lmpr-bench --test golden -- \
  --ignored chaos_full_document_is_byte_identical_to_golden

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
# daemon-side faults, ≥10 induced crash-restarts), then the failover
# phase — a hot standby replicates the primary and every daemon death
# promotes it (≥3 promotions) under wire + storage chaos. Every
# invariant is machine-checked (CTL-SOAK-EPOCH/SERVE/RECOVER/BATCH/
# FAILOVER/GEN). The binary exits non-zero on any invariant violation.
# The document holds only logical fields, each a pure function of the
# seed (plan fp1:11:s0:w0:c0); wall-clock tallies — the feeder's own
# wire faults, reconnects and resubmissions, query and standby counts —
# go to stderr. So two runs with the same seed must produce
# byte-identical documents, and seed 42 must reproduce the committed
# CTL_SOAK.json that EXPERIMENTS.md E16/E17 quote.
cargo build -q --release -p lmpr-ctld --bin ctl_soak
timeout 120 bash -c '
  set -euo pipefail
  dir=$(mktemp -d)
  trap "rm -rf \"$dir\"" EXIT
  ./target/release/ctl_soak --seed 42 --out "$dir/committed.json" \
      > /dev/null 2> /dev/null
  cmp "$dir/committed.json" CTL_SOAK.json || {
    echo "seed-42 soak document differs from the committed CTL_SOAK.json" >&2
    exit 1; }
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
