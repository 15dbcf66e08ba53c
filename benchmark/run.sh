#!/usr/bin/env bash
# One full set of benchmark runs (each through bench.sh: release build,
# one process per run): every workload on every seed with tracing off,
# then one traced run per workload on the first seed. Results land in
# benchmark/out/SET/ as one JSON document per run.
#
#   benchmark/run.sh [SET[,SET...] [SEED...]]   (default: SET=latest, ten seeds)
#
# With several sets, every workload and seed is run once per set, one
# straight after the other, and which set goes first alternates: the
# machine's phases outlast a whole set, so only neighbouring runs can be
# compared (see README.md, "Noise").
#
# Exits non-zero as soon as a run fails one of its output checks.
set -euo pipefail
cd "$(dirname "$0")/.."

IFS=, read -r -a sets <<< "${1:-latest}"
shift || true
seeds=("$@")
[ ${#seeds[@]} -gt 0 ] || seeds=(7 11 13 17 19 23 29 31 37 41)

run=benchmark/bench.sh
workloads=$("$run" workloads)
for set_name in "${sets[@]}"; do
  case $set_name in
    '' | . | */* | *..*)
      echo "run.sh: a set is named by one plain directory name, not '$set_name'" >&2
      exit 2
      ;;
  esac
done
for set_name in "${sets[@]}"; do
  rm -rf "benchmark/out/$set_name"
  mkdir -p "benchmark/out/$set_name"
done

turn=0
for w in $workloads; do
  for s in "${seeds[@]}"; do
    for k in "${!sets[@]}"; do
      set_name=${sets[(k + turn) % ${#sets[@]}]}
      "$run" --workload "$w" --seed "$s" --trace 0 \
        --out "benchmark/out/$set_name/$w.seed$s.json" 2> /dev/null | tail -n 1 \
        | sed "s/^/$set_name $w seed $s: /"
    done
    turn=$((turn + 1))
  done
done
out=benchmark/out/${sets[0]}
for w in $workloads; do
  "$run" --workload "$w" --seed "${seeds[0]}" --trace 1 \
    --out "$out/$w.seed${seeds[0]}.trace.json" > "$out/$w.trace.txt" 2> "$out/$w.trace.log"
  echo "$w traced: $(grep -c . "$out/$w.trace.txt") lines in $out/$w.trace.txt"
done
echo "written: ${sets[*]/#/benchmark/out/}"
