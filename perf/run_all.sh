#!/usr/bin/env bash
# Runs the three workloads untraced, then traced, and writes one combined
# JSON document to perf/out/all.json (and to standard output).
#
#   SEED=42 RUN_SECONDS=20 perf/run_all.sh
set -euo pipefail
cd "$(dirname "$0")/.."

seed=${SEED:-42}
seconds=${RUN_SECONDS:-20}
perf=(cargo run --release --offline --quiet --manifest-path perf/Cargo.toml --)

mkdir -p perf/out
out=perf/out/all.json
{
  printf '{"seed":%s,"run_seconds":%s,"nproc":%s,"runs":{' "$seed" "$seconds" "$(nproc)"
  sep=
  for workload in dash_warm dash_cold ingest_mixed; do
    untraced=$("${perf[@]}" --workload "$workload" --seed "$seed" --seconds "$seconds" --trace 0 | tail -n 1)
    traced=$("${perf[@]}" --workload "$workload" --seed "$seed" --seconds "$seconds" --trace 1 | tail -n 1)
    printf '%s"%s":{"end_to_end":%s,"per_layer":%s}' "$sep" "$workload" "$untraced" "$traced"
    sep=,
  done
  printf '}}\n'
} > "$out"
cat "$out"
