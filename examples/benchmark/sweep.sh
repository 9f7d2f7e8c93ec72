#!/usr/bin/env bash
# Run every workload `runs` times, each time with another seed, appending
# one result line per run to `out` (for --spread and --compare).
#
#   examples/benchmark/sweep.sh <out.jsonl> [runs=10] [trace=0] [first seed=1]
#
# Run from the repository root.
set -euo pipefail
out=$1
runs=${2:-10}
trace=${3:-0}
first=${4:-1}
for workload in serve_read_spread serve_read_hot serve_mixed_durable offline_general; do
  for ((seed = first; seed < first + runs; seed++)); do
    cargo run --release --quiet --manifest-path examples/benchmark/Cargo.toml -- \
      --workload "$workload" --seed "$seed" --trace "$trace" --out "$out" >/dev/null
  done
done
