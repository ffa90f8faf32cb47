#!/usr/bin/env bash
# Prints the exact work counts of a short e2ebench run on every workload
# as one JSON object, {workload: {metric: value}}. Wall times are left
# out, so the output is the same on every host; CI diffs it against
# results/e2e_counts_seed1.json.
#
# Usage: scripts/e2e_counts.sh [seed]        (default seed 1)
set -euo pipefail
seed=${1:-1}
root=$(cd "$(dirname "$0")/.." && pwd)

run() {
  cargo run --release --offline --quiet --manifest-path "$root/e2ebench/Cargo.toml" -- "$@"
}

for w in grep-full thttpd-30 grep-decoys small-apps; do
  # `--trace 0` reports the end-to-end counts, `--trace 1` the per-layer
  # ones; the last line of each run is its JSON summary (job lines go
  # to stderr).
  e2e=$(run --workload "$w" --seed "$seed" --seconds 1 --trace 0 | tail -n 1)
  layer=$(run --workload "$w" --seed "$seed" --seconds 1 --trace 1 | tail -n 1)
  jq -n --arg w "$w" --argjson e "$e2e" --argjson l "$layer" '{($w): {
    correct: ($e.correct and $l.correct),
    paths_per_job: $e.metrics.paths_per_job.value,
    attempts_per_job: $e.metrics.attempts_per_job.value,
    "symex.steps": $l.metrics."symex.steps".value,
    "symex.forks": $l.metrics."symex.forks".value,
    "solver.queries": $l.metrics."solver.queries".value,
    "solver.nodes": $l.metrics."solver.nodes".value,
    "solver.propagation_rounds": $l.metrics."solver.propagation_rounds".value,
    "core.winner_rank": $l.metrics."core.winner_rank".value
  }}'
done | jq -s 'add'
