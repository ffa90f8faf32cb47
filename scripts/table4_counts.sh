#!/usr/bin/env bash
# Prints the count columns of Table IV: per app, StatSym's #paths, pure
# symbolic execution's #paths, and whether the pure run found the bug
# or ran out of its modeled memory. The times are left out, so the
# output is the same on every host; CI diffs it against
# results/table4_counts.txt. Pure #paths is where the run crosses the
# memory budget, so it moves with anything that moves the modeled
# memory (live states plus the solver's private cache entries).
#
# Usage: scripts/table4_counts.sh
set -euo pipefail
root=$(cd "$(dirname "$0")/.." && pwd)

cargo run --release --offline --quiet --manifest-path "$root/Cargo.toml" -p bench --bin table4 |
  awk '
    BEGIN { print "app statsym_paths pure_paths pure_outcome" }
    /^-+$/ { rows = 1; next }
    rows && NF == 0 { exit }
    rows {
      outcome = $5
      if ($5 ~ /^[0-9.]+$/) outcome = "found"
      else if ($0 ~ /Failed \(out of memory\)/) outcome = "oom"
      print $1, $2, $4, outcome
    }'
