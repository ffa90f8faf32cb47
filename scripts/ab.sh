#!/usr/bin/env bash
# Paired A/B of one e2ebench workload: a base revision against the
# working tree.
#
# Usage: scripts/ab.sh <base-rev> <workload> <pairs> [seed] [seconds]
#        (seed defaults to 1, seconds to 10; runs use --trace 0)
#
# The base revision is checked out in a temporary `git worktree` and
# built with its own CARGO_TARGET_DIR; the working tree is built as it
# stands. Each pair runs both sides once, alternating which side goes
# first, so a drift of the host's speed falls on both. For every
# end-to-end metric that BENCHMARK.json lists, the table gives the base
# quartiles, the change median, the pairs the change won (strictly
# better in the metric's direction), and whether the median gap is in
# the better direction and larger than the base interquartile range.
# Every run appends its manifest to the working tree's run-history
# archive (e2ebench/out/history; a base run's record is moved there from
# the worktree's own archive), and each manifest records its side's
# revision (STATSYM_GIT_REV): the base's short sha, and for the working
# tree HEAD's short sha plus "-dirty" when it has uncommitted changes.
# Runs go offline; the worktree is removed on exit.
set -euo pipefail

usage() {
  echo "usage: $0 <base-rev> <workload> <pairs> [seed] [seconds]" >&2
  exit 2
}
[ $# -ge 3 ] && [ $# -le 5 ] || usage
rev=$1 workload=$2 pairs=$3 seed=${4:-1} seconds=${5:-10}
for n in "$pairs" "$seed" "$seconds"; do
  [[ $n =~ ^[0-9]+$ ]] || usage
done
[ "$pairs" -ge 1 ] || usage

root=$(cd "$(dirname "$0")/.." && pwd)
sha=$(git -C "$root" rev-parse --short "$rev^{commit}")
head=$(git -C "$root" rev-parse --short HEAD)
[ -z "$(git -C "$root" status --porcelain)" ] || head="$head-dirty"
work=$(mktemp -d)
cleanup() {
  git -C "$root" worktree remove --force "$work/base" 2>/dev/null || true
  git -C "$root" worktree prune
  rm -rf "$work"
}
trap cleanup EXIT
git -C "$root" worktree add --detach --quiet "$work/base" "$sha"

# side <base|change> <cargo command> <args...>
side() {
  local which=$1 cmd=$2
  shift 2
  if [ "$which" = base ]; then
    STATSYM_GIT_REV=$sha CARGO_TARGET_DIR="$work/target" \
      cargo "$cmd" --manifest-path "$work/base/e2ebench/Cargo.toml" "$@"
  else
    STATSYM_GIT_REV=$head cargo "$cmd" --manifest-path "$root/e2ebench/Cargo.toml" "$@"
  fi
}

for which in base change; do
  echo "ab: building $which" >&2
  side "$which" build --release --offline --quiet
done

# One run; its last stdout line (the JSON summary) is appended to
# $work/<side>.jsonl.
run() {
  local which=$1 out
  if ! out=$(side "$which" run --release --offline --quiet -- --workload "$workload" \
    --seed "$seed" --seconds "$seconds" --trace 0 2>"$work/stderr"); then
    cat "$work/stderr" >&2
    echo "ab: the $which run failed" >&2
    exit 1
  fi
  tail -n 1 <<<"$out" >>"$work/$which.jsonl"
  if [ "$which" = base ]; then
    local from="$work/base/e2ebench/out/history/history.jsonl"
    mkdir -p "$root/e2ebench/out/history"
    cat "$from" >>"$root/e2ebench/out/history/history.jsonl"
    rm "$from"
  fi
}

for ((i = 1; i <= pairs; i++)); do
  echo "ab: pair $i/$pairs" >&2
  if ((i % 2)); then
    run base
    run change
  else
    run change
    run base
  fi
done

echo "ab: $workload, base $rev ($sha) vs working tree ($head), seed $seed, --seconds $seconds, $pairs pair(s)"
jq -r -n \
  --slurpfile metrics <(jq '.end_to_end' "$root/BENCHMARK.json") \
  --slurpfile base "$work/base.jsonl" \
  --slurpfile change "$work/change.jsonl" '
  # Quantile p of xs, interpolating linearly between order statistics.
  def q($p): sort as $s | ($s | length) as $n | ($p * ($n - 1)) as $pos
    | ($pos | floor) as $i
    | if $i + 1 < $n then $s[$i] + ($pos - $i) * ($s[$i + 1] - $s[$i]) else $s[$i] end;
  def failed($runs): "\([$runs[].failed] | add)/\([$runs[].attempted] | add)";
  ["metric", "better", "base_q1", "base_med", "base_q3", "change_med", "won", "gap>IQR"],
  ($metrics[0][] as $m
    | [$base[].metrics[$m.name].value] as $b
    | [$change[].metrics[$m.name].value] as $c
    | (if $m.better == "lower" then 1 else -1 end) as $sign
    | ([range($b | length) | select($sign * ($b[.] - $c[.]) > 0)] | length) as $won
    | (($b | q(0.75)) - ($b | q(0.25))) as $iqr
    | ($sign * (($b | q(0.5)) - ($c | q(0.5)))) as $gain
    | [$m.name, $m.better, ($b | q(0.25)), ($b | q(0.5)), ($b | q(0.75)), ($c | q(0.5)),
       "\($won)/\($b | length)", (if $gain > $iqr then "yes" else "no" end)]),
  ["failed jobs", "", "", failed($base), "", failed($change), "", ""]
  | @tsv' |
  awk -F'\t' '{
    for (i = 3; i <= 6; i++) if ($i ~ /^-?[0-9.]+(e-?[0-9]+)?$/) $i = sprintf("%.4g", $i)
    printf "%-18s %-7s %11s %11s %11s %11s %7s %8s\n", $1, $2, $3, $4, $5, $6, $7, $8
  }'
