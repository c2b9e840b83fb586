#!/usr/bin/env bash
# Exact work gate for bench_pipeline. Runs every input listed in
# bench-golden.json (next to this script) for one untimed pass and fails
# unless the run is correct and its `outputs_digest` and `counts_per_pass`
# equal the committed ones. Digests and counts are deterministic, so any
# difference means the pipeline computed something else.
#
# Usage, from the repository root (needs jq):
#   .github/check-bench-golden.sh
set -euo pipefail

golden="$(dirname "$0")/bench-golden.json"
bench=(cargo run --release --quiet --offline --manifest-path bench_pipeline/Cargo.toml --)
cargo build --release --quiet --offline --manifest-path bench_pipeline/Cargo.toml

status=0
while read -r run; do
  workload=$(jq -r .workload <<<"$run")
  seed=$(jq -r .seed <<<"$run")
  suite=$(jq -r .suite <<<"$run")
  label="$workload (seed $seed, suite $suite)"
  out=$("${bench[@]}" --workload "$workload" --seed "$seed" --suite "$suite" \
    --seconds 1 --trace 0)
  # The last line is the result, the line before it the run's metadata.
  result=$(tail -n 1 <<<"$out")
  meta=$(tail -n 2 <<<"$out" | head -n 1)
  want=$(jq -S -c '{outputs_digest, counts_per_pass}' <<<"$run")
  got=$(jq -S -c '.meta | {outputs_digest, counts_per_pass}' <<<"$meta")
  if [ "$(jq -r .correct <<<"$result")" != true ]; then
    echo "FAIL $label: the run reported failures: $result"
    status=1
  elif [ "$got" != "$want" ]; then
    echo "FAIL $label"
    echo "  want $want"
    echo "  got  $got"
    status=1
  else
    echo "ok   $label: $got"
  fi
done < <(jq -c '.[]' "$golden")
exit "$status"
