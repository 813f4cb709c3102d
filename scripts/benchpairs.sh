#!/usr/bin/env bash
# Paired end-to-end benchmark runs of a base commit against the working tree:
#
#   bash scripts/benchpairs.sh BASE WORKLOAD PAIRS [perfbench flags...]
#   bash scripts/benchpairs.sh HEAD~1 outofcore 10 --seconds 20
#
# BASE is checked out as a detached git worktree under .bench_build/ and
# both sides run perfbench/run.sh with the same seed per pair (pair i uses
# seed SEED0+i, SEED0 defaulting to 1). The side that runs first alternates
# between pairs. Extra flags go to perfbench on both sides; the default is
# --seconds 20 --trace 0.
#
# For every end-to-end metric of BENCHMARK.json it prints each side's
# median and quartiles, how many pairs the working tree won (ties count for
# neither side), and whether the medians differ by more than the base's
# interquartile range. A gain is claimable when the working tree wins at
# least nine tenths of the pairs and the gap exceeds that range. Raw
# results are kept under .bench_build/pairs/. Needs git, jq and go.
set -euo pipefail

if [ $# -lt 3 ]; then
	echo "usage: $0 BASE WORKLOAD PAIRS [perfbench flags...]" >&2
	exit 2
fi
base="$1" workload="$2" pairs="$3"
shift 3
flags=("$@")
[ ${#flags[@]} -gt 0 ] || flags=(--seconds 20 --trace 0)
seed0="${SEED0:-1}"

root="$(git rev-parse --show-toplevel)"
cd "$root"
sha="$(git rev-parse --verify "$base^{commit}")"
tree="$root/.bench_build/base-${sha:0:12}"
out="$root/.bench_build/pairs/$workload-${sha:0:12}"
mkdir -p "$out"
rm -f "$out"/*.json

cleanup() {
	git worktree remove --force "$tree" >/dev/null 2>&1 || true
	git worktree prune
}
trap cleanup EXIT
cleanup
git worktree add --detach "$tree" "$sha" >/dev/null

# run SIDE DIR SEED: one perfbench run from checkout DIR, its JSON result
# (the last line of stdout) saved as $out/SIDE-SEED.json.
run() {
	local side="$1" dir="$2" seed="$3" res
	res="$(cd "$dir" && bash perfbench/run.sh --workload "$workload" --seed "$seed" "${flags[@]}" | tail -n 1)"
	echo "$res" >"$out/$side-$seed.json"
	printf '  %-6s seed %-3s %s\n' "$side" "$seed" \
		"$(jq -c '{correct, query_p50_us: .metrics.query_p50_us.value, deltas_per_s: .metrics.deltas_per_s.value}' <<<"$res")"
}

for ((i = 0; i < pairs; i++)); do
	seed=$((seed0 + i))
	echo "pair $((i + 1))/$pairs (seed $seed)"
	if ((i % 2 == 0)); then
		run base "$tree" "$seed"
		run change "$root" "$seed"
	else
		run change "$root" "$seed"
		run base "$tree" "$seed"
	fi
done

# Summarize: one row per end-to-end metric, pairs matched by seed.
jq -rn --slurpfile spec BENCHMARK.json \
	--slurpfile b <(for f in "$out"/base-*.json; do cat "$f"; done) \
	--slurpfile c <(for f in "$out"/change-*.json; do cat "$f"; done) '
	# Quantile p of a list by linear interpolation between order statistics.
	def q(p): sort as $s | ($s | length) as $n | (($n - 1) * p) as $h | ($h | floor) as $lo
		| if $n == 0 then null
		  elif $lo + 1 >= $n then $s[$lo]
		  else $s[$lo] + ($h - $lo) * ($s[$lo + 1] - $s[$lo]) end;
	def fmt: if . == null then "-" else (. * 1000 | round / 1000 | tostring) end;
	def pad($n): tostring | if length < $n then . + (" " * ($n - length)) else . end;
	def row: [.[0] | pad(24)] + (.[1:3] | map(pad(28))) + (.[3:] | map(pad(8))) | join(" ");
	"incorrect runs: base \([$b[] | select(.correct != true)] | length), change \([$c[] | select(.correct != true)] | length)",
	(["metric", "base q1/med/q3", "change q1/med/q3", "wins", "gap>IQR", "claim"] | row),
	($spec[0].end_to_end[] | . as $m
		| [$b[] | .metrics[$m.name].value] as $bv
		| [$c[] | .metrics[$m.name].value] as $cv
		| select(($bv | map(select(. != null)) | length) > 0)
		| [range(0; [$bv, $cv] | map(length) | min)
			| if $m.better == "lower" then ($cv[.] < $bv[.]) else ($cv[.] > $bv[.]) end
			| select(.)] | length as $wins
		| (($cv | q(0.5)) - ($bv | q(0.5)) | fabs) as $gap
		| (($bv | q(0.75)) - ($bv | q(0.25))) as $iqr
		| [$m.name,
		   "\($bv | q(0.25) | fmt)/\($bv | q(0.5) | fmt)/\($bv | q(0.75) | fmt)",
		   "\($cv | q(0.25) | fmt)/\($cv | q(0.5) | fmt)/\($cv | q(0.75) | fmt)",
		   "\($wins)/\($bv | length)",
		   ($gap > $iqr | tostring),
		   (($wins >= 0.9 * ($bv | length)) and ($gap > $iqr) | tostring)]
		| row)'
