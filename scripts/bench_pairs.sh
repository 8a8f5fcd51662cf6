#!/usr/bin/env bash
# bench_pairs.sh — paired end-to-end benchmark runs of a parent revision
# against the working tree:
#
#   scripts/bench_pairs.sh <parent-rev> <workload> <pairs> [seed] [seconds]
#
# The parent is exported with `git archive` and both sides are built
# once, in the environment e2ebench/run.sh uses (every build product,
# cache and disk tier under .bench_build/). Pair i runs the parent first
# when i is odd and the change first when i is even, so a drift in the
# machine's speed over the session does not favour one side. Each run is
# `e2ebench --workload W --seed S --seconds T --trace 0` (seed 1 and 20 s
# by default).
#
# For every metric the runs report, the summary prints the parent's and
# the change's median with the interquartile range [q1–q3], the
# direction in which the metric is better (from BENCHMARK.json, "?"
# when it is not declared there), and the number of pairs the change
# won. A claimed gain needs a win in nearly every pair and medians
# further apart than the parent's interquartile range. Raw outputs stay
# in .bench_build/pairs/runs/.
#
# Run it from inside the repository.
set -euo pipefail

if [[ $# -lt 3 || $# -gt 5 ]]; then
	echo "usage: scripts/bench_pairs.sh <parent-rev> <workload> <pairs> [seed] [seconds]" >&2
	exit 2
fi
parent=$1 workload=$2 pairs=$3 seed=${4:-1} secs=${5:-20}

root=$(git rev-parse --show-toplevel)
cd "$root"
out="$root/.bench_build/pairs"
rm -rf "$out/parent-src" "$out/runs" "$out/tmp"
mkdir -p "$out/parent-src" "$out/runs" "$out/tmp" "$out/gocache" "$out/gotmp" "$out/config"
export GOCACHE="$out/gocache" GOTMPDIR="$out/gotmp" TMPDIR="$out/gotmp"
export GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config"
export GOENV=off GOTOOLCHAIN=local GOFLAGS=-mod=readonly

git archive "$parent" | tar -x -C "$out/parent-src"
(cd "$out/parent-src" && go build -o "$out/parent.bin" ./e2ebench)
go build -o "$out/change.bin" ./e2ebench
echo "# bench-pairs: $(git rev-parse --short "$parent") vs working tree, $workload, $pairs pairs, seed $seed, ${secs}s"

run() { # side pair
	local dir=$root
	[[ $1 == parent ]] && dir="$out/parent-src"
	(cd "$dir" && "$out/$1.bin" --tmp "$out/tmp" --workload "$workload" \
		--seed "$seed" --seconds "$secs" --trace 0) >"$out/runs/$1-$2.txt"
}
for ((i = 1; i <= pairs; i++)); do
	if ((i % 2)); then order="parent change"; else order="change parent"; fi
	for side in $order; do
		run "$side" "$i"
	done
	echo "# pair $i done ($order)"
done

# One "side pair metric value" line per reported metric, plus the
# failed-op count, then the summary.
for ((i = 1; i <= pairs; i++)); do
	for side in parent change; do
		awk -v side="$side" -v pair="$i" '
			/^# .*attempted [0-9]+, failed [0-9]+/ { print side, pair, "failed_ops", $NF }
			/^#   / { print side, pair, $2, $3 }' "$out/runs/$side-$i.txt"
	done
done >"$out/runs/values.txt"

awk '
	FNR == NR {
		if ($1 == "\"name\":") { gsub(/[",]/, "", $2); name = $2 }
		if ($1 == "\"better\":") { gsub(/[",]/, "", $2); better[name] = $2 }
		next
	}
	{
		v[$1, $3, $2] = $4
		if (!($3 in seen)) { seen[$3] = 1; order[++n] = $3 }
		if ($2 > pairs) pairs = $2
	}
	function sortv(a, k,   i, j, t) {
		for (i = 2; i <= k; i++)
			for (j = i; j > 1 && a[j-1] > a[j]; j--) { t = a[j]; a[j] = a[j-1]; a[j-1] = t }
	}
	function q(a, k, p,   h, lo) { # linear interpolation between order statistics
		h = (k - 1) * p + 1; lo = int(h)
		return lo >= k ? a[k] : a[lo] + (h - lo) * (a[lo+1] - a[lo])
	}
	function stats(side, m,   a, k, i) {
		k = 0
		for (i = 1; i <= pairs; i++) if ((side, m, i) in v) a[++k] = v[side, m, i] + 0
		if (k == 0) return "-"
		sortv(a, k)
		return sprintf("%.4g [%.4g–%.4g]", q(a, k, 0.5), q(a, k, 0.25), q(a, k, 0.75))
	}
	END {
		better["failed_ops"] = "lower"
		printf "%-36s %-7s %-34s %-34s %s\n", "metric", "better", "parent median [q1–q3]", "change median [q1–q3]", "change wins"
		for (o = 1; o <= n; o++) {
			m = order[o]; b = (m in better) ? better[m] : "?"
			wins = 0; both = 0
			for (i = 1; i <= pairs; i++) {
				if (!(("parent", m, i) in v) || !(("change", m, i) in v)) continue
				both++
				p = v["parent", m, i] + 0; c = v["change", m, i] + 0
				if ((b == "lower" && c < p) || (b == "higher" && c > p)) wins++
			}
			printf "%-36s %-7s %-34s %-34s %s\n", m, b, stats("parent", m), stats("change", m), (b == "?" ? "-" : wins "/" both)
		}
	}' BENCHMARK.json "$out/runs/values.txt"
