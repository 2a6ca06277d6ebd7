#!/usr/bin/env bash
# One change's point on the benchmark trajectory: BENCH_<n>.json at the
# repository root.
#
# It copies the parent revision out with `git archive` into a temporary
# directory (nothing is registered in .git) and runs benchmarks/run.sh there
# and in this checkout in alternating parent/change pairs, on every workload
# BENCHMARK.json names; pair i runs seed i on both sides. It writes one JSON
# object:
#
#   env        nproc, GOMAXPROCS, Go version, both revisions, seconds per run,
#              pairs and the seeds;
#   workloads  per workload and side: the median of every end-to-end metric,
#              each run's correct flag and failed-op count, and each run's
#              metrics;
#   layers     per workload, three traced runs per side (--trace 1, seed 3,
#              after the pairs, alternating parent and change):
#              layers.<workload>.<side>.<metric> holds the median over the
#              three runs of every per-layer metric BENCHMARK.json lists
#              except the counts of work marked `=` (exactCounts in
#              benchmarks/layers.go, which repeat exactly at a fixed seed),
#              and layers.<workload>.runs.<side>.<metric> its three values;
#              the counts sit apart, side by side, as
#              layers.<workload>.exact.<metric>.{parent,change}, and the
#              script fails if one side's three runs disagree on any;
#   code       code.<pkg>.<column> for both sides: the ratchet's per-package
#              counts (packageCeilings in ratchet_test.go, which
#              TestCodeShapeRatchet holds equal to the tree's; the root
#              package is "root"). Columns: go, chan, select, panic,
#              exported, lines;
#   paper      paper.<table>.<row>.<column>.{parent,change}: every cell of
#              the paper's deterministic tables as each side's
#              cmd/reprobench prints them (-fig 4, 5, 6, 7, 8, 9 and
#              ablation, -repeats 1): Figure 4(b) and 4(c), the pruning
#              ratios, the Figure 4 census (fig4census.<query>.{census-groups,
#              census-alts,live-groups,live-alts}: the unpruned search space,
#              the ratios' denominator, and PruneAll's live state), 5(b) and
#              5(c), the update ratios, and their numerators, the repair's
#              touched groups and entries per expression (fig5counts.<ratio>.
#              {A-groups,A-entries,...,E-entries}), 6(b) and 6(c), the update ratios
#              of Q5 re-optimized from its executed plans' real
#              cardinalities through aqp.Calibrator, and their numerators,
#              each round's touched groups and entries (fig6counts.<round>.
#              {touched-groups,touched-entries}), 7(b) and 7(c), the
#              pruning ratios per pruning config, and their counts per query
#              and config (fig7counts.<query>.<config>-{live-groups,live-alts,
#              pruned-groups,pruned-alts}), 8(b) and 8(c), the pruning
#              during re-optimization over the Orders scan-cost sweep, and
#              their numerators with the repair's touched entries per scan
#              ratio and pruning config (fig8counts.<ratio>.<config>-
#              {flipped-groups,flipped-alts,touched-entries}),
#              Figure 9's entries the incremental stream controller touches
#              per printed slice (fig9.<slice>.inc-touched-entries), the
#              counts of Figure 10 per scheme and of Table 3 per slice length
#              (fig10counts.<scheme>.{plan-switches,touched-entries,
#              result-rows}, table3counts.<1s|5s|10s>.<the same>), and the
#              two ablations' counts (ablation_order.<query>.{census-alts,
#              depth-first,breadth-first} and ablation_space.<space>.
#              {best-cost,census-groups,census-alts}), e.g.
#              paper.fig4b.Q5.declarative, paper.fig6b.3.ratio or
#              paper.fig9.10.inc-touched-entries. The timed tables 4(a),
#              5(a), 6(a), 7(a) and 8(a), Figure 9's two timed columns and
#              the timings of Figure 10 and Table 3 are left out.
#
# TestBenchRecordNamesEveryMetric checks that the newest BENCH_*.json names
# every end-to-end metric of every workload and carries both sides' layers,
# with three runs per timed metric, and paper cells (a table the previous
# record lacks may lack the parent's side: the parent's cmd/reprobench did
# not print it yet).
#
# Usage: bash scripts/bench.sh <parent-rev> <n> [pairs=3] [seconds=16]
# Needs git, go and jq. Besides BENCH_<n>.json it writes only .bench_build/
# (run.sh's) and a mktemp -d directory it removes.
set -euo pipefail

if [ $# -lt 2 ]; then
	echo "usage: bash scripts/bench.sh <parent-rev> <n> [pairs] [seconds]" >&2
	exit 2
fi
parent_rev="$1" n="$2" pairs="${3:-3}" seconds="${4:-16}"
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
work="$(mktemp -d "${TMPDIR:-/tmp}/bench.XXXXXX")"
trap 'rm -rf "$work"' EXIT

mkdir -p "$work/parent"
git archive "$parent_rev" | tar -x -C "$work/parent"
parent_sha="$(git rev-parse --short "$parent_rev")"
change_sha="$(git rev-parse --short HEAD)"
if [ -n "$(git status --porcelain --untracked-files=no)" ]; then
	change_sha="$change_sha+dirty"
fi

# run <dir> <workload> <seed> <out>: run.sh's stdout, whose last line is the
# result object and whose first is the environment block.
run() {
	(cd "$1" && bash benchmarks/run.sh --workload "$2" --seed "$3" --seconds "$seconds" --trace 0) >"$4"
}

# traced <dir> <workload> <out>: the same, traced, at seed 3.
traced() {
	(cd "$1" && bash benchmarks/run.sh --workload "$2" --seed 3 --seconds "$seconds" --trace 1) >"$3"
}

# code <ratchet_test.go>: its packageCeilings rows as {"code.<pkg>.<col>": n}.
code() {
	sed -n 's/^\t"\([^"]*\)": *{\([0-9, ]*\)},$/\1 \2/p' "$1" | tr -d , |
		jq -R -s '[split("\n")[] | select(length > 0) | split(" ") | select(length == 7) as $f
			| ["go", "chan", "select", "panic", "exported", "lines"] | to_entries[]
			| {key: "code.\(if $f[0] == "." then "root" else $f[0] end).\(.value)",
			   value: ($f[.key + 1] | tonumber)}] | from_entries'
}

workloads="$(jq -r '.workloads[].name' BENCHMARK.json)"
for w in $workloads; do
	for i in $(seq 1 "$pairs"); do
		echo "bench: $w pair $i/$pairs" >&2
		run "$work/parent" "$w" "$i" "$work/$w.parent.$i.out"
		run "$root" "$w" "$i" "$work/$w.change.$i.out"
	done
done

for w in $workloads; do
	for i in 1 2 3; do
		echo "bench: $w traced $i/3" >&2
		traced "$work/parent" "$w" "$work/$w.traced.parent.$i.out"
		traced "$root" "$w" "$work/$w.traced.change.$i.out"
	done
done

code "$work/parent/ratchet_test.go" >"$work/code.parent.json"
code ratchet_test.go >"$work/code.change.json"

# paper <dir> <side>: the deterministic cells of Figures 4(b), 4(c), the
# Figure 4 census, 5(b), 5(c), 6(b), 6(c), 7(b), 7(c), 8(b), 8(c), the
# counts of Figures 5-8 and 10 and of Table 3, and of 9 and the two
# ablations as
# {"fig4b": {"Q5": {"declarative": 0.9, ...}, ...}, ...}. A table runs from
# its "== " title over a header and a rule to a blank or note line; of
# Figure 9 only the inc-touched-entries column is kept.
paper() {
	(cd "$1" && go build -o "$work/reprobench.$2" ./cmd/reprobench)
	{
		for f in 4 5 6 7 8 9 10 ablation; do "$work/reprobench.$2" -fig "$f" -repeats 1; done
		"$work/reprobench.$2" -table 3 -repeats 1
	} | awk '
		/^== / {
			t = ""; keep = ""; hdr = 2
			if ($0 ~ /^== Figure [45678]\([bc]\)/) t = "fig" substr($3, 1, 1) substr($3, 3, 1)
			else if ($0 ~ /^== Figure 4 census/) t = "fig4census"
			else if ($0 ~ /^== Figure ([5-8]|10) counts/) t = "fig" $3 "counts"
			else if ($0 ~ /^== Table 3 counts/) t = "table3counts"
			else if ($0 ~ /^== Figure 9:/) { t = "fig9"; keep = "inc-touched-entries" }
			else if ($0 ~ /^== Ablation: expansion order/) t = "ablation_order"
			else if ($0 ~ /^== Ablation: plan-space/) t = "ablation_space"
			next
		}
		NF == 0 || $1 == "note:" { t = ""; next }
		t == "" { next }
		hdr == 2 { split($0, cols); hdr = 1; next }
		hdr == 1 { hdr = 0; next }
		{ for (i = 2; i <= NF; i++) if (keep == "" || cols[i] == keep) print t, $1, cols[i], $i }' |
		jq -R -s 'split("\n") | map(select(length > 0) | split(" "))
			| reduce .[] as $f ({}; setpath($f[0:3]; $f[3] | tonumber))'
}
echo "bench: paper tables" >&2
paper "$work/parent" parent >"$work/paper.parent.json"
paper "$root" change >"$work/paper.change.json"

# One side of one workload (its runs' output files): medians, correctness and
# the runs' metrics.
side() {
	for f in "$@"; do tail -n 1 "$f"; done |
		jq -s --argjson names "$(jq '[.end_to_end[].name]' BENCHMARK.json)" '
		def median: sort | if length % 2 == 1 then .[length / 2 | floor]
			else (.[length / 2 - 1] + .[length / 2]) / 2 end;
		{median: ([$names[] as $m | {($m): ([.[].metrics[$m].value] | median)}] | add),
		 correct: [.[].correct], failed: [.[].failed],
		 runs: [.[] | .metrics | map_values(.value)]}'
}
for w in $workloads; do
	jq -n --argjson p "$(side "$work/$w".parent.*.out)" --argjson c "$(side "$work/$w".change.*.out)" \
		--arg w "$w" '{($w): {parent: $p, change: $c}}'
done | jq -s 'add' >"$work/workloads.json"

# Each workload's traced runs: per side, the median and the three values of
# every timed per-layer metric, with the exact counts taken out and set side
# by side. One side's runs must agree on every exact count.
exact="$(sed -n '/^var exactCounts/,/^}/s/^\t"\([^"]*\)",$/\1/p' benchmarks/layers.go | jq -R -s 'split("\n") | map(select(length > 0))')"
per_layer="$(jq '[.per_layer[].name]' BENCHMARK.json)"
# layers <out>...: the runs' per-layer metrics as {<metric>: [<value>, ...]}.
layers() {
	for f in "$@"; do tail -n 1 "$f"; done |
		jq -s --argjson names "$per_layer" '[.[].metrics | with_entries(select(.key as $k | $names | index($k)))
			| map_values(.value)] as $runs | $runs[0] | with_entries(.value = [$runs[][.key]])'
}
for w in $workloads; do
	p="$(layers "$work/$w".traced.parent.*.out)" c="$(layers "$work/$w".traced.change.*.out)"
	for side in "$p" "$c"; do
		if ! jq -e --argjson exact "$exact" 'all(to_entries[] | select(.key as $k | $exact | index($k));
			.value | unique | length == 1)' <<<"$side" >/dev/null; then
			echo "bench: $w: one side's traced runs disagree on an exact count" >&2
			exit 1
		fi
	done
	jq -n --argjson p "$p" --argjson c "$c" --argjson exact "$exact" --arg w "$w" '
		def median: sort | if length % 2 == 1 then .[length / 2 | floor]
			else (.[length / 2 - 1] + .[length / 2]) / 2 end;
		def timed: with_entries(select(.key as $k | $exact | index($k) | not));
		{($w): {parent: ($p | timed | map_values(median)), change: ($c | timed | map_values(median)),
		        runs: {parent: ($p | timed), change: ($c | timed)},
		        exact: ([$exact[] | {key: ., value: {parent: $p[.][0], change: $c[.][0]}}] | from_entries)}}'
done | jq -s 'add' >"$work/layers.json"

# The host as the benchmark itself reports it.
env_block="$(grep -h '^{"env"' "$work"/*.change.1.out | head -n 1)"
jq -n \
	--argjson nproc "$(jq '.env.nproc' <<<"$env_block")" \
	--argjson gomaxprocs "$(jq '.env.gomaxprocs' <<<"$env_block")" \
	--arg go "$(jq -r '.env.go' <<<"$env_block")" \
	--arg parent "$parent_sha" --arg change "$change_sha" \
	--argjson seconds "$seconds" --argjson pairs "$pairs" \
	--argjson n "$n" \
	--slurpfile workloads "$work/workloads.json" --slurpfile layers "$work/layers.json" \
	--slurpfile cp "$work/code.parent.json" --slurpfile cc "$work/code.change.json" \
	--slurpfile pp "$work/paper.parent.json" --slurpfile pc "$work/paper.change.json" '
	{change: $n,
	 env: {nproc: $nproc, gomaxprocs: $gomaxprocs, go: $go, parent: $parent, change: $change,
	       seconds: $seconds, pairs: $pairs, seeds: [range(1; $pairs + 1)]},
	 workloads: $workloads[0],
	 layers: $layers[0],
	 code: ($cc[0] | with_entries(.value = {parent: $cp[0][.key], change: .value})),
	 paper: ([$pp[0], $pc[0] | paths(numbers)] | unique
	         | reduce .[] as $k ({}; setpath($k; {parent: ($pp[0] | getpath($k)), change: ($pc[0] | getpath($k))})))}' >"BENCH_$n.json"
echo "bench: wrote BENCH_$n.json" >&2
