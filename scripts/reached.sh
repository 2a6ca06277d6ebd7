#!/usr/bin/env bash
# The coverage census: which non-test functions does the system actually run?
#
# It builds every entry point with statement coverage of all of repro/...,
# runs the traffic the system serves, merges the counts and lists every
# function of the root module (benchmarks/ excluded) that none of it reached:
#
#   - the four benchmark workloads, 2 s each at seed 1, untraced and traced
#     (the benchmarks module is built as it is, nothing under it is edited);
#   - every program under examples/;
#   - reproserve sessions covering every flag and protocol command: a
#     -data-dir boot and its restart; the statistics, memory, spill, result
#     cache and tracing flags, twice so the statistics snapshot reloads; and
#     one server on -listen and -http, driven over TCP and scraped at
#     /metrics, /metrics.json and /traces;
#   - reprobench's paper figures: -fig 4..10, small, ablation and -table 3;
#   - optcli under each -arch, and once with -graph -table -reopt -analyze;
#   - CI's must-run differentials, among them the optimizer contract
#     (TestIncrementalEqualsScratch and its neighbours, TestOracleMatchesCore)
#     and the served-space check (TestServedSpaceMatchesFullOnNamedQueries).
#
# An unreached function may stay only if its doc comment has a line
# "// Reached by: ..." naming who needs it: a paper figure, an oracle, an
# operator command or an injected fault path. Any other unreached function
# makes the census exit 1. Function-level coverage on fixed seeds is
# deterministic, so the result does not depend on the host.
#
# Usage: bash scripts/reached.sh     (no flags; a few minutes on 2 cores)
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
work="$(mktemp -d "${TMPDIR:-/tmp}/reached.XXXXXX")"
server_pid=""
cleanup() {
	if [ -n "$server_pid" ]; then kill "$server_pid" 2>/dev/null || true; fi
	rm -rf "$work"
}
trap cleanup EXIT

export GOFLAGS=-mod=mod GOWORK=off GOTOOLCHAIN=local
cover=(-cover -coverpkg=repro/...)
bin="$work/bin"
mkdir -p "$bin" "$work/cov/run" "$work/cov/test" "$work/cov/all" "$work/spill"
export GOCOVERDIR="$work/cov/run"
say() { printf 'reached: [%ss] %s\n' "$SECONDS" "$*" >&2; }

say "building the workloads, commands and examples with coverage"
go build -C benchmarks "${cover[@]}" -o "$bin/workloads" .
for dir in cmd/*/ examples/*/; do
	go build "${cover[@]}" -o "$bin/$(basename "$dir")" "./$dir"
done

say "workloads"
for w in reopt-storm stream-adapt serve-hot serve-adhoc; do
	for trace in 0 1; do
		"$bin/workloads" -workdir "$work/workloads" -workload "$w" -seed 1 -seconds 2 -trace "$trace" >"$work/out"
		grep -q '"correct":true' "$work/out" || { say "$w -trace $trace: verifier failed"; exit 1; }
	done
done

say "examples"
for dir in examples/*/; do
	"$bin/$(basename "$dir")" >/dev/null </dev/null
done

say "reproserve"
serve() { "$bin/reproserve" -sf 0.002 "$@"; }
session='query q5 Q5
query q1 Q1
prepare s1 SELECT n_name, COUNT(*) FROM nation, region WHERE n_regionkey = r_regionkey GROUP BY n_name
exec q5
exec q5
rows s1
rows q1
run SELECT COUNT(*) FROM orders WHERE o_orderkey < 100
explain q5
analyze q5
names
metrics
trace
bogus'
for boot in 1 2; do
	printf 'query q5 Q5\nexec q5\nrows q5\nquit\n' | serve -data-dir "$work/data" >/dev/null 2>"$work/err"
done
grep -q 'loaded 8 tables' "$work/err" || { say "the -data-dir restart did not load"; exit 1; }
for boot in 1 2; do
	{ printf '%s\n' "$session"; sleep 0.3; printf 'quit\n'; } |
		serve -stats-file "$work/stats.json" -stats-half-life 50 -stats-stale-after 20 \
			-stats-snapshot-interval 100ms -slow-query 1ns -trace-events 256 \
			-mem-budget-mb 1 -max-concurrent 2 -spill-dir "$work/spill" \
			-result-cache-mb 4 -metrics-json >/dev/null 2>"$work/err"
done
grep -q 'loaded [1-9][0-9]* statistics fingerprints' "$work/err" || { say "the statistics snapshot did not reload"; exit 1; }

"$bin/reproserve" -sf 0.002 -listen 127.0.0.1:0 -http 127.0.0.1:0 -trace-events 256 2>"$work/listen.err" &
server_pid=$!
for _ in $(seq 1 300); do
	grep -q 'listening on' "$work/listen.err" && break
	sleep 0.1
done
addr="$(sed -n 's/.*listening on \([^ ]*\) .*/\1/p' "$work/listen.err")"
http="$(sed -n 's|.*debug plane on http://\([^ ]*\) .*|\1|p' "$work/listen.err")"
exec 3<>"/dev/tcp/${addr%:*}/${addr##*:}"
printf '%s\nquit\n' "$session" >&3
cat <&3 >"$work/out"
exec 3<&-
grep -q '^ok bye' "$work/out" || { say "the TCP session did not finish"; exit 1; }
for path in metrics metrics.json traces; do
	curl -sf "http://$http/$path" >/dev/null
done
kill -TERM "$server_pid"
wait "$server_pid"
server_pid=""

say "paper figures"
for fig in 4 5 6 7 8 9 10 small ablation; do
	"$bin/reprobench" -fig "$fig" -sf 0.002 -repeats 1 -slices 10 >/dev/null
done
"$bin/reprobench" -table 3 -sf 0.002 -repeats 1 -slices 10 >/dev/null

say "optcli"
for arch in declarative volcano systemr; do
	"$bin/optcli" -arch "$arch" -sf 0.002 >/dev/null
done
"$bin/optcli" -sf 0.002 -graph -table -reopt A=0.5,scan:orders=4 -analyze >/dev/null

say "must-run differentials"
differential() {
	go test "${cover[@]}" -count=1 -run "$2" "$1" -args -test.gocoverdir="$work/cov/test" >"$work/out" ||
		{ cat "$work/out" >&2; exit 1; }
}
differential ./internal/exec/ '^(TestTPCHReferenceDifferential|TestPlansAgreeWithReference|TestIndexNLPlansAgreeWithReference|TestResultCacheSpoolProbeDifferential|TestLivenessEdgeCases|TestReopenedExecutionMatchesFresh|TestTPCHSpillDifferential|TestSpillJoinMatchesUnbounded|TestSpillJoinForcedRecursion|TestSpillJoinSkewChunkFallback|TestSelectionKernelsMatchScalar|TestHashJoinProbeMatchesChainWalk|TestDirectGroupIdsMatchHashPath)$'
differential ./internal/server/ '^(TestCloneLeafGuardOnDiskStore|TestStorageRestartDifferential|TestSegScanZonePruningDifferential|TestDriftReconvergence|TestHeldRunMatchesFresh|TestHeldRunProfiles)$'
differential ./internal/linearroad/ '^TestWindowsMatchRowOracle$'
differential ./internal/core/ '^(TestIncrementalEqualsScratch|TestCloneEqualsOriginal|TestRepairCounterTrajectory|TestReoptimizeSteadyStateAllocs|TestBreadthFirstAgrees|TestRankQueueMatchesReference|TestServedSpaceMatchesFullOnNamedQueries)$'
differential ./internal/deltalog/ '^TestOracleMatchesCore$'
differential ./internal/cost/ '^TestCardMemoMatchesProduct$'
differential ./internal/relalg/ '^TestSplitMatchesReference$'

go tool covdata merge -i="$work/cov/run,$work/cov/test" -o "$work/cov/all"
go tool covdata textfmt -i="$work/cov/all" -o "$work/cov.txt"
grep -v '^repro/benchmarks/' "$work/cov.txt" >"$work/root.txt"
go tool cover -func="$work/root.txt" >"$work/func.txt"

# annotated FILE LINE: does the doc comment above the declaration at LINE
# carry a "// Reached by:" line?
annotated() {
	awk -v decl="$2" '
		NR < decl { if ($0 ~ /^[ \t]*\/\//) doc = doc "\n" $0; else doc = "" }
		NR == decl { found = doc ~ /\/\/ Reached by:/; exit }
		END { exit !found }' "$1"
}

unreached=0
bare=0
while read -r loc name _; do
	file="${loc%%:*}"
	line="${loc#*:}"
	line="${line%:}"
	file="${file#repro/}"
	unreached=$((unreached + 1))
	if annotated "$file" "$line"; then
		printf '%s:%s\t%s\treached by its doc line\n' "$file" "$line" "$name"
	else
		printf '%s:%s\t%s\tUNREACHED\n' "$file" "$line" "$name"
		bare=$((bare + 1))
	fi
done < <(awk '$1 != "total:" && $NF == "0.0%"' "$work/func.txt")

total="$(awk '$1 == "total:" {print $NF}' "$work/func.txt")"
say "$unreached functions unreached, $bare without a '// Reached by:' line; the census reaches $total of root-module statements"
if [ "$bare" -gt 0 ]; then
	exit 1
fi
