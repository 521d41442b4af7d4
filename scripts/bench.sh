#!/bin/sh
# bench.sh — run the pinned benchmark set and write a machine-readable
# snapshot (default BENCH_v9.json) for cross-PR performance tracking.
# The pinned set is the fast, stable subset of the root bench_test.go
# harness: mutation-strategy costs, mutant-runner throughput, and the
# switch-vs-threaded backend comparison.
set -eu

cd "$(dirname "$0")/.."
out="${1:-BENCH_v9.json}"
pattern='^(BenchmarkTable1MutationStrategies|BenchmarkMutantKill|BenchmarkVMBackends)$'

raw=$(go test -run '^$' -bench "$pattern" -benchtime 200ms .)
echo "$raw" >&2

echo "$raw" | awk -v date="$(date -u +%Y-%m-%dT%H:%M:%SZ)" '
BEGIN {
	print "{"
	printf "  \"date\": \"%s\",\n", date
	printf "  \"benchmarks\": [\n"
	n = 0
}
/^Benchmark/ {
	if (n++) printf ",\n"
	printf "    {\"name\": \"%s\", \"iters\": %s, \"ns_per_op\": %s", $1, $2, $3
	for (i = 5; i < NF; i += 2) printf ", \"%s\": %s", $(i+1), $i
	printf "}"
}
END {
	printf "\n  ]\n}\n"
}' >"$out"
echo "wrote $out"
