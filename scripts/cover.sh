#!/bin/sh
# cover.sh — statement-coverage floors for the packages where correctness is
# load-bearing: the VM backends (every campaign and every mutant grind
# executes here), the IR (programs, validator, assembler, generator), the
# coverage recorder and progress tracker (the packed per-step hit set every
# probe writes), the fuzz engine (Algorithm 1's feedback scan, corpus,
# checkpoints and minimization), the mutation subsystem (mutant
# generation, the kill oracle, and the equivalence prover that takes
# unkillable mutants out of the score), the static analysis (the one
# abstract transfer function, Eval, that both the dead-objective pass and
# the equivalence prover trust), and the campaign layer (the shard merge,
# the failed-shard path, the daemon's job files and status plane).
# Fails when a package drops below its committed floor. Floors ratchet up
# with the test suite; lower one only with a reviewed justification.
set -eu

cd "$(dirname "$0")/.."

check() {
	pkg=$1
	floor=$2
	pct=$(go test -cover "./$pkg" | sed -n 's/.*coverage: \([0-9.]*\)% of statements.*/\1/p')
	[ -n "$pct" ] || { echo "cover: no coverage line for $pkg"; exit 1; }
	echo "cover: $pkg $pct% (floor $floor%)"
	awk "BEGIN { exit !($pct >= $floor) }" </dev/null \
		|| { echo "cover: $pkg coverage $pct% below floor $floor%"; exit 1; }
}

check internal/vm 85
check internal/ir 80
check internal/coverage 85
check internal/fuzz 85
check internal/mutate 80
check internal/analysis 85
check internal/campaign 85
