GO ?= go

.PHONY: all build test race vet fmt lint check bench bench-test mutate-smoke cover fuzz-smoke

all: check

build:
	$(GO) build ./...

# -shuffle=on randomizes test and subtest order every run, flushing out
# inter-test state dependence (the seed is printed for replay). The chaos
# suite (failpoints armed through internal/faultinject, and a kill-9 of a
# real journaled daemon process) runs here like any other test.
test:
	$(GO) test -shuffle=on ./...

# Race runs in -short mode: the headline campaign comparisons are
# timing-sensitive and starve under the race detector's ~15x slowdown; the
# plain `test` target runs them at native speed. -short skips only the
# kill-9 chaos test, which lint runs under -race.
race:
	$(GO) test -short -race ./...

vet:
	$(GO) vet ./...

# fmt fails (listing the offenders) when any file is not gofmt-clean.
fmt:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

# lint is the fast pre-commit gate: formatting, vet, and a full-speed race
# pass over the concurrency-bearing packages (the engine's status plane, the
# campaign daemon's shard fan-out and its whole chaos suite, and the shared
# coverage structures) and over the mutation package, whose prover oracle
# then covers all 8 models.
lint: fmt vet
	$(GO) test -race ./internal/fuzz ./internal/campaign ./internal/coverage ./internal/vm ./internal/ir
	$(GO) test -race ./internal/mutate

# mutate-smoke is the mutation-testing end-to-end gate: generate mutants
# for a small model, kill them with a freshly fuzzed suite plus one refuzz
# round (-feedback 1), and require a mutation score in (0, 1] — some mutant
# killed, none double-counted.
mutate-smoke:
	@out=$$($(GO) run ./cmd/cftcg mutate SolarPV -budget 30 -execs 1500 -fuzz-budget 5s -feedback 1 -json); \
	score=$$(echo "$$out" | sed -n 's/.*"score": \([0-9.]*\),*/\1/p' | head -n1); \
	echo "mutation score: $$score"; \
	awk "BEGIN { exit !($$score > 0 && $$score <= 1) }" </dev/null \
		|| { echo "mutate-smoke: score $$score outside (0, 1]"; exit 1; }

# cover enforces the statement-coverage floors on the load-bearing
# packages (VM backends, IR, coverage recorder, fuzz engine, mutation
# subsystem and its equivalence prover, static analysis, campaign layer);
# see scripts/cover.sh for the committed floors.
cover:
	scripts/cover.sh

# fuzz-smoke runs the native fuzz targets briefly past their committed
# corpora: the cross-backend lockstep rig chews randomized programs on the
# switch and threaded backends, and the model decoder behind cftcg's and
# cftcgd's .slx loading, and the parser of the MATLAB Function scripts such
# a file carries, must return a result or an error for any input; a
# checkpoint the loader accepts must resume an engine its budget ends; and a
# campaign spec the daemon accepts must build an engine that runs or refuse
# it, never panic.
fuzz-smoke:
	$(GO) test ./internal/vm -run '^$$' -fuzz '^FuzzVMBackendsLockstep$$' -fuzztime 10s
	$(GO) test ./internal/slxml -run '^$$' -fuzz '^FuzzDecodeModel$$' -fuzztime 5s
	$(GO) test ./internal/mlfunc -run '^$$' -fuzz '^FuzzParse$$' -fuzztime 5s
	$(GO) test ./internal/fuzz -run '^$$' -fuzz '^FuzzLoadCheckpoint$$' -fuzztime 5s
	$(GO) test ./internal/campaign -run '^$$' -fuzz '^FuzzSpec$$' -fuzztime 5s

# bench-test vets and tests the performance ledger under bench/. It is its
# own module, so the root build and tests do not notice when a change to an
# internal API breaks it.
bench-test:
	$(GO) -C bench vet ./...
	$(GO) -C bench test ./...

# check is the CI gate. It runs scripts/check.sh, which runs the targets
# above and the stages without a target of their own (the reference-VM and
# failpoint guards, the workers checkpoint/resume smoke and the cftcgd
# smoke), stopping at the first failure.
check:
	scripts/check.sh

bench:
	$(GO) test -bench=. -benchmem -run=^$$
