#!/bin/sh
# check.sh — the repository's CI gate: formatting, vet, the reference-VM
# guard, race tests, build, tests, the bench module, coverage floors, fuzz,
# mutate and checkpoint/resume smokes, the chaos suite, the faultinject
# no-op check and a cftcgd smoke. Exits non-zero on the first failure.
# `make check` runs this script.
set -eu

cd "$(dirname "$0")/.."

echo "== gofmt =="
unformatted=$(gofmt -l .)
if [ -n "$unformatted" ]; then
	echo "gofmt needed on:"
	echo "$unformatted"
	exit 1
fi

echo "== go vet =="
go vet ./...

# The switch VM (vm.New) is the test oracle of the threaded backend, not an
# executor: it steps one instruction at a time through EvalPure and runs
# several times slower. Outside internal/vm only tests may build it
# (examples/ and the bench/ ledger are outside cmd/ and internal/).
echo "== reference VM stays test-only =="
refvm=$(grep -rl --include='*.go' 'vm\.New(' cmd internal | grep -v '_test\.go$' | grep -v '^internal/vm/' || true)
if [ -n "$refvm" ]; then
	echo "non-test code builds the reference VM (vm.New):"
	echo "$refvm"
	exit 1
fi

# Focused full-speed race pass over the concurrency-bearing packages: the
# engine's cross-goroutine status plane, the campaign daemon's shard fan-out
# and the shared coverage structures. (The later -short -race sweep covers
# the rest of the tree.)
echo "== lint: go test -race (concurrency packages) =="
go test -race ./internal/fuzz ./internal/campaign ./internal/coverage ./internal/vm ./internal/ir
# The mutation package runs at full length too, so the prover oracle covers
# all 8 models under the race detector.
go test -race ./internal/mutate

echo "== go build =="
go build ./...

echo "== go test (shuffled) =="
go test -shuffle=on ./...

# Race mode runs -short: the headline campaign comparisons are
# timing-sensitive and starve under the race detector's ~15x slowdown.
echo "== go test -short -race =="
go test -short -race ./...

# The performance ledger under bench/ is its own module: the root build and
# tests above do not notice when an internal API change breaks it.
echo "== bench module: vet + test =="
go -C bench vet ./...
go -C bench test ./...

# Coverage floors on the load-bearing packages (VM backends, IR, coverage
# recorder, fuzz engine, mutation subsystem and its equivalence prover,
# static analysis).
echo "== coverage floors =="
scripts/cover.sh

# Native fuzz targets, briefly, past their committed corpora: the
# cross-backend lockstep rig and the disassembler round-tripper.
echo "== fuzz smoke =="
go test ./internal/vm -run '^$' -fuzz '^FuzzVMBackendsLockstep$' -fuzztime 10s
go test ./internal/ir -run '^$' -fuzz '^FuzzDisasmRoundTrip$' -fuzztime 5s

# Mutation-testing smoke: generate mutants for a small model, kill them
# with a freshly fuzzed suite plus one refuzz round, and require a mutation
# score in (0, 1]. Same gate as `make mutate-smoke`.
echo "== mutate smoke =="
out=$(go run ./cmd/cftcg mutate SolarPV -budget 30 -execs 1500 -fuzz-budget 5s -feedback 1 -json)
score=$(echo "$out" | sed -n 's/.*"score": \([0-9.]*\),*/\1/p' | head -n1)
echo "mutation score: $score"
awk "BEGIN { exit !($score > 0 && $score <= 1) }" </dev/null \
	|| { echo "mutate-smoke: score $score outside (0, 1]"; exit 1; }

# Multi-worker checkpoint/resume smoke: `cftcg fuzz -workers 2` runs a
# two-shard campaign, so each shard checkpoints to <base>.shardK and a
# resumed run carries on from the saved exec counts.
echo "== workers checkpoint/resume smoke =="
ckdir=$(mktemp -d)
go build -o "$ckdir/cftcg" ./cmd/cftcg
execs_of() { sed -n 's/^executions: \([0-9]*\),.*/\1/p' "$1"; }
"$ckdir/cftcg" fuzz SolarPV -workers 2 -execs 2000 -budget 60s -checkpoint "$ckdir/c.ckpt" >"$ckdir/first.txt"
for shard in 0 1; do
	[ -s "$ckdir/c.ckpt.shard$shard" ] || { echo "missing shard $shard checkpoint"; cat "$ckdir/first.txt"; exit 1; }
done
"$ckdir/cftcg" fuzz SolarPV -workers 2 -execs 3000 -budget 60s -resume "$ckdir/c.ckpt" >"$ckdir/resumed.txt"
first=$(execs_of "$ckdir/first.txt")
resumed=$(execs_of "$ckdir/resumed.txt")
echo "executions: $first saved, $resumed after resume"
[ "$first" = 4000 ] && [ "$resumed" = 6000 ] \
	|| { echo "resumed run did not carry on from the saved exec count"; cat "$ckdir/first.txt" "$ckdir/resumed.txt"; exit 1; }
rm -rf "$ckdir"

# Chaos suite: arm the build-tag-gated failpoints and run the
# fault-injection tests (torn WAL writes, fsync failures, checkpoint
# panics, hanging shards, kill-9 of a journaled daemon) under -race.
echo "== chaos: go test -race -tags faultinject =="
go test -race -tags faultinject ./internal/faultinject ./internal/wal ./internal/fuzz ./internal/campaign

# Daemon smoke test: build cftcgd, bring it up on an ephemeral port, poll
# the health and metrics planes, submit one campaign, verify a non-empty
# status snapshot, then drain it with SIGTERM.
echo "== cftcgd smoke =="
tmp=$(mktemp -d)
trap 'kill "$daemon_pid" 2>/dev/null || true; rm -rf "$tmp"' EXIT
go build -o "$tmp/cftcgd" ./cmd/cftcgd

# Failpoints must compile to no-ops in plain builds: the armed marker
# string appears only in binaries built with -tags faultinject.
echo "== faultinject no-op check =="
go build -o "$tmp/cftcgd_armed" -tags faultinject ./cmd/cftcgd
if grep -qa "faultinject: armed" "$tmp/cftcgd"; then
	echo "plain build carries armed failpoints"; exit 1
fi
grep -qa "faultinject: armed" "$tmp/cftcgd_armed" \
	|| { echo "armed build is missing the failpoint marker"; exit 1; }

"$tmp/cftcgd" -addr 127.0.0.1:0 -journal "$tmp/journal" >"$tmp/daemon.log" 2>&1 &
daemon_pid=$!

# The daemon logs its resolved listen address; extract the ephemeral port.
addr=""
for _ in $(seq 1 50); do
	addr=$(sed -n 's/.*listening on //p' "$tmp/daemon.log" | head -n1)
	[ -n "$addr" ] && break
	sleep 0.1
done
[ -n "$addr" ] || { echo "cftcgd never reported its address"; cat "$tmp/daemon.log"; exit 1; }

curl -fsS "http://$addr/healthz" | grep -q ok || { echo "healthz failed"; exit 1; }
curl -fsS "http://$addr/metrics" | grep -q cftcgd_uptime_seconds || { echo "metrics failed"; exit 1; }
curl -fsS -X POST -d '{"model":"SolarPV","shards":2,"budget":"2s","seed":1}' \
	"http://$addr/api/campaigns" | grep -q '"id": 1' || { echo "submit failed"; exit 1; }

# Poll until the campaign's snapshot shows real work (it runs for 2s).
ok=""
for _ in $(seq 1 100); do
	if curl -fsS "http://$addr/api/campaigns/1" | grep -q '"execs": [1-9]'; then
		ok=1
		break
	fi
	sleep 0.1
done
[ -n "$ok" ] || { echo "campaign never reported progress"; curl -fsS "http://$addr/api/campaigns/1"; exit 1; }
curl -fsS "http://$addr/metrics" | grep -q 'cftcg_campaign_execs_total{campaign="1"' \
	|| { echo "campaign metrics missing"; exit 1; }

kill -TERM "$daemon_pid"
wait "$daemon_pid" || { echo "cftcgd drain failed"; cat "$tmp/daemon.log"; exit 1; }
grep -q drained "$tmp/daemon.log" || { echo "cftcgd did not drain"; cat "$tmp/daemon.log"; exit 1; }
ls "$tmp/journal"/*.wal >/dev/null 2>&1 || { echo "journal wrote no segments"; exit 1; }

echo "OK"
