#!/bin/sh
# check.sh — the repository's CI gate: the reference-VM and failpoint
# guards, then the Makefile's stages (formatting, vet and race lint, build,
# tests, race tests, the bench module, coverage floors, fuzz and mutate
# smokes), the workers checkpoint/resume smoke and a cftcgd smoke. The chaos
# suite is part of the tests and race tests. Exits non-zero on the first
# failure. `make check` runs this script.
set -eu

cd "$(dirname "$0")/.."

# The switch VM (vm.New) is the test oracle of the threaded backend, not an
# executor: it steps one instruction at a time through EvalPure and runs
# several times slower. Outside internal/vm only tests may build it, in
# cmd/, internal/ and examples/ alike (the bench/ ledger, a module of its
# own, still times it).
echo "== reference VM stays test-only =="
refvm=$(grep -rl --include='*.go' 'vm\.New(' cmd internal examples | grep -v '_test\.go$' | grep -v '^internal/vm/' || true)
if [ -n "$refvm" ]; then
	echo "non-test code builds the reference VM (vm.New):"
	echo "$refvm"
	exit 1
fi

# Failpoints (internal/faultinject) are compiled into every build and armed
# only through Set and Reset. Only tests may call them, so a running
# program can never inject a fault.
echo "== failpoints stay test-only =="
armers=$(grep -rlE --include='*.go' 'faultinject\.(Set|Reset)\(' cmd internal examples | grep -v '_test\.go$' || true)
if [ -n "$armers" ]; then
	echo "non-test code arms failpoints (faultinject.Set or faultinject.Reset):"
	echo "$armers"
	exit 1
fi

# Every stage with a Make target runs through it, so each command is
# spelled out once, in the Makefile: gofmt, vet and the full-speed race
# passes (lint), build, the shuffled tests, the -short -race sweep, the
# bench module, the coverage floors, and the fuzz and mutate smokes.
for stage in lint build test race bench-test cover fuzz-smoke mutate-smoke; do
	echo "== make $stage =="
	make "$stage"
done

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

# Daemon smoke test: build cftcgd, bring it up on an ephemeral port, poll
# the health and metrics planes, submit one campaign, verify a non-empty
# status snapshot, drain it with SIGTERM, and check that the journal holds
# the campaign's job file in its final state.
echo "== cftcgd smoke =="
tmp=$(mktemp -d)
trap 'kill "$daemon_pid" 2>/dev/null || true; rm -rf "$tmp"' EXIT
go build -o "$tmp/cftcgd" ./cmd/cftcgd

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
grep -q '"state":"done"' "$tmp/journal/job-1.json" || { echo "journal holds no finished job-1.json"; ls -l "$tmp/journal"; exit 1; }

echo "OK"
