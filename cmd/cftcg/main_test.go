package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"maps"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"cftcg/internal/benchmodels"
	"cftcg/internal/core"
	"cftcg/internal/coverage"
	"cftcg/internal/faultinject"
	"cftcg/internal/fuzz"
	"cftcg/internal/model"
	"cftcg/internal/mutate"
	"cftcg/internal/testcase"
)

var update = flag.Bool("update", false, "rewrite testdata/feedback.json from this tree's outputs")

// runMainEnv makes the test binary act as the cftcg command, so the tests
// below drive main() through its real argument parsing and exit codes.
const runMainEnv = "CFTCG_TEST_RUN_MAIN"

func TestMain(m *testing.M) {
	if os.Getenv(runMainEnv) == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// cftcg runs the command with args and returns its stdout, stderr and exit
// code.
func cftcg(t *testing.T, args ...string) (stdout, stderr string, code int) {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), runMainEnv+"=1")
	var out, errOut bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &errOut
	err := cmd.Run()
	var exit *exec.ExitError
	switch {
	case errors.As(err, &exit):
		code = exit.ExitCode()
	case err != nil:
		t.Fatal(err)
	}
	return out.String(), errOut.String(), code
}

func TestMissingModelPrintsUsage(t *testing.T) {
	for _, sub := range []string{"fuzz", "analyze", "mutate", "cov"} {
		_, stderr, code := cftcg(t, sub)
		if code != 2 || !strings.HasPrefix(stderr, "usage: cftcg ") {
			t.Errorf("cftcg %s: exit %d, stderr %q; want exit 2 and the usage line", sub, code, stderr)
		}
	}
}

// TestFuzzModelWithoutInports: a model with an empty input tuple is an
// error the command reports, not a panic.
func TestFuzzModelWithoutInports(t *testing.T) {
	b := model.NewBuilder("NoIn")
	b.Outport("y", model.Float64, b.SwitchGE(b.UnitDelay(b.Const(1), 0), 0.5, b.Const(10), b.Const(20)))
	sys, err := core.FromModel(b.Model())
	if err != nil {
		t.Fatal(err)
	}
	path := t.TempDir() + "/noin.slx"
	if err := sys.Save(path); err != nil {
		t.Fatal(err)
	}
	for _, args := range [][]string{{"-execs", "100"}, {"-execs", "100", "-mode", "fuzz-only"}, {"-execs", "100", "-workers", "2"}} {
		_, stderr, code := cftcg(t, append([]string{"fuzz", path}, args...)...)
		if code != 1 || !strings.Contains(stderr, "model NoIn has no inports") || strings.Contains(stderr, "panic") {
			t.Errorf("cftcg fuzz %v: exit %d, stderr %q; want exit 1 naming the model", args, code, stderr)
		}
	}
}

// TestFuzzRefusesOverflowingMaxTuples: a -max-tuples whose product with the
// model's tuple size overflows is an error naming the model, not a panic of
// the first mutation, in every mode and with several workers.
func TestFuzzRefusesOverflowingMaxTuples(t *testing.T) {
	for _, args := range [][]string{{}, {"-mode", "fuzz-only"}, {"-workers", "2"}} {
		args = append([]string{"fuzz", "CPUTask", "-max-tuples", "4611686018427387905", "-execs", "2000"}, args...)
		_, stderr, code := cftcg(t, args...)
		if code != 1 || !strings.Contains(stderr, "model CPUTask: MaxTuples 4611686018427387905") || strings.Contains(stderr, "panic") {
			t.Errorf("cftcg %v: exit %d, stderr %q; want exit 1 naming the model", args, code, stderr)
		}
	}
}

// TestFuzzRefusesTooManyWorkers: -workers above the campaign's shard limit
// is refused, naming the limit, before any engine is built.
func TestFuzzRefusesTooManyWorkers(t *testing.T) {
	_, stderr, code := cftcg(t, "fuzz", "SolarPV", "-workers", "65", "-execs", "1")
	if code != 1 || !strings.Contains(stderr, "shards 65 outside [0, 64]") {
		t.Errorf("cftcg fuzz -workers 65: exit %d, stderr %q; want exit 1 naming the limit", code, stderr)
	}
}

// TestFuzzWorkersNamesFailedShard: a shard of a `fuzz -workers` campaign
// whose engine panics is named on stderr with its panic, and the surviving
// shards' merged result stands: it is not an interrupted campaign.
func TestFuzzWorkersNamesFailedShard(t *testing.T) {
	defer faultinject.Reset()
	faultinject.Set("fuzz.loop:shard1", faultinject.Failpoint{
		Kind: faultinject.KindPanic, Msg: "shard 1 dies",
	})
	sys, err := core.Resolve("SolarPV")
	if err != nil {
		t.Fatal(err)
	}
	var stderr bytes.Buffer
	res, err := fuzzWorkers(sys.Compiled, 3, fuzz.Options{Seed: 1, MaxExecs: 500}, &stderr)
	if err != nil {
		t.Fatal(err)
	}
	want := "cftcg: shard 1 failed: panic: faultinject: failpoint fuzz.loop:shard1: shard 1 dies\n"
	if stderr.String() != want {
		t.Errorf("stderr %q, want %q", stderr.String(), want)
	}
	if res.Stopped || res.Execs != 2*500 || len(res.Suite.Cases) == 0 {
		t.Errorf("want the two surviving shards' result, not stopped: stopped %v, execs %d, %d cases",
			res.Stopped, res.Execs, len(res.Suite.Cases))
	}
}

// TestFuzzSuiteMinimizeTrim drives the suite path: fuzz -o writes a suite,
// -minimize -trim writes one of no more cases and bytes, and cov -json
// replays both to the same decision and condition coverage. (MCDC may
// differ: a minimized suite keeps the branch-covering cases only.)
func TestFuzzSuiteMinimizeTrim(t *testing.T) {
	dir := t.TempDir()
	suite := func(name string, extra ...string) (cases int, bytes int, rep coverage.Report) {
		t.Helper()
		out := filepath.Join(dir, name)
		args := append([]string{"fuzz", "SolarPV", "-seed", "1", "-execs", "3000", "-budget", "2m", "-o", out}, extra...)
		if _, stderr, code := cftcg(t, args...); code != 0 {
			t.Fatalf("cftcg %v: exit %d: %s", args, code, stderr)
		}
		files, err := filepath.Glob(filepath.Join(out, "case*.bin"))
		if err != nil || len(files) == 0 {
			t.Fatalf("cftcg %v wrote no cases (%v)", args, err)
		}
		for _, f := range files {
			data, err := os.ReadFile(f)
			if err != nil {
				t.Fatal(err)
			}
			bytes += len(data)
		}
		stdout, stderr, code := cftcg(t, append([]string{"cov", "SolarPV", "-json"}, files...)...)
		if code != 0 {
			t.Fatalf("cftcg cov %s: exit %d: %s", name, code, stderr)
		}
		if err := json.Unmarshal([]byte(stdout), &rep); err != nil {
			t.Fatalf("cftcg cov %s: %v", name, err)
		}
		return len(files), bytes, rep
	}
	nA, bytesA, repA := suite("a")
	nB, bytesB, repB := suite("b", "-minimize", "-trim")
	if repA.DecisionCovered != repB.DecisionCovered || repA.CondCovered != repB.CondCovered {
		t.Errorf("minimized, trimmed suite covers decision %d, condition %d; the full suite %d, %d",
			repB.DecisionCovered, repB.CondCovered, repA.DecisionCovered, repA.CondCovered)
	}
	if nB > nA || bytesB > bytesA {
		t.Errorf("minimized, trimmed suite holds %d cases, %d bytes; the full suite %d, %d", nB, bytesB, nA, bytesA)
	}
}

// TestDirectedFlagRetired: the retired -directed and -analyze flags of
// cftcg fuzz are unknown flags.
func TestDirectedFlagRetired(t *testing.T) {
	for _, flag := range []string{"-directed", "-analyze"} {
		_, stderr, code := cftcg(t, "fuzz", "SolarPV", flag)
		if code != 2 || !strings.Contains(stderr, "flag provided but not defined: "+flag) {
			t.Errorf("%s: exit %d, stderr %q; want exit 2 for an unknown flag", flag, code, stderr)
		}
	}
}

// TestMutateFeedbackKeepsKills: a refuzz round only adds cases to the suite,
// and a kill keeps its first divergent case, so -feedback never lowers the
// distinct kill count.
func TestMutateFeedbackKeepsKills(t *testing.T) {
	killed := func(extra ...string) int {
		args := append([]string{"mutate", "SolarPV", "-budget", "30", "-execs", "1500",
			"-fuzz-budget", "60s", "-json"}, extra...)
		stdout, stderr, code := cftcg(t, args...)
		if code != 0 {
			t.Fatalf("cftcg %v: exit %d: %s", args, code, stderr)
		}
		var rep struct {
			Summary struct {
				Killed int `json:"killed"`
			} `json:"summary"`
		}
		if err := json.Unmarshal([]byte(stdout), &rep); err != nil {
			t.Fatalf("cftcg %v: %v", args, err)
		}
		return rep.Summary.Killed
	}
	once, refuzzed := killed(), killed("-feedback", "1")
	t.Logf("distinct kills: %d without feedback, %d after one refuzz round", once, refuzzed)
	if refuzzed < once {
		t.Errorf("-feedback 1 lowered distinct kills from %d to %d", once, refuzzed)
	}
}

// TestAppendNewCasesDropsDuplicates: a refuzz round's cases join the suite
// in order, except those whose bytes the suite (or the round itself) already
// holds.
func TestAppendNewCasesDropsDuplicates(t *testing.T) {
	suite := [][]byte{{1}, {2, 2}}
	var round []testcase.Case
	for _, data := range [][]byte{{2, 2}, {3}, {1}, {3}, {}, {2}} {
		round = append(round, testcase.Case{Data: data})
	}
	got := appendNewCases(suite, round)
	want := [][]byte{{1}, {2, 2}, {3}, {}, {2}}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("appendNewCases = %v, want %v", got, want)
	}
}

// TestMutateWarnsWhenFuelEndsReferenceRuns: at -fuel 60 the original model
// itself times out on its suite, which the report counts and the command
// warns about on stderr; at the default fuel it does neither.
func TestMutateWarnsWhenFuelEndsReferenceRuns(t *testing.T) {
	run := func(extra ...string) (terminals int, stderr string) {
		args := append([]string{"mutate", "SolarPV", "-budget", "30", "-execs", "1500",
			"-fuzz-budget", "60s", "-json"}, extra...)
		stdout, stderr, code := cftcg(t, args...)
		if code != 0 {
			t.Fatalf("cftcg %v: exit %d: %s", args, code, stderr)
		}
		var rep struct {
			ReferenceTerminals *int `json:"referenceTerminals"`
		}
		if err := json.Unmarshal([]byte(stdout), &rep); err != nil {
			t.Fatalf("cftcg %v: %v", args, err)
		}
		if rep.ReferenceTerminals == nil {
			return 0, stderr
		}
		if *rep.ReferenceTerminals == 0 {
			t.Errorf("cftcg %v: referenceTerminals is 0 but present in the JSON", args)
		}
		return *rep.ReferenceTerminals, stderr
	}
	n, stderr := run("-fuel", "60")
	if n == 0 || !strings.Contains(stderr, "warning:") || !strings.Contains(stderr, "-fuel") {
		t.Errorf("-fuel 60: %d reference terminals, stderr %q; want a count and a warning", n, stderr)
	}
	if n, stderr := run(); n != 0 || stderr != "" {
		t.Errorf("default fuel: %d reference terminals, stderr %q; want neither", n, stderr)
	}
}

// feedbackRow is one `cftcg mutate -feedback 1` report of record: the kill
// counts plus a digest of the command's whole JSON output.
type feedbackRow struct {
	Killed       int    `json:"killed"`
	Survived     int    `json:"survived"`
	ReportSHA256 string `json:"reportSHA256"`
}

const feedbackGolden = "testdata/feedback.json"

// TestMutateFeedbackOutputsOfRecord pins `cftcg mutate <m> -json -feedback 1
// -fuzz-budget 120s` for the 8 benchmark models against
// testdata/feedback.json (rewritten by -update). The exec budget, not the
// wall clock, ends every fuzzing pass, so the output repeats byte for byte.
// -short checks SolarPV only.
func TestMutateFeedbackOutputsOfRecord(t *testing.T) {
	golden := map[string]feedbackRow{}
	if !*update {
		data, err := os.ReadFile(feedbackGolden)
		if err != nil {
			t.Fatalf("%v (generate it with -update)", err)
		}
		if err := json.Unmarshal(data, &golden); err != nil {
			t.Fatalf("%s: %v", feedbackGolden, err)
		}
	}
	names := benchmodels.Names()
	if testing.Short() && !*update {
		names = []string{"SolarPV"}
	}
	for _, name := range names {
		args := []string{"mutate", name, "-json", "-feedback", "1", "-fuzz-budget", "120s"}
		stdout, stderr, code := cftcg(t, args...)
		if code != 0 {
			t.Fatalf("cftcg %v: exit %d: %s", args, code, stderr)
		}
		var rep struct {
			Summary struct {
				Killed   int `json:"killed"`
				Survived int `json:"survived"`
			} `json:"summary"`
		}
		if err := json.Unmarshal([]byte(stdout), &rep); err != nil {
			t.Fatalf("cftcg %v: %v", args, err)
		}
		sum := sha256.Sum256([]byte(stdout))
		got := feedbackRow{Killed: rep.Summary.Killed, Survived: rep.Summary.Survived,
			ReportSHA256: hex.EncodeToString(sum[:])}
		if *update {
			golden[name] = got
		} else if want, ok := golden[name]; !ok {
			t.Errorf("%s: no row in %s; got %+v", name, feedbackGolden, got)
		} else if got != want {
			t.Errorf("%s: report moved:\n got  %+v\n want %+v", name, got, want)
		}
	}
	if *update {
		out, err := json.MarshalIndent(golden, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(feedbackGolden, append(out, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// TestInfoPrintsMutationPool: `cftcg info` prints, per operator, the pool
// `cftcg mutate -budget 0` builds, which is what Generate emits at Limit 0.
// -short checks SolarPV only.
func TestInfoPrintsMutationPool(t *testing.T) {
	wantTotal := map[string]int{
		"CPUTask": 422, "AFC": 264, "TCP": 418, "RAC": 865, "EVCS": 365, "TWC": 328, "UTPC": 425, "SolarPV": 320,
	}
	names := benchmodels.Names()
	if testing.Short() {
		names = []string{"SolarPV"}
	}
	for _, name := range names {
		stdout, stderr, code := cftcg(t, "info", name)
		if code != 0 {
			t.Fatalf("cftcg info %s: exit %d: %s", name, code, stderr)
		}
		printed, total := mutate.PoolSize{}, -1
		_, pool, ok := strings.Cut(stdout, "  mutation pool: ")
		if !ok {
			t.Fatalf("cftcg info %s: no mutation pool in\n%s", name, stdout)
		}
		lines := strings.Split(strings.TrimSpace(pool), "\n")
		if _, err := fmt.Sscanf(lines[0], "%d mutants", &total); err != nil {
			t.Fatalf("cftcg info %s: %q: %v", name, lines[0], err)
		}
		for _, line := range lines[1:] {
			var op string
			var n int
			if _, err := fmt.Sscanf(line, "%s %d", &op, &n); err != nil {
				t.Fatalf("cftcg info %s: %q: %v", name, line, err)
			}
			if n > 0 {
				printed[strings.TrimSuffix(op, ":")] = n
			}
		}

		sys, err := core.Resolve(name)
		if err != nil {
			t.Fatal(err)
		}
		emitted := mutate.PoolSize{}
		for _, mu := range mutate.Generate(sys.Compiled, sys.Model, mutate.Config{Limit: 0}) {
			emitted[mu.Operator]++
		}
		if !maps.Equal(printed, emitted) {
			t.Errorf("%s: info prints pool %v, Generate emits %v", name, printed, emitted)
		}
		if total != wantTotal[name] || emitted.Total() != wantTotal[name] {
			t.Errorf("%s: info prints %d mutants, Generate emits %d; want %d", name, total, emitted.Total(), wantTotal[name])
		}
	}
}
