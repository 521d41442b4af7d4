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
	"reflect"
	"strings"
	"testing"

	"cftcg/internal/benchmodels"
	"cftcg/internal/core"
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
