package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"os"
	"os/exec"
	"reflect"
	"strings"
	"testing"

	"cftcg/internal/testcase"
)

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
