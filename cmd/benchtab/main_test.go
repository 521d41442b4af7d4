package main

import (
	"bytes"
	"errors"
	"os"
	"os/exec"
	"strings"
	"testing"
)

// runMainEnv makes the test binary act as the benchtab command, so the tests
// below drive main() through its real argument parsing and exit codes.
const runMainEnv = "BENCHTAB_TEST_RUN_MAIN"

func TestMain(m *testing.M) {
	if os.Getenv(runMainEnv) == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// benchtab runs the command with args and returns its stdout, stderr and
// exit code.
func benchtab(t *testing.T, args ...string) (stdout, stderr string, code int) {
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

// TestAblationPrintsVariants: the ablation runs at a fixed execution budget,
// so its one SolarPV row is the same on every machine.
func TestAblationPrintsVariants(t *testing.T) {
	stdout, stderr, code := benchtab(t, "-models", "SolarPV", "-reps", "1", "ablation")
	if code != 0 {
		t.Fatalf("exit %d, stderr %q", code, stderr)
	}
	want := "Model     |     CFTCG (DC/CC/MCDC) | NoIterDiff (DC/CC/MCDC) |   NoHints (DC/CC/MCDC)\n" +
		"SolarPV   |  100.0%  100.0%  100.0% |  100.0%  100.0%  100.0% |  100.0%  100.0%  100.0%\n"
	if stdout != want {
		t.Errorf("ablation printed\n%s\nwant\n%s", stdout, want)
	}
}

// TestFig8PrintsComparison: Figure 8 runs under a wall budget, so only the
// table's shape is fixed.
func TestFig8PrintsComparison(t *testing.T) {
	stdout, stderr, code := benchtab(t, "-models", "SolarPV", "-reps", "1", "-budget", "200ms", "fig8")
	if code != 0 {
		t.Fatalf("exit %d, stderr %q", code, stderr)
	}
	lines := strings.Split(strings.TrimSuffix(stdout, "\n"), "\n")
	if len(lines) != 2 || lines[0] != "Model     |     CFTCG (DC/CC/MCDC) |  FuzzOnly (DC/CC/MCDC)" {
		t.Fatalf("fig8 printed\n%s\nwant the CFTCG/FuzzOnly header and one row", stdout)
	}
	if row := lines[1]; !strings.HasPrefix(row, "SolarPV   | ") || strings.Count(row, "%") != 6 {
		t.Errorf("fig8 row %q: want SolarPV's two coverage triples", row)
	}
}

func TestUnknownCommandExits2(t *testing.T) {
	_, stderr, code := benchtab(t, "table9")
	if code != 2 || !strings.Contains(stderr, `unknown command "table9"`) {
		t.Errorf("exit %d, stderr %q; want exit 2 and the unknown command", code, stderr)
	}
}
