package core

import (
	"encoding/binary"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"cftcg/internal/benchmodels"
	"cftcg/internal/fuzz"
	"cftcg/internal/model"
	"cftcg/internal/vm"
)

func solarpv(t *testing.T) *System {
	t.Helper()
	e, err := benchmodels.Get("SolarPV")
	if err != nil {
		t.Fatal(err)
	}
	sys, err := FromModel(e.Build())
	if err != nil {
		t.Fatal(err)
	}
	return sys
}

// TestResolvePrefersModelFile: a model file named like a built-in benchmark
// is the file's model, so every command means the same model by one name;
// other names fall back to the benchmark, and a name that is neither fails.
func TestResolvePrefersModelFile(t *testing.T) {
	e, err := benchmodels.Get("CPUTask")
	if err != nil {
		t.Fatal(err)
	}
	cpu, err := FromModel(e.Build())
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := cpu.Save(filepath.Join(dir, "SolarPV")); err != nil {
		t.Fatal(err)
	}
	t.Chdir(dir)
	sys, err := Resolve("SolarPV")
	if err != nil {
		t.Fatal(err)
	}
	if sys.Model.Name != cpu.Model.Name || sys.BranchCount() != cpu.BranchCount() {
		t.Errorf(`Resolve("SolarPV") with a file of that name = %s (%d branches), want the file's %s (%d)`,
			sys.Model.Name, sys.BranchCount(), cpu.Model.Name, cpu.BranchCount())
	}
	if sys, err := Resolve("AFC"); err != nil || sys.Model.Name != "AFC" {
		t.Errorf(`Resolve("AFC") = %v, %v; want the built-in benchmark`, sys, err)
	}
	if _, err := Resolve("NoSuchModel"); err == nil || !strings.Contains(err.Error(), "SolarPV") {
		t.Errorf(`Resolve("NoSuchModel") error = %v; want one listing the benchmarks`, err)
	}
}

func TestSaveLoadRoundTrip(t *testing.T) {
	sys := solarpv(t)
	path := filepath.Join(t.TempDir(), "solarpv.slx")
	if err := sys.Save(path); err != nil {
		t.Fatalf("Save: %v", err)
	}
	back, err := Load(path)
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	if back.BranchCount() != sys.BranchCount() {
		t.Errorf("branch count changed across save/load: %d -> %d",
			sys.BranchCount(), back.BranchCount())
	}
	if back.Layout().TupleSize != sys.Layout().TupleSize {
		t.Error("layout changed across save/load")
	}
}

func TestLoadRejectsMissingFile(t *testing.T) {
	if _, err := Load("/nonexistent/path.slx"); err == nil {
		t.Error("expected error")
	}
}

// TestReplayMatchesCampaignCoverage: replaying the suite a fuzzing campaign
// emitted must reproduce at least the campaign's decision coverage — the
// emitted cases are exactly the inputs that triggered new coverage.
func TestReplayMatchesCampaignCoverage(t *testing.T) {
	sys := solarpv(t)
	res, err := sys.Fuzz(fuzz.Options{Seed: 11, MaxExecs: 20000})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Suite.Cases) == 0 {
		t.Fatal("campaign emitted no cases")
	}
	var raw [][]byte
	for _, c := range res.Suite.Cases {
		raw = append(raw, c.Data)
	}
	rep, _ := sys.Replay(raw)
	if rep.DecisionCovered < res.Report.DecisionCovered {
		t.Errorf("replay covers %d decision outcomes, campaign had %d",
			rep.DecisionCovered, res.Report.DecisionCovered)
	}
	if rep.CondCovered < res.Report.CondCovered {
		t.Errorf("replay condition coverage dropped: %d < %d",
			rep.CondCovered, res.Report.CondCovered)
	}
}

func TestWriteSuite(t *testing.T) {
	sys := solarpv(t)
	res, err := sys.Fuzz(fuzz.Options{Seed: 5, MaxExecs: 3000})
	if err != nil {
		t.Fatal(err)
	}
	dir := filepath.Join(t.TempDir(), "suite")
	if err := sys.WriteSuite(dir, res.Suite); err != nil {
		t.Fatalf("WriteSuite: %v", err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	bins := 0
	haveCSV := false
	for _, e := range entries {
		if strings.HasSuffix(e.Name(), ".bin") {
			bins++
		}
		if e.Name() == "suite.csv" {
			haveCSV = true
		}
	}
	if bins != len(res.Suite.Cases) || !haveCSV {
		t.Errorf("suite dir contents: %d bins (want %d), csv=%v", bins, len(res.Suite.Cases), haveCSV)
	}
}

func TestGenerateFuzzCodeShape(t *testing.T) {
	sys := solarpv(t)
	code := sys.GenerateFuzzCode()
	if !strings.Contains(code.Driver, "FuzzTestOneInput") {
		t.Error("driver missing entry point")
	}
	if !strings.Contains(code.Driver, "int dataLen = 9") {
		t.Error("driver missing Figure 3's dataLen = 9")
	}
	if !strings.Contains(code.Step, "CoverageStatistics(") {
		t.Error("step function missing instrumentation")
	}
	if !strings.Contains(code.Init, "SolarPV_init") {
		t.Error("init function missing")
	}
}

func TestTraceVCD(t *testing.T) {
	sys := solarpv(t)
	data := make([]byte, 3*sys.Layout().TupleSize)
	data[0] = 1 // Enable on first step
	var sb strings.Builder
	if err := sys.Trace(&sb, data); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		"$scope module SolarPV $end",
		"in_Enable", "in_Power", "out_Ret",
		"$enddefinitions $end", "#0", "#3",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("VCD missing %q", want)
		}
	}
}

// TestTraceStopsAtHang: a case whose second step runs a nested 1000x1000
// while past vm.DefaultFuel traces the completed first step, then returns
// the hang naming its step instead of sampling the stale outputs of the
// hung step and stepping on from its partial state.
func TestTraceStopsAtHang(t *testing.T) {
	b := model.NewBuilder("Spin")
	x := b.Inport("x", model.Int32)
	ml := b.Matlab("spin", `
input  int32 x;
output int32 y = 0;
var    int32 i = 0;
var    int32 j = 0;
while (i < x) {
    j = 0;
    while (j < 1000) {
        j = j + 1;
        y = y + 1;
    }
    i = i + 1;
}
`, x)
	b.Outport("y", model.Int32, ml.Out(0))
	sys, err := FromModel(b.Model())
	if err != nil {
		t.Fatal(err)
	}
	data := make([]byte, 4*sys.Layout().TupleSize) // x = 0, 1000, 0, 0
	binary.LittleEndian.PutUint32(data[sys.Layout().TupleSize:], 1000)
	var sb strings.Builder
	err = sys.Trace(&sb, data)
	var hang *vm.HangError
	if !errors.As(err, &hang) || !strings.HasPrefix(err.Error(), "step 1: ") {
		t.Fatalf("Trace of a case that hangs at step 1: error %v, want the hang naming step 1", err)
	}
	// Step 0's sample (#0), then the closing timestamp (#1), and nothing after.
	out := sb.String()
	if !strings.Contains(out, "#0\n") || !strings.HasSuffix(out, "#1\n") || strings.Contains(out, "#2\n") {
		t.Errorf("trace should hold step 0 alone, got:\n%s", out)
	}
}

func TestReadSeedDir(t *testing.T) {
	sys := solarpv(t)
	res, err := sys.Fuzz(fuzz.Options{Seed: 6, MaxExecs: 3000})
	if err != nil {
		t.Fatal(err)
	}
	dir := filepath.Join(t.TempDir(), "suite")
	if err := sys.WriteSuite(dir, res.Suite); err != nil {
		t.Fatal(err)
	}
	seeds, err := ReadSeedDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(seeds) != len(res.Suite.Cases) {
		t.Fatalf("seeds: %d, want %d", len(seeds), len(res.Suite.Cases))
	}
	// Resuming from the seeds must reproduce the campaign's coverage with
	// almost no additional work.
	resumed, err := sys.Fuzz(fuzz.Options{Seed: 7, MaxExecs: int64(len(seeds)) + 10, SeedInputs: seeds})
	if err != nil {
		t.Fatal(err)
	}
	if resumed.Report.DecisionCovered < res.Report.DecisionCovered {
		t.Errorf("resume lost coverage: %d < %d",
			resumed.Report.DecisionCovered, res.Report.DecisionCovered)
	}
	if _, err := ReadSeedDir(filepath.Join(dir, "missing")); err == nil {
		t.Error("missing dir should error")
	}
}

func TestConvertCase(t *testing.T) {
	sys := solarpv(t)
	data := make([]byte, 2*sys.Layout().TupleSize)
	var sb strings.Builder
	if err := sys.ConvertCase(&sb, data); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "step,Enable,Power,PanelID") {
		t.Errorf("CSV header: %s", sb.String())
	}
}
