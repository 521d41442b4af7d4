package harness

import (
	"strings"
	"testing"
	"time"

	"cftcg/internal/benchmodels"
	"cftcg/internal/campaign"
	"cftcg/internal/codegen"
	"cftcg/internal/core"
	"cftcg/internal/coverage"
	"cftcg/internal/fuzz"
	"cftcg/internal/model"
	"cftcg/internal/mutate"
)

func quickConfig() Config {
	cfg := DefaultConfig()
	cfg.Budget = 250 * time.Millisecond
	cfg.Repetitions = 1
	cfg.SLDVDepth = 3
	return cfg
}

func TestRunModelAllTools(t *testing.T) {
	e, err := benchmodels.Get("SolarPV")
	if err != nil {
		t.Fatal(err)
	}
	mr, err := RunModel(e, []Tool{ToolSLDV, ToolSimCoTest, ToolCFTCG, ToolFuzzOnly}, quickConfig())
	if err != nil {
		t.Fatalf("RunModel: %v", err)
	}
	for _, tool := range []Tool{ToolSLDV, ToolSimCoTest, ToolCFTCG, ToolFuzzOnly} {
		tr, ok := mr.Results[tool]
		if !ok {
			t.Fatalf("missing result for %s", tool)
		}
		if tr.Decision < 0 || tr.Decision > 100 {
			t.Errorf("%s: decision out of range: %v", tool, tr.Decision)
		}
		if tr.Decision == 0 {
			t.Errorf("%s: found no coverage at all", tool)
		}
	}
	cftcg := mr.Results[ToolCFTCG]
	if cftcg.Decision < 50 {
		t.Errorf("CFTCG should reach most of SolarPV quickly: %.1f%%", cftcg.Decision)
	}
}

func TestFormatters(t *testing.T) {
	e, err := benchmodels.Get("SolarPV")
	if err != nil {
		t.Fatal(err)
	}
	cfg := quickConfig()
	cfg.Budget = 100 * time.Millisecond
	mr, err := RunModel(e, []Tool{ToolSLDV, ToolSimCoTest, ToolCFTCG, ToolFuzzOnly}, cfg)
	if err != nil {
		t.Fatalf("RunModel: %v", err)
	}
	results := []ModelResult{mr}

	t2 := FormatTable2(results)
	if !strings.Contains(t2, "SolarPV") || !strings.Contains(t2, "#Branch") {
		t.Errorf("Table 2 malformed:\n%s", t2)
	}
	t3 := FormatTable3(results)
	if !strings.Contains(t3, "CFTCG") || !strings.Contains(t3, "SimCoTest") {
		t.Errorf("Table 3 malformed:\n%s", t3)
	}
	f7 := FormatFigure7(results, cfg.Budget, 8)
	if !strings.Contains(f7, "SolarPV") {
		t.Errorf("Figure 7 malformed:\n%s", f7)
	}
	f8 := FormatComparison(results, []Tool{ToolCFTCG, ToolFuzzOnly})
	if !strings.Contains(f8, "FuzzOnly") {
		t.Errorf("Figure 8 malformed:\n%s", f8)
	}
}

// TestTable2RunsNoTool: with no tools, RunModel fills in only the compiled
// model's statistics, which Table 2 prints.
func TestTable2RunsNoTool(t *testing.T) {
	e, err := benchmodels.Get("SolarPV")
	if err != nil {
		t.Fatal(err)
	}
	mr, err := RunModel(e, nil, quickConfig())
	if err != nil {
		t.Fatalf("RunModel: %v", err)
	}
	if len(mr.Results) != 0 {
		t.Errorf("RunModel ran tools: %v", mr.Results)
	}
	got := [...]int{mr.Branches, mr.Blocks, mr.TupleBytes, mr.Mutants, mr.Instrs, mr.DeadStores}
	if want := [...]int{65, 34, 9, 320, 335, 6}; got != want {
		t.Errorf("SolarPV branches, blocks, tuple bytes, mutants, instructions, dead stores = %v, want %v", got, want)
	}
	row := "SolarPV   Solar PV panel output control              65       55       34      131     9B      320     335       6"
	if t2 := FormatTable2([]ModelResult{mr}); !strings.Contains(t2, row) {
		t.Errorf("Table 2 lacks the SolarPV row %q:\n%s", row, t2)
	}
}

func TestMeasureSpeedRatio(t *testing.T) {
	e, err := benchmodels.Get("SolarPV")
	if err != nil {
		t.Fatal(err)
	}
	c, err := codegen.Compile(e.Build())
	if err != nil {
		t.Fatal(err)
	}
	sp, err := MeasureSpeed(c, 100*time.Millisecond, 1)
	if err != nil {
		t.Fatalf("MeasureSpeed: %v", err)
	}
	if sp.VMStepsPerSec <= 0 || sp.SimStepsPerSec <= 0 {
		t.Fatalf("rates must be positive: %+v", sp)
	}
	// The compiled path must beat the engine by a wide margin — the §4
	// speed claim. We require at least 5x here (typically it is much more).
	if sp.Ratio() < 5 {
		t.Errorf("compiled/simulated ratio too small: %v", sp)
	}
	t.Log(sp.String())
}

func TestHybridTool(t *testing.T) {
	e, err := benchmodels.Get("SolarPV")
	if err != nil {
		t.Fatal(err)
	}
	cfg := quickConfig()
	mr, err := RunModel(e, []Tool{ToolHybrid}, cfg)
	if err != nil {
		t.Fatalf("RunModel hybrid: %v", err)
	}
	tr := mr.Results[ToolHybrid]
	if tr.Decision <= 0 {
		t.Error("hybrid found no coverage")
	}
	if tr.Execs == 0 {
		t.Error("hybrid ran nothing")
	}
}

func TestSampleTimelineStepFunction(t *testing.T) {
	tl := []coverage.TimePoint{
		{Elapsed: 10 * time.Millisecond, Decision: 20},
		{Elapsed: 50 * time.Millisecond, Decision: 60},
	}
	samples := SampleTimeline(tl, 100*time.Millisecond, 4)
	want := []float64{20, 60, 60, 60}
	for i := range want {
		if samples[i] != want[i] {
			t.Errorf("sample %d: want %v got %v (all %v)", i, want[i], samples[i], samples)
		}
	}
}

// noInportModel is Constant → UnitDelay → Switch → Outport: a model whose
// input tuple is empty, so every case drives zero steps.
func noInportModel() *model.Model {
	b := model.NewBuilder("NoIn")
	d := b.UnitDelay(b.Const(1), 0)
	b.Outport("y", model.Float64, b.SwitchGE(d, 0.5, b.Const(10), b.Const(20)))
	return b.Model()
}

// TestModelWithoutInports: no tool divides by the empty tuple. SLDV and
// SimCoTest run, the fuzz-based tools and a campaign refuse the model with
// an error that names it, and the suite replays and grinds mutants.
func TestModelWithoutInports(t *testing.T) {
	m := noInportModel()
	c, err := codegen.Compile(m)
	if err != nil {
		t.Fatal(err)
	}
	cfg := quickConfig()
	cfg.Budget = 50 * time.Millisecond
	var suite [][]byte
	for _, tool := range []Tool{ToolSLDV, ToolSimCoTest} {
		tr, err := RunTool(c, tool, cfg, 1)
		if err != nil {
			t.Fatalf("%s: %v", tool, err)
		}
		suite = append(suite, tr.Suite...)
	}
	if len(suite) == 0 {
		t.Fatal("SLDV and SimCoTest emitted no case")
	}
	for _, tool := range []Tool{ToolCFTCG, ToolFuzzOnly} {
		if _, err := RunTool(c, tool, cfg, 1); err == nil || !strings.Contains(err.Error(), "model NoIn has no inports") {
			t.Errorf("%s: err = %v, want the model named as having no inports", tool, err)
		}
	}
	if _, err := campaign.New(c, campaign.Config{Shards: 2, Fuzz: fuzz.Options{MaxExecs: 100}}); err == nil ||
		!strings.Contains(err.Error(), "no inports") {
		t.Errorf("campaign.New: err = %v, want the no-inport error", err)
	}

	sys, err := core.FromModel(m)
	if err != nil {
		t.Fatal(err)
	}
	if rep, _ := sys.Replay(suite); rep.DecisionTotal == 0 {
		t.Errorf("replay reports no decisions: %+v", rep)
	}
	muts := mutate.Generate(c, m, mutate.Config{Limit: 20, Seed: 1})
	if len(muts) == 0 {
		t.Fatal("no mutants generated")
	}
	if rep := mutate.Run(c, muts, suite, mutate.RunConfig{}); rep.Summary.Total != len(muts) {
		t.Errorf("mutate.Run scored %d of %d mutants", rep.Summary.Total, len(muts))
	}
}
