package fuzz

import (
	"encoding/binary"
	"math"
	"strings"
	"testing"
	"time"

	"cftcg/internal/codegen"
	"cftcg/internal/model"
)

// isqrtModel compiles a genuine data-dependent loop (integer square root by
// repeated subtraction); under a tiny fuel budget large inputs hang.
func isqrtModel(t *testing.T) *codegen.Compiled {
	t.Helper()
	b := model.NewBuilder("Isqrt")
	x := b.Inport("x", model.Int32)
	ml := b.Matlab("isqrt", `
input  int32 x;
output int32 root = 0;
var    int32 n = 0;
var    int32 odd = 1;
n = x;
while (n >= odd) {
    n = n - odd;
    odd = odd + 2;
    root = root + 1;
}
`, x)
	b.Outport("root", model.Int32, ml.Out(0))
	c, err := codegen.Compile(b.Model())
	if err != nil {
		t.Fatalf("Compile: %v", err)
	}
	return c
}

func int32Tuple(v int32) []byte {
	b := make([]byte, 4)
	binary.LittleEndian.PutUint32(b, uint32(v))
	return b
}

func TestHangTriagedAndDeduplicated(t *testing.T) {
	c := isqrtModel(t)
	// ~sqrt(1e9) = 31623 loop iterations vastly exceed a 500-instruction fuel.
	e := MustEngine(c, Options{Seed: 1, MaxExecs: 1, Fuel: 500})
	e.RunInput(int32Tuple(1_000_000_000))
	e.RunInput(int32Tuple(2_000_000_000)) // same loop, different input

	if len(e.findings) != 1 {
		t.Fatalf("want 1 deduplicated finding, got %d: %v", len(e.findings), e.findings)
	}
	f := e.findings[0]
	if f.Kind != FindingHang {
		t.Errorf("kind = %v, want hang", f.Kind)
	}
	if f.Count != 2 {
		t.Errorf("count = %d, want 2 (second input deduplicated)", f.Count)
	}
	if f.Site == "" {
		t.Error("hang finding must carry a site")
	}
	if f.Step != 0 {
		t.Errorf("step = %d, want 0 (first model iteration)", f.Step)
	}
	if string(f.Input) != string(int32Tuple(1_000_000_000)) {
		t.Error("finding must keep the first reproducing input")
	}
}

func TestHangInputStillYieldsPartialCoverage(t *testing.T) {
	c := isqrtModel(t)
	hung := MustEngine(c, Options{Seed: 1, MaxExecs: 1, Fuel: 500})
	_, _, newAny := hung.RunInput(int32Tuple(1_000_000_000))
	if newAny == 0 {
		t.Error("aborted step must still contribute the coverage it reached")
	}
}

func TestCampaignSurvivesHangsWithinBudget(t *testing.T) {
	// The acceptance scenario: a model whose big inputs all hang must still
	// complete a campaign, recording Hang findings rather than wedging.
	c := isqrtModel(t)
	e := MustEngine(c, Options{Seed: 7, Budget: 300 * time.Millisecond, Fuel: 2000})
	start := time.Now()
	res := e.Run()
	if el := time.Since(start); el > 5*time.Second {
		t.Fatalf("campaign overshot its budget: %s", el)
	}
	if res.Execs == 0 {
		t.Fatal("campaign made no progress")
	}
	hangs := 0
	for _, f := range res.Findings {
		if f.Kind == FindingHang {
			hangs += f.Count
		}
	}
	if hangs == 0 {
		t.Errorf("expected hang findings on a 2000-fuel isqrt, got %v", res.Findings)
	}
	var byKind [numFindingKinds]int
	for _, f := range res.Findings {
		byKind[f.Kind]++
	}
	if ls := e.LiveStats(); ls.Findings != len(res.Findings) || ls.FindingsByKind != byKind {
		t.Errorf("live stats: %d findings %v, want %d %v", ls.Findings, ls.FindingsByKind, len(res.Findings), byKind)
	}
}

func TestPanicRecoveredAsCrashFinding(t *testing.T) {
	c := switchOnly(t)
	// Pair the program with a plan that has no decisions: the step's first
	// probe then indexes past the recorder's tables and panics with
	// index-out-of-range, standing in for any execution defect.
	short := *c.Plan
	short.Decisions = nil
	broken := &codegen.Compiled{Design: c.Design, Plan: &short, Index: c.Index, Prog: c.Prog}
	e := MustEngine(broken, Options{Seed: 1, MaxExecs: 1})
	metric, _, _ := e.RunInput([]byte{1})
	_ = metric
	if len(e.findings) != 1 || e.findings[0].Kind != FindingCrash {
		t.Fatalf("want 1 crash finding, got %v", e.findings)
	}
	if e.execs != 1 {
		t.Errorf("execs = %d, want 1 (crashing input still counted)", e.execs)
	}
	// The engine remains usable after the recovered panic on other inputs?
	// The corruption is permanent here, so just verify dedup instead.
	e.RunInput([]byte{1})
	if len(e.findings) != 1 || e.findings[0].Count != 2 {
		t.Errorf("crash dedup failed: %v", e.findings)
	}
}

func TestNumericAnomalyOnOutport(t *testing.T) {
	b := model.NewBuilder("Square")
	x := b.Inport("x", model.Float64)
	b.Outport("y", model.Float64, b.Mul(x, x))
	c, err := codegen.Compile(b.Model())
	if err != nil {
		t.Fatal(err)
	}
	e := MustEngine(c, Options{Seed: 1, MaxExecs: 1})

	tuple := func(v float64) []byte {
		buf := make([]byte, 8)
		binary.LittleEndian.PutUint64(buf, math.Float64bits(v))
		return buf
	}
	e.RunInput(tuple(3)) // finite: no finding
	if len(e.findings) != 0 {
		t.Fatalf("finite output flagged: %v", e.findings)
	}
	e.RunInput(tuple(1e200)) // 1e400 overflows to +Inf
	e.RunInput(tuple(math.NaN()))
	if len(e.findings) != 1 {
		t.Fatalf("want 1 finding for outport y (Inf and NaN share the site), got %v", e.findings)
	}
	f := e.findings[0]
	if f.Kind != FindingNumericAnomaly || f.Site != "out:y" || f.Count != 2 {
		t.Errorf("finding = %+v", f)
	}
}

func TestFindingCapCountsDrops(t *testing.T) {
	e := &Engine{findingIdx: map[string]int{}}
	for i := 0; i < maxFindings+5; i++ {
		e.recordFinding(FindingCrash, nil, 0, string(rune('a'+i)), "x")
	}
	if len(e.findings) != maxFindings {
		t.Errorf("stored %d findings, want cap %d", len(e.findings), maxFindings)
	}
	if e.droppedFindings != 5 {
		t.Errorf("dropped = %d, want 5", e.droppedFindings)
	}
}

func TestOptionsValidate(t *testing.T) {
	c := switchOnly(t)
	bad := []Options{
		{MaxTuples: -1, MaxExecs: 1},
		{MaxExecs: -1},
		{Budget: -time.Second, MaxExecs: 1},
		{Fuel: -1, MaxExecs: 1},
		{CheckpointEvery: -time.Second, MaxExecs: 1},
		{}, // no budget at all
	}
	for i, o := range bad {
		if _, err := NewEngine(c, o); err == nil {
			t.Errorf("case %d (%+v): want error", i, o)
		}
	}
	if _, err := NewEngine(c, Options{ResumeFrom: "nonexistent.ckpt"}); err != nil {
		t.Errorf("ResumeFrom alone is a valid budget source: %v", err)
	}
}

// TestNewEngineRefusesOverflowingMaxTuples: both mutators cap an input at
// MaxTuples*TupleSize bytes, so a MaxTuples whose product with the tuple
// size overflows is refused by name instead of panicking the first mutation;
// the largest MaxTuples that fits still runs.
func TestNewEngineRefusesOverflowingMaxTuples(t *testing.T) {
	c := benchCompiled(t, "CPUTask")
	tuple := c.Prog.Layout().TupleSize
	if tuple != 3 {
		t.Fatalf("CPUTask tuple is %d bytes, want 3", tuple)
	}
	for _, mode := range []Mode{ModeModelOriented, ModeFuzzOnly} {
		_, err := NewEngine(c, Options{Seed: 1, Mode: mode, MaxExecs: 200, MaxTuples: 4611686018427387905})
		if err == nil || !strings.Contains(err.Error(), "model CPUTask") {
			t.Errorf("%s: overflowing MaxTuples: got %v, want an error naming the model", mode, err)
		}
		e, err := NewEngine(c, Options{Seed: 1, Mode: mode, MaxExecs: 200, MaxTuples: math.MaxInt / tuple})
		if err != nil {
			t.Fatalf("%s: largest MaxTuples that fits: %v", mode, err)
		}
		if res := e.Run(); res.Execs != 200 {
			t.Errorf("%s: ran %d execs, want 200", mode, res.Execs)
		}
	}
}
