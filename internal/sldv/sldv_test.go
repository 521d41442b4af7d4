package sldv

import (
	"strings"
	"testing"
	"time"

	"cftcg/internal/codegen"
	"cftcg/internal/model"
)

// shallow builds a purely combinational model that interval subdivision
// should cover completely and quickly.
func shallow(t *testing.T) *codegen.Compiled {
	t.Helper()
	b := model.NewBuilder("Shallow")
	u := b.Inport("u", model.Int32)
	v := b.Inport("v", model.Int32)
	hot := b.And(b.Rel(">", u, b.ConstT(model.Int32, 100)), b.Rel("<", v, b.ConstT(model.Int32, -5)))
	sat := b.Saturation(u, -50, 50)
	out := b.Switch(hot, sat, b.ConstT(model.Int32, 0))
	b.Outport("y", model.Int32, out)
	c, err := codegen.Compile(b.Model())
	if err != nil {
		t.Fatalf("Compile: %v", err)
	}
	return c
}

// deep builds a model whose interesting branch requires a long input
// sequence (a counter that must reach 12 consecutive enables).
func deep(t *testing.T) *codegen.Compiled {
	t.Helper()
	b := model.NewBuilder("Deep")
	en := b.Inport("en", model.Int8)
	ml := b.Matlab("ctr", `
input  int8 en;
output int32 alarm = 0;
state  int32 run = 0;
if (en ~= 0) { run = run + 1; } else { run = 0; }
if (run >= 12) { alarm = 1; }
`, en)
	b.Outport("alarm", model.Int32, ml.Out(0))
	c, err := codegen.Compile(b.Model())
	if err != nil {
		t.Fatalf("Compile: %v", err)
	}
	return c
}

func TestSolverCoversShallowLogic(t *testing.T) {
	res := run(t, shallow(t), Options{MaxDepth: 2, NodeBudget: 50000})
	if res.Report.Decision() < 100 {
		t.Errorf("interval solver should fully cover combinational logic: %.1f%% (uncovered %v)",
			res.Report.Decision(), res.Report.UncoveredDecisions)
	}
	if len(res.Suite.Cases) == 0 {
		t.Error("no witnesses emitted")
	}
}

func TestSolverDepthLimitedOnDeepState(t *testing.T) {
	// With MaxDepth 5 the run>=12 branch is unreachable: the solver must
	// fail to cover it — the paper's shallow-logic limitation.
	res := run(t, deep(t), Options{MaxDepth: 5, NodeBudget: 20000})
	if res.Report.Decision() >= 100 {
		t.Errorf("depth-limited solver should miss the deep branch, got %.1f%%", res.Report.Decision())
	}
	found := false
	for _, lbl := range res.Report.UncoveredDecisions {
		if lbl != "" {
			found = true
		}
	}
	if !found {
		t.Error("expected at least one uncovered decision label")
	}
}

func TestSolverMemoryGrowsWithDepth(t *testing.T) {
	c := deep(t)
	shallowRes := run(t, c, Options{MaxDepth: 1, NodeBudget: 4000})
	deepRes := run(t, c, Options{MaxDepth: 8, NodeBudget: 4000})
	if deepRes.PeakMemory <= shallowRes.PeakMemory {
		t.Errorf("frontier memory should grow with unrolling depth: depth1=%d depth8=%d",
			shallowRes.PeakMemory, deepRes.PeakMemory)
	}
}

func TestObjectiveDepths(t *testing.T) {
	res := run(t, shallow(t), Options{MaxDepth: 2, NodeBudget: 50000})
	c := shallow(t)
	foundShallow := false
	for _, d := range res.ObjectiveDepth {
		if d == 1 {
			foundShallow = true
		}
		if d > 2 {
			t.Fatalf("objective depth %d exceeds the analysed bound", d)
		}
	}
	if !foundShallow {
		t.Error("combinational objectives should resolve at depth 1")
	}
	out := res.FormatObjectives(c.Plan)
	if !strings.Contains(out, "depth 1") {
		t.Errorf("objectives table missing depth annotations:\n%s", out)
	}

	// The deep model's run>=12 objective must stay undecided.
	deepRes := run(t, deep(t), Options{MaxDepth: 4, NodeBudget: 10000})
	dc := deep(t)
	undecided := strings.Count(deepRes.FormatObjectives(dc.Plan), "undecided")
	if undecided == 0 {
		t.Error("deep objectives should stay undecided within the bound")
	}
}

func TestSolverRespectsWallBudget(t *testing.T) {
	c := deep(t)
	start := time.Now()
	run(t, c, Options{MaxDepth: 12, NodeBudget: 1 << 40, Budget: 50 * time.Millisecond})
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Errorf("solver ignored wall budget: ran %v", elapsed)
	}
}

// mathFloor backs the solver's integer-midpoint bisection; it must floor
// toward negative infinity, not truncate toward zero.
func TestMathFloorNegative(t *testing.T) {
	if mathFloor(-0.5) != -1 {
		t.Error("mathFloor(-0.5) must be -1")
	}
	if mathFloor(2.9) != 2 {
		t.Error("mathFloor(2.9) must be 2")
	}
	if mathFloor(-3) != -3 {
		t.Error("mathFloor(-3) must be -3")
	}
}

// run is Run for models that have inports.
func run(t *testing.T, c *codegen.Compiled, opts Options) *Result {
	t.Helper()
	res, err := Run(c, opts)
	if err != nil {
		t.Fatal(err)
	}
	return res
}
