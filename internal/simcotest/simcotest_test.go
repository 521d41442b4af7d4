package simcotest

import (
	"testing"
	"time"

	"cftcg/internal/codegen"
	"cftcg/internal/model"
)

func compiled(t *testing.T) *codegen.Compiled {
	t.Helper()
	b := model.NewBuilder("SimTarget")
	u := b.Inport("u", model.Int32)
	en := b.Inport("en", model.Int8)
	sat := b.Saturation(u, -200, 200)
	gate := b.And(en, b.Rel(">", sat, b.ConstT(model.Int32, 50)))
	out := b.Switch(gate, b.Gain(sat, 2), b.ConstT(model.Int32, -1))
	b.Outport("y", model.Int32, out)
	c, err := codegen.Compile(b.Model())
	if err != nil {
		t.Fatalf("Compile: %v", err)
	}
	return c
}

func TestSimCoTestFindsCoverage(t *testing.T) {
	c := compiled(t)
	res, err := Run(c.Design, c.Plan, c.Index, Options{Seed: 3, Horizon: 30, MaxSims: 200})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if res.Sims == 0 || res.Steps == 0 {
		t.Fatal("no simulations ran")
	}
	if res.Report.Decision() < 80 {
		t.Errorf("signal search should cover most of this simple model: %.1f%%", res.Report.Decision())
	}
	if len(res.Suite.Cases) == 0 {
		t.Error("no test cases kept")
	}
	// Suite cases decode to the right number of steps.
	for _, tc := range res.Suite.Cases {
		if got := res.Suite.Layout.Steps(tc.Data); got != 30 {
			t.Errorf("case should span the horizon: got %d tuples", got)
		}
	}
}

func TestSimCoTestDeterministic(t *testing.T) {
	c := compiled(t)
	r1, err := Run(c.Design, c.Plan, c.Index, Options{Seed: 9, Horizon: 20, MaxSims: 64})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	r2, err := Run(c.Design, c.Plan, c.Index, Options{Seed: 9, Horizon: 20, MaxSims: 64})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if r1.Steps != r2.Steps || len(r1.Suite.Cases) != len(r2.Suite.Cases) {
		t.Errorf("same seed must reproduce: steps %d vs %d, cases %d vs %d",
			r1.Steps, r2.Steps, len(r1.Suite.Cases), len(r2.Suite.Cases))
	}
}

func TestThrottleLimitsRate(t *testing.T) {
	c := compiled(t)
	start := time.Now()
	res, err := Run(c.Design, c.Plan, c.Index, Options{
		Seed: 1, Horizon: 10, MaxSims: 2, CandidatesPerRound: 2,
		ThrottleStepsPerSec: 100,
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	elapsed := time.Since(start)
	// 2 sims x 10 steps at 100 steps/s >= ~200ms.
	if res.Steps >= 20 && elapsed < 150*time.Millisecond {
		t.Errorf("throttle ineffective: %d steps in %v", res.Steps, elapsed)
	}
}
