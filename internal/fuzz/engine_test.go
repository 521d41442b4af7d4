package fuzz

import (
	"bytes"
	"testing"

	"cftcg/internal/benchmodels"
	"cftcg/internal/codegen"
	"cftcg/internal/model"
	"cftcg/internal/vm"
)

// switchOnly builds the minimal model for metric arithmetic: one Switch
// decision with two outcomes (2 branch slots total).
func switchOnly(t *testing.T) *codegen.Compiled {
	t.Helper()
	b := model.NewBuilder("SwitchOnly")
	in := b.Inport("u", model.Int8)
	out := b.Switch(in, b.ConstT(model.Int32, 1), b.ConstT(model.Int32, 0))
	b.Outport("y", model.Int32, out)
	c, err := codegen.Compile(b.Model())
	if err != nil {
		t.Fatalf("Compile: %v", err)
	}
	if c.Plan.NumBranches != 2 {
		t.Fatalf("want 2 branches, got %d", c.Plan.NumBranches)
	}
	return c
}

// TestIterationDifferenceMetric checks Algorithm 1's arithmetic on a case
// with hand-computable iteration coverage, in the spirit of the Figure 6
// worked example (sum of per-iteration branch-coverage differences).
func TestIterationDifferenceMetric(t *testing.T) {
	c := switchOnly(t)

	// Constant input: only the first iteration differs from the (empty)
	// previous coverage.
	e := MustEngine(c, Options{Seed: 1, MaxExecs: 1})
	metric, _, newAny := e.RunInput([]byte{1, 1, 1})
	if metric != 1 {
		t.Errorf("constant input: want metric 1, got %d", metric)
	}
	if newAny != 1 {
		t.Errorf("constant input: want 1 new branch, got %d", newAny)
	}

	// Alternating input: each flip toggles two branch slots.
	e2 := MustEngine(c, Options{Seed: 1, MaxExecs: 1})
	metric2, _, new2 := e2.RunInput([]byte{1, 0, 1})
	// iter1: {T} vs {} -> 1; iter2: {F} vs {T} -> 2; iter3: {T} vs {F} -> 2.
	if metric2 != 5 {
		t.Errorf("alternating input: want metric 5, got %d", metric2)
	}
	if new2 != 2 {
		t.Errorf("alternating input: want 2 new branches, got %d", new2)
	}
}

// TestFigure6Schematic reproduces the shape of the paper's Figure 6: three
// iterations with coverage sets {A}, {A,B}, {B} over a 2-branch decision
// yield metric 1 + 1 + 1 ... adapted to our Switch: the exact sequence
// T, T, F gives 1 (iter1) + 0 (iter2) + 2 (iter3) = 3.
func TestFigure6Schematic(t *testing.T) {
	c := switchOnly(t)
	e := MustEngine(c, Options{Seed: 1, MaxExecs: 1})
	metric, _, _ := e.RunInput([]byte{1, 1, 0})
	if metric != 3 {
		t.Errorf("want metric 3 (= 1+0+2), got %d", metric)
	}
}

func TestShortInputDiscarded(t *testing.T) {
	b := model.NewBuilder("TwoField")
	x := b.Inport("x", model.Int32)
	y := b.Inport("y", model.Int32)
	b.Outport("s", model.Int32, b.Add2(x, y))
	c, err := codegen.Compile(b.Model())
	if err != nil {
		t.Fatalf("Compile: %v", err)
	}
	e := MustEngine(c, Options{Seed: 1, MaxExecs: 1})
	before := e.steps
	// 11 bytes = one full 8-byte tuple + 3 trailing bytes (discarded).
	e.RunInput(make([]byte, 11))
	if got := e.steps - before; got != 1 {
		t.Errorf("trailing bytes must be discarded: want 1 step, got %d", got)
	}
}

func TestEngineRunFindsCoverage(t *testing.T) {
	b := model.NewBuilder("Gated")
	u := b.Inport("u", model.Int32)
	// A chain requiring specific magnitudes: |u| in narrow band.
	a := b.Abs(u)
	band := b.And(b.Rel(">", a, b.ConstT(model.Int32, 1000)), b.Rel("<", a, b.ConstT(model.Int32, 1010)))
	out := b.Switch(band, b.ConstT(model.Int32, 7), b.ConstT(model.Int32, 3))
	b.Outport("y", model.Int32, out)
	c, err := codegen.Compile(b.Model())
	if err != nil {
		t.Fatalf("Compile: %v", err)
	}

	e := MustEngine(c, Options{Seed: 42, MaxExecs: 30000})
	res := e.Run()
	if res.Report.Decision() < 100 {
		t.Errorf("fuzzer should fully cover the gated switch: got %.1f%% decision (uncovered %v)",
			res.Report.Decision(), res.Report.UncoveredDecisions)
	}
	if len(res.Suite.Cases) == 0 {
		t.Error("no test cases emitted")
	}
	if res.Corpus == 0 {
		t.Error("corpus stayed empty")
	}
	if len(res.Timeline) < 2 {
		t.Error("timeline not sampled")
	}
}

func TestEngineDeterministicWithSeed(t *testing.T) {
	c := switchOnly(t)
	r1 := MustEngine(c, Options{Seed: 7, MaxExecs: 2000}).Run()
	r2 := MustEngine(c, Options{Seed: 7, MaxExecs: 2000}).Run()
	if r1.Steps != r2.Steps || r1.Execs != r2.Execs || len(r1.Suite.Cases) != len(r2.Suite.Cases) {
		t.Errorf("same seed must replay identically: steps %d vs %d, execs %d vs %d, cases %d vs %d",
			r1.Steps, r2.Steps, r1.Execs, r2.Execs, len(r1.Suite.Cases), len(r2.Suite.Cases))
	}
}

// TestBackendInvariantCampaign: a campaign is a deterministic function of
// (seed, options, observable VM behavior) — and the threaded backend the
// engine runs is differentially proven observably identical to the switch
// reference — so the same campaign with the engine's machine swapped for the
// reference must produce the same executions, steps, cases and coverage,
// byte for byte.
func TestBackendInvariantCampaign(t *testing.T) {
	for _, name := range []string{"CPUTask", "SolarPV"} {
		e, err := benchmodels.Get(name)
		if err != nil {
			t.Fatal(err)
		}
		c, err := codegen.Compile(e.Build())
		if err != nil {
			t.Fatal(err)
		}
		opts := Options{Seed: 3, MaxExecs: 1500, Directed: true}
		ref := MustEngine(c, opts)
		ref.m = vm.New(c.Prog, ref.rec)
		sw := ref.Run()
		th := MustEngine(c, opts).Run()
		if sw.Execs != th.Execs || sw.Steps != th.Steps || sw.Corpus != th.Corpus {
			t.Fatalf("%s: counters diverge across backends: execs %d/%d steps %d/%d corpus %d/%d",
				name, sw.Execs, th.Execs, sw.Steps, th.Steps, sw.Corpus, th.Corpus)
		}
		if d1, d2 := sw.Report.Decision(), th.Report.Decision(); d1 != d2 {
			t.Fatalf("%s: decision coverage diverges: %.2f vs %.2f", name, d1, d2)
		}
		if len(sw.Suite.Cases) != len(th.Suite.Cases) {
			t.Fatalf("%s: case counts diverge: %d vs %d", name, len(sw.Suite.Cases), len(th.Suite.Cases))
		}
		for i := range sw.Suite.Cases {
			if !bytes.Equal(sw.Suite.Cases[i].Data, th.Suite.Cases[i].Data) {
				t.Fatalf("%s: case %d differs across backends", name, i)
			}
		}
	}
}
