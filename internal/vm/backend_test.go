package vm

import (
	"fmt"
	"math/rand"
	"testing"

	"cftcg/internal/analysis"
	"cftcg/internal/coverage"
	"cftcg/internal/ir"
)

// runLockstep is the cross-backend differential oracle: it builds one
// generated program, runs it through every backend in lockstep on the same
// input stream, and demands bit-identical observables after every call —
// outputs, state, fuel consumed, hang attribution, and both coverage arrays.
// fuel <= 0 runs with the default budget (generated programs then never
// hang); a small budget forces mid-program hangs, which must abort at the
// same sub-instruction pc on every backend.
func runLockstep(t *testing.T, seed int64, steps int, fuel int64) {
	t.Helper()
	p, decs := ir.GenProgram(seed)
	if err := p.Validate(); err != nil {
		t.Fatalf("gen seed %d: %v", seed, err)
	}
	plan := planFor(decs)
	if err := analysis.VerifyStrict(p, plan); err != nil {
		t.Fatalf("gen seed %d not verifier-clean: %v", seed, err)
	}

	backs := allBackends()
	engines := make([]Backend, len(backs))
	recs := make([]*coverage.Recorder, len(backs))
	for i, bc := range backs {
		recs[i] = coverage.NewRecorder(plan)
		engines[i] = bc.make(p, recs[i])
		if fuel > 0 {
			engines[i].SetFuel(fuel)
		}
	}
	ref, refRec := engines[0], recs[0]

	refErr := ref.Init()
	for i := 1; i < len(engines); i++ {
		compareAfterCall(t, "init vs "+backs[i].name, ref, engines[i], refErr, engines[i].Init(), refRec, recs[i])
	}
	rnd := rand.New(rand.NewSource(seed ^ 0x5deece66d))
	for s := 0; s < steps; s++ {
		in := genInputs(rnd, p.In)
		for _, r := range recs {
			r.BeginStep()
		}
		refErr = ref.Step(in)
		for i := 1; i < len(engines); i++ {
			name := fmt.Sprintf("step %d vs %s", s, backs[i].name)
			compareAfterCall(t, name, ref, engines[i], refErr, engines[i].Step(in), refRec, recs[i])
		}
	}
}

func TestBackendsLockstepGenerated(t *testing.T) {
	for seed := int64(0); seed < 60; seed++ {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			runLockstep(t, seed, 24, 0)
		})
	}
}

// TestBackendsLockstepFuelSweep hammers the fuel accounting: every budget
// from 1 instruction up must hang (or not) identically on every backend,
// with the same abort pc, the same partial state/output effects and the same
// partial probe stream. This is the test that keeps the threaded backend's
// block-level fuel charging and its replay of exhausted prefixes honest.
func TestBackendsLockstepFuelSweep(t *testing.T) {
	for _, seed := range []int64{1, 2, 3, 5, 8, 13} {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			// Measure real costs once, then sweep tight around them plus the
			// tiny-budget range where even the init prologue hangs.
			p, _ := ir.GenProgram(seed)
			m := New(p, nil)
			if err := m.Init(); err != nil {
				t.Fatalf("init with default fuel: %v", err)
			}
			initCost := m.LastFuelUsed()
			rnd := rand.New(rand.NewSource(seed ^ 0x5deece66d))
			var stepCost int64
			for s := 0; s < 3; s++ {
				if err := m.Step(genInputs(rnd, p.In)); err != nil {
					t.Fatalf("step with default fuel: %v", err)
				}
				stepCost = max(stepCost, m.LastFuelUsed())
			}
			budgets := map[int64]bool{}
			for b := int64(1); b <= 50; b++ {
				budgets[b] = true
			}
			for d := int64(-2); d <= 2; d++ {
				if initCost+d > 0 {
					budgets[initCost+d] = true
				}
				if stepCost+d > 0 {
					budgets[stepCost+d] = true
				}
			}
			for b := range budgets {
				runLockstep(t, seed, 3, b)
			}
		})
	}
}

func TestGeneratedProgramsAreVerifierClean(t *testing.T) {
	for seed := int64(0); seed < 300; seed++ {
		p, decs := ir.GenProgram(seed)
		if err := p.Validate(); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if err := analysis.VerifyStrict(p, planFor(decs)); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
	}
}
