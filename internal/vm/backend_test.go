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
// block-level fuel charging and slow-path replay honest.
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

// TestBatchLanesAreIsolated drives a multi-program batch (shared SoA slabs,
// maximum strides) against one reference machine per lane, interleaving the
// lanes, and checks no lane's registers, state, outputs or coverage leak
// into a neighbour. The ResetAll halfway through must be equivalent to
// constructing fresh machines.
func TestBatchLanesAreIsolated(t *testing.T) {
	seeds := []int64{11, 12, 13, 14}
	type lane struct {
		prog *ir.Program
		rec  *coverage.Recorder // batch lane recorder
		mrec *coverage.Recorder // reference machine recorder
		m    *Machine
		rnd  *rand.Rand
	}
	lanes := make([]*lane, len(seeds))
	codes := make([]*Code, len(seeds))
	recs := make([]*coverage.Recorder, len(seeds))
	for i, seed := range seeds {
		p, decs := ir.GenProgram(seed)
		plan := planFor(decs)
		lanes[i] = &lane{
			prog: p,
			rec:  coverage.NewRecorder(plan),
			mrec: coverage.NewRecorder(plan),
			m:    New(p, nil),
			rnd:  rand.New(rand.NewSource(seed)),
		}
		lanes[i].m = New(p, lanes[i].mrec)
		codes[i] = CompileThreaded(p)
		recs[i] = lanes[i].rec
	}
	b := NewBatchMulti(codes, recs)

	check := func(i int, refErr, gotErr error) {
		t.Helper()
		l := lanes[i]
		if msg := sameErr(refErr, gotErr); msg != "" {
			t.Fatalf("lane %d: %s", i, msg)
		}
		if msg := diffWords("out", l.m.Out(), b.Out(i)); msg != "" {
			t.Fatalf("lane %d: %s", i, msg)
		}
		if msg := diffWords("state", l.m.State(), b.State(i)); msg != "" {
			t.Fatalf("lane %d: %s", i, msg)
		}
		if l.m.LastFuelUsed() != b.LastFuelUsed(i) {
			t.Fatalf("lane %d: fuel %d vs %d", i, l.m.LastFuelUsed(), b.LastFuelUsed(i))
		}
		if msg := diffWords("Curr", l.mrec.Curr, l.rec.Curr); msg != "" {
			t.Fatalf("lane %d: %s", i, msg)
		}
	}

	order := rand.New(rand.NewSource(99))
	for round := 0; round < 2; round++ {
		for _, i := range order.Perm(len(lanes)) {
			check(i, lanes[i].m.Init(), b.Init(i))
		}
		for s := 0; s < 10; s++ {
			for _, i := range order.Perm(len(lanes)) {
				l := lanes[i]
				in := genInputs(l.rnd, l.prog.In)
				l.mrec.BeginStep()
				l.rec.BeginStep()
				check(i, l.m.Step(in), b.Step(i, in))
			}
		}
		// ResetAll zeroes the slabs; fresh machines (and recorders) are the
		// reference for everything that follows.
		b.ResetAll()
		for i := range lanes {
			lanes[i].m = New(lanes[i].prog, lanes[i].mrec)
			lanes[i].mrec.ResetAll()
			lanes[i].rec.ResetAll()
		}
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
