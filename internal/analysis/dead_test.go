package analysis_test

import (
	"math/rand"
	"testing"

	"cftcg/internal/analysis"
	"cftcg/internal/benchmodels"
	"cftcg/internal/codegen"
	"cftcg/internal/coverage"
	"cftcg/internal/model"
	"cftcg/internal/vm"
)

// deadBranchModel saturates its input to [0,10] and then compares against
// 20: the comparison can never be true, so the switch's "true" outcome and
// the condition's true polarity are statically dead.
func deadBranchModel(t *testing.T) *codegen.Compiled {
	t.Helper()
	b := model.NewBuilder("DeadBranch")
	u := b.Inport("u", model.Int32)
	sat := b.Saturation(u, 0, 10)
	hot := b.Rel(">", sat, b.ConstT(model.Int32, 20))
	out := b.Switch(hot, b.ConstT(model.Int32, 1), b.ConstT(model.Int32, 0))
	b.Outport("y", model.Int32, out)
	c, err := codegen.Compile(b.Model())
	if err != nil {
		t.Fatalf("Compile: %v", err)
	}
	return c
}

func TestDeadObjectivesOnSeededDeadBranch(t *testing.T) {
	c := deadBranchModel(t)
	dead := make(map[int]bool)
	for _, slot := range analysis.DeadObjectives(c.Prog, c.Plan) {
		dead[slot] = true
	}
	if len(dead) == 0 {
		t.Fatal("analysis found no dead objectives in a model with a provably dead branch")
	}
	// The Switch decision's "true" outcome (outcome 1 of a boolean decision)
	// must be dead, its "false" outcome must not be.
	var sw *coverage.Decision
	for i := range c.Plan.Decisions {
		if c.Plan.Decisions[i].Kind == coverage.KindSwitch {
			sw = &c.Plan.Decisions[i]
		}
	}
	if sw == nil {
		t.Fatal("no switch decision in plan")
	}
	if !dead[sw.OutcomeBase+1] {
		t.Errorf("switch true outcome (branch %d) should be dead", sw.OutcomeBase+1)
	}
	if dead[sw.OutcomeBase] {
		t.Errorf("switch false outcome (branch %d) must stay live", sw.OutcomeBase)
	}
	// Saturation outcomes are all reachable and must stay live.
	for i := range c.Plan.Decisions {
		d := &c.Plan.Decisions[i]
		if d.Kind != coverage.KindSaturation {
			continue
		}
		for k := 0; k < d.NumOutcomes; k++ {
			if dead[d.OutcomeBase+k] {
				t.Errorf("saturation outcome %d wrongly dead", k)
			}
		}
	}
}

// TestDeadSoundOnBenchmodels empirically cross-checks the analysis on every
// benchmark model: no branch slot that concrete random execution reaches may
// be claimed dead.
func TestDeadSoundOnBenchmodels(t *testing.T) {
	for _, e := range benchmodels.All() {
		c, err := codegen.Compile(e.Build())
		if err != nil {
			t.Fatalf("%s: Compile: %v", e.Name, err)
		}
		dead := make(map[int]bool)
		for _, slot := range analysis.DeadObjectives(c.Prog, c.Plan) {
			dead[slot] = true
		}
		rec := coverage.NewRecorder(c.Plan)
		m := vm.New(c.Prog, rec)
		rng := rand.New(rand.NewSource(11))
		in := make([]uint64, len(c.Prog.In))
		for run := 0; run < 30; run++ {
			if err := m.Init(); err != nil {
				t.Fatalf("%s: Init: %v", e.Name, err)
			}
			for s := 0; s < 40; s++ {
				for f := range in {
					in[f] = randomFieldValue(rng, c.Prog.In[f].Type)
				}
				rec.BeginStep()
				if err := m.Step(in); err != nil {
					break // fuel/hang guards are fine here
				}
			}
		}
		for slot, v := range rec.Snapshot() {
			if v != 0 && dead[slot] {
				t.Errorf("%s: branch %d (%s) reached concretely but claimed dead",
					e.Name, slot, c.Plan.BranchLabel(slot))
			}
		}
	}
}

func randomFieldValue(rng *rand.Rand, dt model.DType) uint64 {
	switch {
	case dt.IsFloat():
		switch rng.Intn(4) {
		case 0:
			return model.EncodeFloat(dt, rng.NormFloat64()*1000)
		case 1:
			return model.EncodeFloat(dt, float64(rng.Intn(200)-100))
		case 2:
			return rng.Uint64() // raw bits: infinities and NaNs included
		default:
			return model.EncodeFloat(dt, rng.Float64())
		}
	case dt == model.Bool:
		return uint64(rng.Intn(2))
	default:
		return model.EncodeInt(dt, rng.Int63n(dt.MaxInt()-dt.MinInt()+1)+dt.MinInt())
	}
}
