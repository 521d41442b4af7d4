package analysis_test

import (
	"testing"

	"cftcg/internal/analysis"
	"cftcg/internal/codegen"
	"cftcg/internal/coverage"
	"cftcg/internal/model"
)

// influenceModel: branch depends on u0 (directly) and on u1 (through state
// accumulation); u2 flows only to an output and influences nothing.
func influenceModel(t *testing.T) *codegen.Compiled {
	t.Helper()
	b := model.NewBuilder("Influence")
	u0 := b.Inport("u0", model.Int32)
	u1 := b.Inport("u1", model.Int32)
	u2 := b.Inport("u2", model.Int32)
	acc := b.UnitDelay(b.Saturation(b.Add2(u1, b.ConstT(model.Int32, 1)), -1000, 1000), 0)
	hot := b.Rel(">", b.Add2(u0, acc), b.ConstT(model.Int32, 50))
	out := b.Switch(hot, b.ConstT(model.Int32, 1), b.ConstT(model.Int32, 0))
	b.Outport("y", model.Int32, out)
	b.Outport("z", model.Int32, b.Gain(u2, 2))
	c, err := codegen.Compile(b.Model())
	if err != nil {
		t.Fatalf("Compile: %v", err)
	}
	return c
}

func fieldIndex(c *codegen.Compiled, name string) int {
	for i, f := range c.Prog.In {
		if f.Name == name {
			return i
		}
	}
	return -1
}

func TestInfluenceMap(t *testing.T) {
	c := influenceModel(t)
	inf := analysis.ComputeInfluence(c.Prog, c.Plan)
	if inf.NumFields != 3 {
		t.Fatalf("NumFields = %d", inf.NumFields)
	}
	iu0, iu1, iu2 := fieldIndex(c, "u0"), fieldIndex(c, "u1"), fieldIndex(c, "u2")
	var sw *coverage.Decision
	for i := range c.Plan.Decisions {
		if c.Plan.Decisions[i].Kind == coverage.KindSwitch {
			sw = &c.Plan.Decisions[i]
		}
	}
	if sw == nil {
		t.Fatal("no switch decision")
	}
	for k := 0; k < sw.NumOutcomes; k++ {
		fields := inf.Fields(sw.OutcomeBase + k)
		has := func(f int) bool {
			for _, x := range fields {
				if x == f {
					return true
				}
			}
			return false
		}
		if !has(iu0) {
			t.Errorf("switch outcome %d: direct operand u0 missing from %v", k, fields)
		}
		if !has(iu1) {
			t.Errorf("switch outcome %d: state-carried u1 missing from %v", k, fields)
		}
		if has(iu2) {
			t.Errorf("switch outcome %d: unrelated u2 wrongly included in %v", k, fields)
		}
	}
}
