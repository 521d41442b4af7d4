package coverage

import (
	"strings"
	"testing"

	"cftcg/internal/blocks"
	"cftcg/internal/model"
)

// planFor compiles a model far enough to get its plan.
func planFor(t *testing.T, m *model.Model) (*Plan, *Index) {
	t.Helper()
	d, err := blocks.Resolve(m)
	if err != nil {
		t.Fatal(err)
	}
	p, ix, err := Build(d)
	if err != nil {
		t.Fatal(err)
	}
	return p, ix
}

func logicModel(t *testing.T) *model.Model {
	b := model.NewBuilder("L")
	x := b.Inport("x", model.Bool)
	y := b.Inport("y", model.Bool)
	b.Outport("o", model.Bool, b.And(x, y))
	return b.Model()
}

func TestPlanForLogicBlock(t *testing.T) {
	p, ix := planFor(t, logicModel(t))
	if len(p.Decisions) != 1 || len(p.Conds) != 2 {
		t.Fatalf("AND plan: %d decisions, %d conds", len(p.Decisions), len(p.Conds))
	}
	d := p.Decisions[0]
	if d.Kind != KindLogic || !d.Boolean || d.NumOutcomes != 2 {
		t.Errorf("decision: %+v", d)
	}
	if d.Kind.Mode() != 'a' {
		t.Errorf("logic decisions are mode (a), got %c", d.Kind.Mode())
	}
	// 2 outcomes + 2 conds * 2 = 6 branch slots.
	if p.NumBranches != 6 {
		t.Errorf("branches: %d, want 6", p.NumBranches)
	}
	andBlock := (*model.Block)(nil)
	for b := range ix.BlockDecisions {
		if b.Kind == "LogicalOperator" {
			andBlock = b
		}
	}
	if andBlock == nil || len(ix.BlockConds[andBlock]) != 2 {
		t.Error("index missing logic block entries")
	}
}

func TestPlanModes(t *testing.T) {
	kinds := []struct {
		k    DecisionKind
		mode byte
	}{
		{KindLogic, 'a'},
		{KindSwitch, 'b'}, {KindMultiportSwitch, 'b'}, {KindMinMax, 'b'},
		{KindIf, 'c'}, {KindSwitchCase, 'c'}, {KindEnable, 'c'}, {KindTrigger, 'c'},
		{KindSaturation, 'd'}, {KindScriptIf, 'd'}, {KindTransition, 'd'},
	}
	for _, c := range kinds {
		if c.k.Mode() != c.mode {
			t.Errorf("%s: mode %c, want %c", c.k, c.k.Mode(), c.mode)
		}
	}
}

func TestRecorderBasics(t *testing.T) {
	p, _ := planFor(t, logicModel(t))
	r := NewRecorder(p)
	d := &p.Decisions[0]

	r.BeginStep()
	r.Cond(d.CondIDs[0], true)
	r.Cond(d.CondIDs[1], false)
	r.Outcome(d.ID, 0)

	if !r.Hit(d.OutcomeBase) {
		t.Error("outcome 0 not recorded in Curr")
	}
	if !r.Hit(p.Conds[0].BranchBase) {
		t.Error("cond true polarity not recorded")
	}
	if !r.Hit(p.Conds[1].BranchBase + 1) {
		t.Error("cond false polarity not recorded")
	}
	r.BeginStep()
	for _, v := range r.Curr {
		if v != 0 {
			t.Fatal("BeginStep must clear Curr")
		}
	}
	if r.Total[d.OutcomeBase] == 0 {
		t.Error("Total must persist across steps")
	}
	if r.CoveredBranches() != 3 {
		t.Errorf("covered: %d, want 3", r.CoveredBranches())
	}
	r.ResetAll()
	if r.CoveredBranches() != 0 {
		t.Error("ResetAll must clear totals")
	}
}

// TestMCDCUniqueCause builds the truth-table evaluations by hand and checks
// the pairing logic: for AND, (T,T)->T with (F,T)->F demonstrates c1, and
// (T,T)->T with (T,F)->F demonstrates c2.
func TestMCDCUniqueCause(t *testing.T) {
	p, _ := planFor(t, logicModel(t))
	r := NewRecorder(p)
	d := &p.Decisions[0]
	eval := func(c1, c2 bool) {
		r.BeginStep()
		r.Cond(d.CondIDs[0], c1)
		r.Cond(d.CondIDs[1], c2)
		out := 0
		if c1 && c2 {
			out = 1
		}
		r.Outcome(d.ID, out)
	}

	eval(true, true)
	rep := r.Report()
	if rep.MCDCCovered != 0 {
		t.Errorf("one vector cannot satisfy MCDC: %d", rep.MCDCCovered)
	}

	eval(false, true)
	rep = r.Report()
	if rep.MCDCCovered != 1 {
		t.Errorf("c1 pair present: covered %d, want 1", rep.MCDCCovered)
	}

	eval(true, false)
	rep = r.Report()
	if rep.MCDCCovered != 2 {
		t.Errorf("both pairs present: covered %d, want 2", rep.MCDCCovered)
	}

	// (F,F) adds nothing new for unique cause.
	eval(false, false)
	rep = r.Report()
	if rep.MCDCCovered != 2 || rep.MCDCTotal != 2 {
		t.Errorf("final MCDC %d/%d, want 2/2", rep.MCDCCovered, rep.MCDCTotal)
	}
	if rep.MCDC() != 100 {
		t.Errorf("MCDC%%: %v", rep.MCDC())
	}
}

func TestMCDCRequiresOutcomeChange(t *testing.T) {
	// OR decision: (T,F)->T and (F,F)->F flips outcome with c1 -> pair.
	// But (T,T)->T and (F,T)->T differ in c1 with SAME outcome -> no pair.
	b := model.NewBuilder("O")
	x := b.Inport("x", model.Bool)
	y := b.Inport("y", model.Bool)
	b.Outport("o", model.Bool, b.Or(x, y))
	p, _ := planFor(t, b.Model())
	r := NewRecorder(p)
	d := &p.Decisions[0]
	eval := func(c1, c2 bool) {
		r.BeginStep()
		r.Cond(d.CondIDs[0], c1)
		r.Cond(d.CondIDs[1], c2)
		out := 0
		if c1 || c2 {
			out = 1
		}
		r.Outcome(d.ID, out)
	}
	eval(true, true)
	eval(false, true)
	if got := r.Report().MCDCCovered; got != 0 {
		t.Errorf("same-outcome pair must not count: %d", got)
	}
	eval(false, false)
	// now (F,T)->T vs (F,F)->F differ only in c2 with flip -> c2 proven.
	if got := r.Report().MCDCCovered; got != 1 {
		t.Errorf("c2 pair: %d, want 1", got)
	}
}

func TestReportPercentages(t *testing.T) {
	rep := Report{
		DecisionCovered: 3, DecisionTotal: 4,
		CondCovered: 1, CondTotal: 2,
		MCDCCovered: 0, MCDCTotal: 5,
	}
	if rep.Decision() != 75 || rep.Condition() != 50 || rep.MCDC() != 0 {
		t.Errorf("percentages: %v %v %v", rep.Decision(), rep.Condition(), rep.MCDC())
	}
	empty := Report{}
	if empty.Decision() != 100 {
		t.Error("empty metric defaults to 100%")
	}
	if !strings.Contains(rep.String(), "75.0%") {
		t.Errorf("String: %s", rep.String())
	}
}

func TestMerge(t *testing.T) {
	p, _ := planFor(t, logicModel(t))
	a := NewRecorder(p)
	b := NewRecorder(p)
	d := &p.Decisions[0]
	a.BeginStep()
	a.Cond(d.CondIDs[0], true)
	a.Cond(d.CondIDs[1], true)
	a.Outcome(d.ID, 1)
	b.BeginStep()
	b.Cond(d.CondIDs[0], false)
	b.Cond(d.CondIDs[1], true)
	b.Outcome(d.ID, 0)

	a.Merge(b)
	rep := a.Report()
	if rep.DecisionCovered != 2 {
		t.Errorf("merged decision coverage: %d, want 2", rep.DecisionCovered)
	}
	if rep.MCDCCovered != 1 {
		t.Errorf("merged MCDC pairing: %d, want 1 (c1 pair spans recorders)", rep.MCDCCovered)
	}
}

func TestProgress(t *testing.T) {
	p, _ := planFor(t, logicModel(t))
	pr := NewProgress(p)
	curr := make([]uint64, words(p.NumBranches))
	for _, b := range []int{p.Decisions[0].OutcomeBase, p.Conds[0].BranchBase} {
		curr[b>>6] |= 1 << (b & 63)
	}
	if n := pr.Absorb(curr); n != 2 {
		t.Errorf("absorb: %d, want 2", n)
	}
	if n := pr.Absorb(curr); n != 0 {
		t.Errorf("re-absorb: %d, want 0", n)
	}
	if pr.Decision() != 50 {
		t.Errorf("decision: %v, want 50", pr.Decision())
	}
	if pr.Condition() != 25 {
		t.Errorf("condition: %v, want 25", pr.Condition())
	}
	if pr.Covered() != 2 {
		t.Errorf("covered: %d", pr.Covered())
	}
}

// TestPlanDeterministic: building the plan twice over the same design
// yields identical IDs and labels — corpora and suites stay replayable
// across process restarts.
func TestPlanDeterministic(t *testing.T) {
	m := logicModel(t)
	d, err := blocks.Resolve(m)
	if err != nil {
		t.Fatal(err)
	}
	p1, _, err := Build(d)
	if err != nil {
		t.Fatal(err)
	}
	p2, _, err := Build(d)
	if err != nil {
		t.Fatal(err)
	}
	if p1.NumBranches != p2.NumBranches || len(p1.Decisions) != len(p2.Decisions) {
		t.Fatal("plan sizes differ across builds")
	}
	for i := range p1.Decisions {
		a, b := p1.Decisions[i], p2.Decisions[i]
		if a.Label != b.Label || a.OutcomeBase != b.OutcomeBase || a.Kind != b.Kind {
			t.Errorf("decision %d differs: %+v vs %+v", i, a, b)
		}
	}
	for i := range p1.Conds {
		if p1.Conds[i].BranchBase != p2.Conds[i].BranchBase {
			t.Errorf("cond %d branch base differs", i)
		}
	}
}

func TestBranchLabel(t *testing.T) {
	p, _ := planFor(t, logicModel(t))
	if !strings.Contains(p.BranchLabel(0), "outcome") {
		t.Errorf("outcome label: %s", p.BranchLabel(0))
	}
	condBase := p.Conds[0].BranchBase
	if !strings.Contains(p.BranchLabel(condBase), "true") {
		t.Errorf("cond true label: %s", p.BranchLabel(condBase))
	}
	if !strings.Contains(p.BranchLabel(condBase+1), "false") {
		t.Errorf("cond false label: %s", p.BranchLabel(condBase+1))
	}
}
