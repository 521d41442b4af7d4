// Package coverage defines model-level coverage: the instrumentation plan
// (which decisions and conditions exist in a model), the runtime recorder
// (the "CoverageStatistics()" sink of the paper's Figure 4), and the
// Decision / Condition / MCDC reports of the evaluation (Table 3).
//
// Branch IDs: every decision outcome and every condition polarity gets one
// slot in a dense branch-ID space. The total count is the "#Branch" column
// of the paper's Table 2, and Algorithm 1's g_CurrCov/g_TotalCov arrays are
// indexed by these IDs.
package coverage

import "fmt"

// DecisionKind classifies where a decision came from; it maps onto the four
// instrumentation modes of the paper's §3.1.2.
type DecisionKind uint8

// Decision kinds. Logic is mode (a); Switch/MultiportSwitch/MinMax are mode
// (b); If/SwitchCase/Enable/Trigger are mode (c); the rest are mode (d).
const (
	KindLogic DecisionKind = iota
	KindSwitch
	KindMultiportSwitch
	KindMinMax
	KindIf
	KindSwitchCase
	KindEnable
	KindTrigger
	KindSaturation
	KindDeadZone
	KindRateLimiter
	KindRelay
	KindAbs
	KindSign
	KindLookup
	KindIntegratorSat
	KindScriptIf
	KindTransition
	KindDetect
	KindIntervalTest
	KindBacklash
	KindWrap
	KindAssertion
)

var kindNames = [...]string{
	KindLogic: "Logic", KindSwitch: "Switch", KindMultiportSwitch: "MultiportSwitch",
	KindMinMax: "MinMax", KindIf: "If", KindSwitchCase: "SwitchCase",
	KindEnable: "Enable", KindTrigger: "Trigger", KindSaturation: "Saturation",
	KindDeadZone: "DeadZone", KindRateLimiter: "RateLimiter", KindRelay: "Relay",
	KindAbs: "Abs", KindSign: "Sign", KindLookup: "Lookup",
	KindIntegratorSat: "IntegratorSat", KindScriptIf: "ScriptIf", KindTransition: "Transition",
	KindDetect: "Detect", KindIntervalTest: "IntervalTest", KindBacklash: "Backlash",
	KindWrap: "Wrap", KindAssertion: "Assertion",
}

func (k DecisionKind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return fmt.Sprintf("DecisionKind(%d)", uint8(k))
}

// Mode returns the paper's instrumentation mode letter for the kind.
func (k DecisionKind) Mode() byte {
	switch k {
	case KindLogic:
		return 'a'
	case KindSwitch, KindMultiportSwitch, KindMinMax:
		return 'b'
	case KindIf, KindSwitchCase, KindEnable, KindTrigger:
		return 'c'
	default:
		return 'd'
	}
}

// Decision is one instrumented decision point with NumOutcomes possible
// outcomes. Boolean decisions (NumOutcomes == 2, outcome 1 meaning "true")
// participate in MCDC via their conditions.
type Decision struct {
	ID          int
	Label       string
	Kind        DecisionKind
	NumOutcomes int
	OutcomeBase int   // branch ID of outcome 0; outcome k is OutcomeBase+k
	CondIDs     []int // conditions feeding this decision (may be empty)
	Boolean     bool
}

// Cond is one condition of a decision: a boolean leaf whose independent
// effect MCDC measures. Each condition owns two branch IDs.
type Cond struct {
	ID         int
	DecisionID int
	Slot       int // bit position in the decision's condition vector
	Label      string
	BranchBase int // branch ID of "true"; BranchBase+1 is "false"
}

// Plan is the complete instrumentation plan of one model.
type Plan struct {
	ModelName   string
	Decisions   []Decision
	Conds       []Cond
	NumBranches int
}

// DeadCount returns 0.
//
// Deprecated: every branch slot counts in every coverage denominator;
// analysis.DeadObjectives lists the provably unreachable ones.
func (p *Plan) DeadCount() int { return 0 }

// BranchCount returns the number of instrumented branch slots — the
// "#Branch" statistic of the paper's Table 2 and the branchCount input of
// Algorithm 1.
func (p *Plan) BranchCount() int { return p.NumBranches }

// Decision returns the decision with the given ID.
func (p *Plan) Decision(id int) *Decision { return &p.Decisions[id] }

// Cond returns the condition with the given ID.
func (p *Plan) Cond(id int) *Cond { return &p.Conds[id] }

// BranchLabel describes a branch ID for reports and disassembly.
func (p *Plan) BranchLabel(branch int) string {
	for i := range p.Decisions {
		d := &p.Decisions[i]
		if branch >= d.OutcomeBase && branch < d.OutcomeBase+d.NumOutcomes {
			return fmt.Sprintf("%s outcome %d", d.Label, branch-d.OutcomeBase)
		}
	}
	for i := range p.Conds {
		c := &p.Conds[i]
		if branch == c.BranchBase {
			return c.Label + " true"
		}
		if branch == c.BranchBase+1 {
			return c.Label + " false"
		}
	}
	return fmt.Sprintf("branch %d", branch)
}

// newDecision appends a decision (and allocates its outcome branch IDs).
func (p *Plan) newDecision(label string, kind DecisionKind, outcomes int, boolean bool) *Decision {
	d := Decision{
		ID:          len(p.Decisions),
		Label:       label,
		Kind:        kind,
		NumOutcomes: outcomes,
		OutcomeBase: p.NumBranches,
		Boolean:     boolean,
	}
	p.NumBranches += outcomes
	p.Decisions = append(p.Decisions, d)
	return &p.Decisions[len(p.Decisions)-1]
}

// newCond appends a condition to a decision (allocating its branch IDs).
func (p *Plan) newCond(decID int, label string) *Cond {
	d := &p.Decisions[decID]
	c := Cond{
		ID:         len(p.Conds),
		DecisionID: decID,
		Slot:       len(d.CondIDs),
		Label:      label,
		BranchBase: p.NumBranches,
	}
	p.NumBranches += 2
	p.Conds = append(p.Conds, c)
	d.CondIDs = append(d.CondIDs, c.ID)
	return &p.Conds[len(p.Conds)-1]
}
