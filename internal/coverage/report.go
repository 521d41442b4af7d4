package coverage

import (
	"encoding/json"
	"fmt"
	"strings"
)

// Report summarizes the three metrics the paper evaluates (Table 3):
// Decision Coverage, Condition Coverage, and Modified Condition/Decision
// Coverage. Percentages are 0..100.
type Report struct {
	ModelName string

	DecisionCovered, DecisionTotal int
	CondCovered, CondTotal         int
	MCDCCovered, MCDCTotal         int

	// UncoveredDecisions lists labels of decisions with missing outcomes,
	// for diagnosis.
	UncoveredDecisions []string
}

// Decision returns the Decision Coverage percentage.
func (r Report) Decision() float64 { return pct(r.DecisionCovered, r.DecisionTotal) }

// Condition returns the Condition Coverage percentage.
func (r Report) Condition() float64 { return pct(r.CondCovered, r.CondTotal) }

// MCDC returns the Modified Condition/Decision Coverage percentage.
func (r Report) MCDC() float64 { return pct(r.MCDCCovered, r.MCDCTotal) }

func pct(covered, total int) float64 {
	if total == 0 {
		return 100
	}
	return 100 * float64(covered) / float64(total)
}

// MarshalJSON renders the report for CI pipelines: the three percentages
// plus their covered/total fractions and any uncovered decision labels.
func (r Report) MarshalJSON() ([]byte, error) {
	type frac struct {
		Percent float64 `json:"percent"`
		Covered int     `json:"covered"`
		Total   int     `json:"total"`
	}
	return json.Marshal(struct {
		Model     string   `json:"model"`
		Decision  frac     `json:"decision"`
		Condition frac     `json:"condition"`
		MCDC      frac     `json:"mcdc"`
		Uncovered []string `json:"uncoveredDecisions,omitempty"`
	}{
		Model:     r.ModelName,
		Decision:  frac{r.Decision(), r.DecisionCovered, r.DecisionTotal},
		Condition: frac{r.Condition(), r.CondCovered, r.CondTotal},
		MCDC:      frac{r.MCDC(), r.MCDCCovered, r.MCDCTotal},
		Uncovered: r.UncoveredDecisions,
	})
}

// UnmarshalJSON inverts MarshalJSON so reports survive a round trip through
// persisted JSON (the daemon's crash-durable campaign journal).
func (r *Report) UnmarshalJSON(data []byte) error {
	type frac struct {
		Covered int `json:"covered"`
		Total   int `json:"total"`
	}
	var w struct {
		Model     string   `json:"model"`
		Decision  frac     `json:"decision"`
		Condition frac     `json:"condition"`
		MCDC      frac     `json:"mcdc"`
		Uncovered []string `json:"uncoveredDecisions"`
	}
	if err := json.Unmarshal(data, &w); err != nil {
		return err
	}
	r.ModelName = w.Model
	r.DecisionCovered, r.DecisionTotal = w.Decision.Covered, w.Decision.Total
	r.CondCovered, r.CondTotal = w.Condition.Covered, w.Condition.Total
	r.MCDCCovered, r.MCDCTotal = w.MCDC.Covered, w.MCDC.Total
	r.UncoveredDecisions = w.Uncovered
	return nil
}

func (r Report) String() string {
	return fmt.Sprintf("%s: decision %.1f%% (%d/%d), condition %.1f%% (%d/%d), MCDC %.1f%% (%d/%d)",
		r.ModelName,
		r.Decision(), r.DecisionCovered, r.DecisionTotal,
		r.Condition(), r.CondCovered, r.CondTotal,
		r.MCDC(), r.MCDCCovered, r.MCDCTotal)
}

// Report computes the coverage metrics from the recorder's cumulative state.
//
// Decision Coverage counts decision outcomes exercised. Condition Coverage
// counts condition polarities exercised (each condition must be seen both
// true and false to fully cover its two slots). MCDC uses the unique-cause
// criterion: condition c of decision d is credited when two recorded
// evaluations differ exactly in c's value and produce different outcomes.
// Conditions are evaluated eagerly (no short-circuit) by both execution
// engines, which makes unique-cause well defined.
func (r *Recorder) Report() Report {
	p := r.plan
	rep := Report{ModelName: p.ModelName}

	for i := range p.Decisions {
		d := &p.Decisions[i]
		rep.DecisionTotal += d.NumOutcomes
		missing := false
		for k := 0; k < d.NumOutcomes; k++ {
			if r.Total[d.OutcomeBase+k] != 0 {
				rep.DecisionCovered++
			} else {
				missing = true
			}
		}
		if missing {
			rep.UncoveredDecisions = append(rep.UncoveredDecisions, d.Label)
		}
	}

	rep.CondTotal = 2 * len(p.Conds)
	for i := range p.Conds {
		c := &p.Conds[i]
		for _, branch := range []int{c.BranchBase, c.BranchBase + 1} {
			if r.Total[branch] != 0 {
				rep.CondCovered++
			}
		}
	}

	for i := range p.Decisions {
		d := &p.Decisions[i]
		if len(d.CondIDs) == 0 {
			continue
		}
		rep.MCDCTotal += len(d.CondIDs)
		rep.MCDCCovered += mcdcSatisfied(d, r.keysOf(d.ID))
	}
	return rep
}

// keyRec is one recorded MCDC key: a condition vector and the outcome the
// decision resolved to with it.
type keyRec struct{ vec, outcome uint32 }

// keysOf lists the keys decision d has recorded, read from its bits in the
// packed set or from its wide set.
func (r *Recorder) keysOf(d int) []keyRec {
	m := r.decMeta[d]
	var recs []keyRec
	switch m.store {
	case keysPacked:
		n := uint32(r.plan.Decisions[d].NumOutcomes) << m.conds
		for k := uint32(0); k < n; k++ {
			if b := m.base + k; r.keys[b>>6]&(1<<(b&63)) != 0 {
				recs = append(recs, keyRec{vec: k & (1<<m.conds - 1), outcome: k >> m.conds})
			}
		}
	case keysWide:
		for k := range r.wide[m.base] {
			recs = append(recs, keyRec{vec: uint32(k), outcome: uint32(k >> 32)})
		}
	}
	return recs
}

// mcdcSatisfied counts how many of the decision's conditions have a
// unique-cause independence pair among the recorded keys.
func mcdcSatisfied(d *Decision, recs []keyRec) int {
	if len(recs) < 2 {
		return 0
	}
	covered := 0
	for slot := range d.CondIDs {
		mask := uint32(1) << uint(slot)
		found := false
	pairs:
		for i := 0; i < len(recs) && !found; i++ {
			for j := i + 1; j < len(recs); j++ {
				if recs[i].vec^recs[j].vec == mask && recs[i].outcome != recs[j].outcome {
					found = true
					break pairs
				}
			}
		}
		if found {
			covered++
		}
	}
	return covered
}

// FormatTable renders per-decision coverage detail for the `cftcg cov`
// command.
func (r *Recorder) FormatTable() string {
	p := r.plan
	var w strings.Builder
	fmt.Fprintf(&w, "model %s: %d decisions, %d conditions, %d branch slots\n",
		p.ModelName, len(p.Decisions), len(p.Conds), p.NumBranches)
	for i := range p.Decisions {
		d := &p.Decisions[i]
		hit := 0
		for k := 0; k < d.NumOutcomes; k++ {
			if r.Total[d.OutcomeBase+k] != 0 {
				hit++
			}
		}
		fmt.Fprintf(&w, "  [%c] %-60s %d/%d outcomes\n", d.Kind.Mode(), d.Label, hit, d.NumOutcomes)
	}
	return w.String()
}
