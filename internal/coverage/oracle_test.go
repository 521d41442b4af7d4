package coverage

import (
	"math/rand"
	"reflect"
	"testing"
)

// The reference recorder below is the coverage oracle: it keeps nothing but
// the raw probe events it is fed and derives every figure from that log and
// the plan alone. It shares no state or bookkeeping with Recorder, so a
// wrong assumption in the recorder's packed sets cannot also pass here.

// probeKind tells the raw events a recorder sees apart.
type probeKind uint8

const (
	evStep    probeKind = iota // BeginStep
	evCond                     // Cond(id, val != 0)
	evOutcome                  // Outcome(id, val)
)

type probeEvent struct {
	kind probeKind
	id   int // condition or decision ID
	val  int // condition value (0/1) or outcome index
}

// feed applies one event to a recorder.
func feed(r *Recorder, ev probeEvent) {
	switch ev.kind {
	case evStep:
		r.BeginStep()
	case evCond:
		r.Cond(ev.id, ev.val != 0)
	case evOutcome:
		r.Outcome(ev.id, ev.val)
	}
}

// slotOf is the branch slot an event hits (-1 for a step boundary).
func slotOf(p *Plan, ev probeEvent) int {
	switch ev.kind {
	case evCond:
		return p.Conds[ev.id].BranchBase + 1 - ev.val
	case evOutcome:
		return p.Decisions[ev.id].OutcomeBase + ev.val
	}
	return -1
}

// evaluation is one logged decision outcome with the condition vector in
// force when it resolved.
type evaluation struct{ vec, outcome int }

// refVector is the condition vector of the outcome event at log[i]: bit s
// holds the last value logged for the decision's condition in slot s since
// the decision's previous outcome or the step boundary, whichever is later;
// a condition not logged in that window reads false.
func refVector(p *Plan, log []probeEvent, i int) int {
	dec := log[i].id
	from := i
	for from > 0 {
		ev := log[from-1]
		if ev.kind == evStep || ev.kind == evOutcome && ev.id == dec {
			break
		}
		from--
	}
	vec := 0
	for _, ev := range log[from:i] {
		if ev.kind != evCond || p.Conds[ev.id].DecisionID != dec {
			continue
		}
		bit := 1 << p.Conds[ev.id].Slot
		if ev.val != 0 {
			vec |= bit
		} else {
			vec &^= bit
		}
	}
	return vec
}

// refFold derives, from independent logs (each replayed from a fresh
// recorder), the slots ever hit and every decision's set of distinct
// (vector, outcome) evaluations.
func refFold(p *Plan, logs ...[]probeEvent) (total []bool, evals []map[evaluation]bool) {
	total = make([]bool, p.NumBranches)
	evals = make([]map[evaluation]bool, len(p.Decisions))
	for d := range evals {
		evals[d] = map[evaluation]bool{}
	}
	for _, log := range logs {
		for i, ev := range log {
			if b := slotOf(p, ev); b >= 0 {
				total[b] = true
			}
			if ev.kind == evOutcome && len(p.Decisions[ev.id].CondIDs) > 0 {
				evals[ev.id][evaluation{refVector(p, log, i), ev.val}] = true
			}
		}
	}
	return total, evals
}

// refReport computes Report's figures from the logs: outcome and condition
// slots hit over all slots, and, per decision, the conditions for which
// some two logged evaluations differ in that condition alone and resolve to
// different outcomes (unique cause, found by trying every pair) over all
// its conditions.
func refReport(p *Plan, logs ...[]probeEvent) Report {
	total, evals := refFold(p, logs...)
	rep := Report{ModelName: p.ModelName}
	for _, d := range p.Decisions {
		missing := false
		for b := d.OutcomeBase; b < d.OutcomeBase+d.NumOutcomes; b++ {
			rep.DecisionTotal++
			if total[b] {
				rep.DecisionCovered++
			} else {
				missing = true
			}
		}
		if missing {
			rep.UncoveredDecisions = append(rep.UncoveredDecisions, d.Label)
		}
	}
	for _, c := range p.Conds {
		for _, b := range []int{c.BranchBase, c.BranchBase + 1} {
			rep.CondTotal++
			if total[b] {
				rep.CondCovered++
			}
		}
	}
	for _, d := range p.Decisions {
		rep.MCDCTotal += len(d.CondIDs)
		rep.MCDCCovered += refPairs(p, &d, evals[d.ID])
	}
	return rep
}

// refPairs counts the conditions of d for which some two evaluations differ
// in that condition alone and resolve to different outcomes.
func refPairs(p *Plan, d *Decision, evals map[evaluation]bool) int {
	n := 0
	for _, cid := range d.CondIDs {
		pair := false
		for a := range evals {
			for b := range evals {
				if a.vec^b.vec == 1<<p.Conds[cid].Slot && a.outcome != b.outcome {
					pair = true
				}
			}
		}
		if pair {
			n++
		}
	}
	return n
}

// probeStream draws a seeded event stream shaped by p: steps of decision
// evaluations, each its conditions' probes and then its outcome. Vectors
// often repeat the decision's previous one with one condition flipped, so
// unique-cause pairs occur even on wide decisions, and outcomes mostly
// follow a fixed per-decision function of the vector. The stream also has
// the irregular orders a recorder must get right: a condition left out or
// evaluated twice, a decision's conditions with no outcome after them (so
// they interleave with the next decision's), and a decision evaluated more
// than once per step.
func probeStream(rng *rand.Rand, p *Plan, steps int) []probeEvent {
	salt := make([]uint64, len(p.Decisions))
	prev := make([]int, len(p.Decisions))
	for i := range salt {
		salt[i] = rng.Uint64()
	}
	var log []probeEvent
	for s := 0; s < steps; s++ {
		log = append(log, probeEvent{kind: evStep})
		for k := rng.Intn(2*len(p.Decisions) + 2); k > 0; k-- {
			d := &p.Decisions[rng.Intn(len(p.Decisions))]
			n := len(d.CondIDs)
			vec := rng.Intn(1 << n)
			if n > 0 && rng.Intn(2) == 0 {
				vec = prev[d.ID] ^ 1<<rng.Intn(n)
			}
			prev[d.ID] = vec
			for slot, cid := range d.CondIDs {
				if rng.Intn(10) == 0 {
					continue
				}
				v := vec >> slot & 1
				if rng.Intn(12) == 0 {
					log = append(log, probeEvent{evCond, cid, 1 - v})
				}
				log = append(log, probeEvent{evCond, cid, v})
			}
			if rng.Intn(10) == 0 {
				continue
			}
			out := int((uint64(vec)*0x9e3779b97f4a7c15^salt[d.ID])>>33) % d.NumOutcomes
			if rng.Intn(8) == 0 {
				out = rng.Intn(d.NumOutcomes)
			}
			log = append(log, probeEvent{evOutcome, d.ID, out})
		}
	}
	return log
}

// refCurr packs the slots the events of one step hit.
func refCurr(p *Plan, step []probeEvent) []uint64 {
	set := make([]uint64, words(p.NumBranches))
	for _, ev := range step {
		if b := slotOf(p, ev); b >= 0 {
			set[b>>6] |= 1 << (b & 63)
		}
	}
	return set
}

// replay feeds a log to r, checking Curr against the reference at the end
// of every step.
func replay(t *testing.T, name string, p *Plan, r *Recorder, log []probeEvent) {
	t.Helper()
	start := 0
	for i := 0; i <= len(log); i++ {
		if i == len(log) || log[i].kind == evStep && i > 0 {
			if want := refCurr(p, log[start:i]); !reflect.DeepEqual(r.Curr, want) {
				t.Fatalf("%s: Curr after event %d = %#x, reference %#x", name, i-1, r.Curr, want)
			}
			start = i
		}
		if i < len(log) {
			feed(r, log[i])
		}
	}
}

// checkAgainst compares r's Report and Total with the reference over logs.
func checkAgainst(t *testing.T, name string, p *Plan, r *Recorder, logs ...[]probeEvent) {
	t.Helper()
	if got, want := r.Report(), refReport(p, logs...); !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: Report\n %+v\nreference\n %+v", name, got, want)
	}
	total, _ := refFold(p, logs...)
	for b, hit := range total {
		want := uint8(0)
		if hit {
			want = 1
		}
		if r.Total[b] != want {
			t.Fatalf("%s: Total[%d] = %d, reference %d", name, b, r.Total[b], want)
		}
	}
}

// widePlan is a synthetic plan with decisions on both sides of the packed
// key-space bound: a 16-condition boolean decision (2<<16 keys, above
// maxVectorsPerDecision), a 15-condition one (exactly at it), a 4-outcome
// decision with 2 conditions, and a condition-free switch.
func widePlan() *Plan {
	p := &Plan{ModelName: "Wide"}
	for _, shape := range []struct{ conds, outcomes int }{{16, 2}, {3, 2}, {0, 3}, {15, 2}, {2, 4}} {
		d := p.newDecision("dec", KindLogic, shape.outcomes, shape.outcomes == 2)
		for i := 0; i < shape.conds; i++ {
			p.newCond(d.ID, "cond")
		}
	}
	return p
}

// oraclePlans returns the plans the oracle runs on: the 8 benchmark plans
// and widePlan.
func oraclePlans(t *testing.T) map[string]*Plan {
	t.Helper()
	plans := benchPlans(t)
	plans["Wide"] = widePlan()
	return plans
}

// TestRecorderMatchesReference feeds the Recorder and the reference the
// same seeded event streams and requires the same per-step Curr, Total and
// Report; then the same for Merge of two recorders against the union of
// their logs, and for a recorder reused after ResetAll. No stream comes
// near maxVectorsPerDecision distinct keys on one decision, the only bound
// the reference does not model.
func TestRecorderMatchesReference(t *testing.T) {
	for name, p := range oraclePlans(t) {
		for seed := int64(1); seed <= 3; seed++ {
			rng := rand.New(rand.NewSource(seed))
			a, b := probeStream(rng, p, 150), probeStream(rng, p, 150)

			ra, rb := NewRecorder(p), NewRecorder(p)
			replay(t, name, p, ra, a)
			checkAgainst(t, name, p, ra, a)
			replay(t, name, p, rb, b)
			checkAgainst(t, name, p, rb, b)

			ra.Merge(rb)
			checkAgainst(t, name+" merged", p, ra, a, b)
			checkAgainst(t, name+" merge source", p, rb, b)

			ra.ResetAll()
			replay(t, name+" after reset", p, ra, b)
			checkAgainst(t, name+" after reset", p, ra, b)
		}
	}
}

// TestReferenceSeesMCDC guards the oracle itself: on the wide plan its
// streams must credit some but not all MCDC pairs on the map-held decision
// and on the packed ones, or the comparison above would be vacuous.
func TestReferenceSeesMCDC(t *testing.T) {
	p := widePlan()
	_, evals := refFold(p, probeStream(rand.New(rand.NewSource(1)), p, 150))
	for _, d := range p.Decisions {
		if len(d.CondIDs) == 0 {
			continue
		}
		if n := refPairs(p, &d, evals[d.ID]); n == 0 || n == len(d.CondIDs) && len(d.CondIDs) > 3 {
			t.Errorf("decision %d (%d conditions, %d distinct evaluations): %d conditions paired",
				d.ID, len(d.CondIDs), len(evals[d.ID]), n)
		}
	}
}
