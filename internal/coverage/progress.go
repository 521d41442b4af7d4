package coverage

import (
	"math/bits"
	"sync"
)

// Progress incrementally tracks campaign coverage percentages so timeline
// sampling stays cheap (no MCDC pairing per sample).
type Progress struct {
	// Seen is every branch slot absorbed so far, packed like Recorder.Curr:
	// slot b is bit b&63 of word b>>6.
	Seen []uint64

	// outcome is the packed mask of the decision-outcome slots.
	outcome         []uint64
	covOut, covCond int
	totOut, totCond int
}

// NewProgress creates a progress tracker for a plan.
func NewProgress(p *Plan) *Progress {
	n := words(p.NumBranches)
	pr := &Progress{
		Seen:    make([]uint64, n),
		outcome: make([]uint64, n),
		totCond: 2 * len(p.Conds),
	}
	for i := range p.Decisions {
		d := &p.Decisions[i]
		for k := 0; k < d.NumOutcomes; k++ {
			b := d.OutcomeBase + k
			pr.outcome[b>>6] |= 1 << (b & 63)
		}
		pr.totOut += d.NumOutcomes
	}
	return pr
}

// Absorb folds a packed slot set — one iteration's Recorder.Curr, or
// another tracker's Seen — into the campaign view, 64 slots per word, and
// returns how many branch slots were newly covered.
func (pr *Progress) Absorb(set []uint64) int {
	n := 0
	for w, c := range set {
		nb := c &^ pr.Seen[w]
		if nb == 0 {
			continue
		}
		pr.Seen[w] |= nb
		out := bits.OnesCount64(nb & pr.outcome[w])
		all := bits.OnesCount64(nb)
		pr.covOut += out
		pr.covCond += all - out
		n += all
	}
	return n
}

// Has reports whether branch slot b has been absorbed.
func (pr *Progress) Has(b int) bool { return pr.Seen[b>>6]&(1<<(b&63)) != 0 }

// Decision returns the current Decision Coverage percentage.
func (pr *Progress) Decision() float64 {
	if pr.totOut == 0 {
		return 100
	}
	return 100 * float64(pr.covOut) / float64(pr.totOut)
}

// Condition returns the current Condition Coverage percentage.
func (pr *Progress) Condition() float64 {
	if pr.totCond == 0 {
		return 100
	}
	return 100 * float64(pr.covCond) / float64(pr.totCond)
}

// Covered returns the number of branch slots covered so far.
func (pr *Progress) Covered() int { return pr.covOut + pr.covCond }

// SharedProgress is a mutex-guarded Progress for use as the global coverage
// view of a multi-shard campaign: every shard folds its packed covered-branch
// set in from its own goroutine, and the status plane reads percentages
// concurrently. Absorb's return value — how many slots were *globally* new —
// is what the campaign counts as a campaign-wide discovery.
type SharedProgress struct {
	mu sync.Mutex
	pr *Progress
}

// NewShared creates a thread-safe progress tracker for a plan.
func NewShared(p *Plan) *SharedProgress {
	return &SharedProgress{pr: NewProgress(p)}
}

// Absorb folds a packed covered-branch set into the global view, returning
// how many branch slots were new to the whole campaign.
func (sp *SharedProgress) Absorb(seen []uint64) int {
	sp.mu.Lock()
	defer sp.mu.Unlock()
	return sp.pr.Absorb(seen)
}

// Decision returns the global Decision Coverage percentage.
func (sp *SharedProgress) Decision() float64 {
	sp.mu.Lock()
	defer sp.mu.Unlock()
	return sp.pr.Decision()
}

// Condition returns the global Condition Coverage percentage.
func (sp *SharedProgress) Condition() float64 {
	sp.mu.Lock()
	defer sp.mu.Unlock()
	return sp.pr.Condition()
}

// Covered returns the number of branch slots covered campaign-wide.
func (sp *SharedProgress) Covered() int {
	sp.mu.Lock()
	defer sp.mu.Unlock()
	return sp.pr.Covered()
}
