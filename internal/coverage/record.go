package coverage

// Recorder accumulates coverage during execution. It is shared by the fast
// VM (compiled fuzz code) and the interpretive simulator, which is what lets
// the differential tests compare the two paths bit-for-bit.
//
// Per step, Curr mirrors the paper's g_CurrCov array: Hit(branch) reports
// whether that branch element triggered during the current model iteration.
// The cumulative Total array and the per-decision condition-vector sets (for
// MCDC) persist across the whole campaign.
type Recorder struct {
	plan *Plan

	// Curr is the per-iteration branch hit set (g_CurrCov), packed: slot b is
	// bit b&63 of word b>>6, and bits at or above NumBranches stay clear.
	// Packing lets the engine's per-step feedback scan and BeginStep work 64
	// slots per word.
	Curr []uint64
	// Total is the cumulative branch hit array (g_TotalCov).
	Total []uint8

	// condVec holds, per decision, the condition values observed since the
	// decision last resolved (bit per condition slot).
	condVec []uint32
	// vecs records, per decision, the set of (condition vector, outcome)
	// pairs seen — the raw material for MCDC pairing. Bounded per decision.
	vecs []map[uint64]struct{}
	// lastVec caches, per decision, the most recent (vector, outcome) key
	// plus one (0 = none). Decisions resolve the same way step after step on
	// most inputs, so this single entry skips the map insert — the hottest
	// operation in VM profiles — in the common case. Purely an accelerator:
	// it only elides inserts of keys already present in vecs.
	lastVec []uint64

	// condMeta/decMeta flatten the plan fields Cond and Outcome touch into
	// compact contiguous records. Plan entries carry labels and slices the
	// hot path never reads; chasing them costs a cache miss per probe.
	condMeta []condMeta
	decMeta  []decMeta
}

type condMeta struct {
	branchBase uint32
	decID      uint32
	bit        uint32 // 1 << slot
}

type decMeta struct {
	outcomeBase uint32
	hasConds    bool
}

// maxVectorsPerDecision bounds MCDC bookkeeping per decision. 1<<16 packed
// vectors cover every decision with up to 16 conditions exhaustively.
const maxVectorsPerDecision = 1 << 16

// NewRecorder creates a recorder for the given plan.
func NewRecorder(p *Plan) *Recorder {
	r := &Recorder{
		plan:    p,
		Curr:    make([]uint64, words(p.NumBranches)),
		Total:   make([]uint8, p.NumBranches),
		condVec: make([]uint32, len(p.Decisions)),
		vecs:    make([]map[uint64]struct{}, len(p.Decisions)),
		lastVec: make([]uint64, len(p.Decisions)),

		condMeta: make([]condMeta, len(p.Conds)),
		decMeta:  make([]decMeta, len(p.Decisions)),
	}
	for i := range r.vecs {
		r.vecs[i] = make(map[uint64]struct{})
	}
	for i := range p.Conds {
		c := &p.Conds[i]
		r.condMeta[i] = condMeta{
			branchBase: uint32(c.BranchBase),
			decID:      uint32(c.DecisionID),
			bit:        uint32(1) << uint(c.Slot),
		}
	}
	for i := range p.Decisions {
		d := &p.Decisions[i]
		r.decMeta[i] = decMeta{
			outcomeBase: uint32(d.OutcomeBase),
			hasConds:    len(d.CondIDs) > 0,
		}
	}
	return r
}

// Plan returns the plan this recorder was built for.
func (r *Recorder) Plan() *Plan { return r.plan }

// words is the length of a packed slot set over n branch slots.
func words(n int) int { return (n + 63) >> 6 }

// Hit reports whether branch slot b triggered during the current iteration.
func (r *Recorder) Hit(b int) bool { return r.Curr[b>>6]&(1<<(b&63)) != 0 }

// BeginStep clears the per-iteration coverage (Algorithm 1 line 11).
func (r *Recorder) BeginStep() {
	clear(r.Curr)
	clear(r.condVec)
}

// Cond records one condition evaluation: both the branch hit (true or false
// polarity) and the bit in the owning decision's condition vector.
func (r *Recorder) Cond(condID int, v bool) {
	c := r.condMeta[condID]
	branch := c.branchBase
	if !v {
		branch++
	}
	r.Curr[branch>>6] |= 1 << (branch & 63)
	r.Total[branch] = 1
	if v {
		r.condVec[c.decID] |= c.bit
	} else {
		r.condVec[c.decID] &^= c.bit
	}
}

// Outcome records a decision resolving to the given outcome index, snapshots
// the condition vector for MCDC, and resets the vector for the next
// evaluation. This is the paper's CoverageStatistics() entry point.
func (r *Recorder) Outcome(decID, outcome int) {
	d := r.decMeta[decID]
	branch := int(d.outcomeBase) + outcome
	r.Curr[branch>>6] |= 1 << (branch & 63)
	r.Total[branch] = 1
	if d.hasConds {
		key := uint64(r.condVec[decID]) | uint64(outcome)<<32
		if r.lastVec[decID] != key+1 {
			set := r.vecs[decID]
			if len(set) < maxVectorsPerDecision {
				set[key] = struct{}{}
				r.lastVec[decID] = key + 1
			}
		}
		r.condVec[decID] = 0
	}
}

// ResetAll clears all accumulated coverage (between campaigns).
func (r *Recorder) ResetAll() {
	r.BeginStep()
	for i := range r.Total {
		r.Total[i] = 0
	}
	for i := range r.vecs {
		r.vecs[i] = make(map[uint64]struct{})
	}
	clear(r.lastVec)
}

// CoveredBranches counts branch IDs hit so far.
func (r *Recorder) CoveredBranches() int {
	n := 0
	for _, v := range r.Total {
		if v != 0 {
			n++
		}
	}
	return n
}

// Merge folds another recorder's cumulative coverage into r (used to average
// repeated campaigns or to union per-worker results).
func (r *Recorder) Merge(other *Recorder) {
	for i, v := range other.Total {
		if v != 0 {
			r.Total[i] = 1
		}
	}
	for d, set := range other.vecs {
		dst := r.vecs[d]
		for k := range set {
			if len(dst) >= maxVectorsPerDecision {
				break
			}
			dst[k] = struct{}{}
		}
	}
}

// Snapshot returns a copy of the cumulative branch array.
func (r *Recorder) Snapshot() []uint8 {
	out := make([]uint8, len(r.Total))
	copy(out, r.Total)
	return out
}
