package coverage

// Recorder accumulates coverage during execution. It is shared by the fast
// VM (compiled fuzz code) and the interpretive simulator, which is what lets
// the differential tests compare the two paths bit-for-bit.
//
// Per step, Curr mirrors the paper's g_CurrCov array: Hit(branch) reports
// whether that branch element triggered during the current model iteration.
// The cumulative Total array and the set of (outcome, condition vector) keys
// every decision resolved with (for MCDC) persist across the whole campaign.
type Recorder struct {
	plan *Plan

	// Curr is the per-iteration branch hit set (g_CurrCov), packed: slot b is
	// bit b&63 of word b>>6, and bits at or above NumBranches stay clear.
	// Packing lets the engine's per-step feedback scan and BeginStep work 64
	// slots per word.
	Curr []uint64
	// Total is the cumulative branch hit array (g_TotalCov), written on
	// every probe: callers read it after a step with no BeginStep after it.
	Total []uint8

	// condVec holds, per decision, the condition values observed since the
	// decision last resolved (bit per condition slot).
	condVec []uint32
	// keys is the packed set of (outcome, condition vector) keys seen, the
	// raw material for MCDC pairing. A decision with n conditions whose key
	// space NumOutcomes<<n fits in maxVectorsPerDecision owns that many bits
	// from its decMeta.base on, and key (o, v) is bit base + (o<<n | v).
	keys []uint64
	// wide holds the keys of the decisions too wide to pack, one set of at
	// most maxVectorsPerDecision keys each, as uint64(o)<<32 | v.
	wide []map[uint64]struct{}

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
	// base is the decision's first bit in keys (keysPacked) or its index in
	// wide (keysWide).
	base  uint32
	conds uint8 // condition count n: key (o, v) packs as o<<n | v
	store keyStore
}

// keyStore says where a decision's MCDC keys live.
type keyStore uint8

const (
	keysNone   keyStore = iota // no conditions, no MCDC keys
	keysPacked                 // bits in Recorder.keys
	keysWide                   // a bounded set in Recorder.wide
)

// maxVectorsPerDecision bounds MCDC bookkeeping per decision: a decision
// whose NumOutcomes<<n keys fit is packed, so the bound never binds on it,
// and a wider one records at most this many keys.
const maxVectorsPerDecision = 1 << 16

// NewRecorder creates a recorder for the given plan.
func NewRecorder(p *Plan) *Recorder {
	r := &Recorder{
		plan:    p,
		Curr:    make([]uint64, words(p.NumBranches)),
		Total:   make([]uint8, p.NumBranches),
		condVec: make([]uint32, len(p.Decisions)),

		condMeta: make([]condMeta, len(p.Conds)),
		decMeta:  make([]decMeta, len(p.Decisions)),
	}
	for i := range p.Conds {
		c := &p.Conds[i]
		r.condMeta[i] = condMeta{
			branchBase: uint32(c.BranchBase),
			decID:      uint32(c.DecisionID),
			bit:        uint32(1) << uint(c.Slot),
		}
	}
	nkeys := 0
	for i := range p.Decisions {
		d := &p.Decisions[i]
		n := len(d.CondIDs)
		m := decMeta{outcomeBase: uint32(d.OutcomeBase), conds: uint8(n)}
		switch {
		case n == 0:
		case n <= 16 && d.NumOutcomes<<n <= maxVectorsPerDecision:
			m.store, m.base = keysPacked, uint32(nkeys)
			nkeys += d.NumOutcomes << n
		default:
			m.store, m.base = keysWide, uint32(len(r.wide))
			r.wide = append(r.wide, make(map[uint64]struct{}))
		}
		r.decMeta[i] = m
	}
	r.keys = make([]uint64, words(nkeys))
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

// Outcome records a decision resolving to the given outcome index, records
// the condition vector's key for MCDC, and resets the vector for the next
// evaluation. This is the paper's CoverageStatistics() entry point.
func (r *Recorder) Outcome(decID, outcome int) {
	d := &r.decMeta[decID]
	branch := int(d.outcomeBase) + outcome
	r.Curr[branch>>6] |= 1 << (branch & 63)
	r.Total[branch] = 1
	if d.store == keysNone {
		return
	}
	v := r.condVec[decID]
	r.condVec[decID] = 0
	if d.store == keysPacked {
		k := d.base + (uint32(outcome)<<d.conds | v)
		r.keys[k>>6] |= 1 << (k & 63)
		return
	}
	if set := r.wide[d.base]; len(set) < maxVectorsPerDecision {
		set[uint64(outcome)<<32|uint64(v)] = struct{}{}
	}
}

// ResetAll clears all accumulated coverage (between campaigns).
func (r *Recorder) ResetAll() {
	r.BeginStep()
	clear(r.Total)
	clear(r.keys)
	for _, set := range r.wide {
		clear(set)
	}
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
// repeated campaigns or to union per-worker results). Both must be built
// for the same plan.
func (r *Recorder) Merge(other *Recorder) {
	for i, v := range other.Total {
		if v != 0 {
			r.Total[i] = 1
		}
	}
	for w, k := range other.keys {
		r.keys[w] |= k
	}
	for i, set := range other.wide {
		dst := r.wide[i]
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
