package coverage

import (
	"math/bits"
	"math/rand"
	"sync"
	"testing"

	"cftcg/internal/benchmodels"
	"cftcg/internal/blocks"
)

// benchPlans builds the plan of every built-in benchmark model: real slot
// layouts from 38 to 208 branch slots, most of them ending mid-word.
func benchPlans(t *testing.T) map[string]*Plan {
	t.Helper()
	plans := map[string]*Plan{}
	for _, name := range benchmodels.Names() {
		e, err := benchmodels.Get(name)
		if err != nil {
			t.Fatal(err)
		}
		d, err := blocks.Resolve(e.Build())
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		p, _, err := Build(d)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if p.BranchCount() != p.NumBranches {
			t.Fatalf("%s: BranchCount %d, NumBranches %d", name, p.BranchCount(), p.NumBranches)
		}
		plans[name] = p
	}
	return plans
}

// tailClear reports whether no bit at or above n is set in a packed set
// sized for n slots.
func tailClear(set []uint64, n int) bool {
	if len(set) != words(n) {
		return false
	}
	return n&63 == 0 || set[len(set)-1]>>(n&63) == 0
}

// randomStep replays one iteration of random probe calls into r and
// returns the byte-wise reference of the slots it hit.
func randomStep(rng *rand.Rand, p *Plan, r *Recorder) []bool {
	hit := make([]bool, p.NumBranches)
	r.BeginStep()
	for k := rng.Intn(3 * (len(p.Decisions) + 1)); k > 0; k-- {
		if len(p.Conds) > 0 && rng.Intn(2) == 0 {
			c := &p.Conds[rng.Intn(len(p.Conds))]
			v := rng.Intn(2) == 0
			r.Cond(c.ID, v)
			if v {
				hit[c.BranchBase] = true
			} else {
				hit[c.BranchBase+1] = true
			}
			continue
		}
		d := p.Decision(rng.Intn(len(p.Decisions)))
		out := rng.Intn(d.NumOutcomes)
		r.Outcome(d.ID, out)
		hit[d.OutcomeBase+out] = true
	}
	return hit
}

// TestRecorderPackedCurr drives every benchmark plan's recorder with random
// probe streams and checks the packed per-step set against a byte-wise
// reference: Hit matches it slot for slot, no bit at or above NumBranches is
// ever set, the first step's Hit agrees with Total, and BeginStep clears
// every word.
func TestRecorderPackedCurr(t *testing.T) {
	for name, p := range benchPlans(t) {
		rng := rand.New(rand.NewSource(int64(p.NumBranches)))
		r := NewRecorder(p)
		if r.Plan() != p {
			t.Fatalf("%s: Plan() is not the recorder's plan", name)
		}
		for step := 0; step < 200; step++ {
			hit := randomStep(rng, p, r)
			for b, want := range hit {
				if r.Hit(b) != want {
					t.Fatalf("%s step %d: Hit(%d) = %v, want %v", name, step, b, r.Hit(b), want)
				}
				if want && r.Total[b] == 0 {
					t.Fatalf("%s step %d: slot %d hit but not in Total", name, step, b)
				}
				if step == 0 && r.Hit(b) != (r.Total[b] != 0) {
					t.Fatalf("%s: after one step Hit(%d) = %v but Total = %d", name, b, r.Hit(b), r.Total[b])
				}
			}
			if !tailClear(r.Curr, p.NumBranches) {
				t.Fatalf("%s step %d: bits set at or above slot %d: %#x", name, step, p.NumBranches, r.Curr)
			}
		}

		// Every probe at once fills exactly NumBranches bits.
		r.BeginStep()
		for _, d := range p.Decisions {
			for k := 0; k < d.NumOutcomes; k++ {
				r.Outcome(d.ID, k)
			}
		}
		for _, c := range p.Conds {
			r.Cond(c.ID, true)
			r.Cond(c.ID, false)
		}
		n := 0
		for _, w := range r.Curr {
			n += bits.OnesCount64(w)
		}
		if n != p.NumBranches || !tailClear(r.Curr, p.NumBranches) {
			t.Fatalf("%s: all probes set %d bits (tail clear %v), want exactly %d",
				name, n, tailClear(r.Curr, p.NumBranches), p.NumBranches)
		}
		if r.CoveredBranches() != p.NumBranches {
			t.Fatalf("%s: Total covers %d of %d slots", name, r.CoveredBranches(), p.NumBranches)
		}
		r.BeginStep()
		for w, v := range r.Curr {
			if v != 0 {
				t.Fatalf("%s: BeginStep left word %d = %#x", name, w, v)
			}
		}
		if snap := r.Snapshot(); len(snap) != p.NumBranches || &snap[0] == &r.Total[0] {
			t.Fatalf("%s: Snapshot must be a copy of Total", name)
		}
	}
}

// TestProgressAbsorbMatchesBytewise folds random packed sets into a Progress
// and checks every count against a slot-by-slot reference.
func TestProgressAbsorbMatchesBytewise(t *testing.T) {
	for name, p := range benchPlans(t) {
		rng := rand.New(rand.NewSource(int64(len(p.Decisions))))
		outcome := make([]bool, p.NumBranches)
		for _, d := range p.Decisions {
			for k := 0; k < d.NumOutcomes; k++ {
				outcome[d.OutcomeBase+k] = true
			}
		}
		pr := NewProgress(p)
		seen := make([]bool, p.NumBranches)
		covOut, covCond := 0, 0
		for round := 0; round < 50; round++ {
			set := make([]uint64, words(p.NumBranches))
			want := 0
			for b := 0; b < p.NumBranches; b++ {
				if rng.Intn(16) != 0 {
					continue
				}
				set[b>>6] |= 1 << (b & 63)
				if seen[b] {
					continue
				}
				seen[b] = true
				want++
				if outcome[b] {
					covOut++
				} else {
					covCond++
				}
			}
			if got := pr.Absorb(set); got != want {
				t.Fatalf("%s round %d: Absorb = %d, want %d", name, round, got, want)
			}
			for b := range seen {
				if pr.Has(b) != seen[b] {
					t.Fatalf("%s round %d: Has(%d) = %v, want %v", name, round, b, pr.Has(b), seen[b])
				}
			}
			if pr.covOut != covOut || pr.covCond != covCond || pr.Covered() != covOut+covCond {
				t.Fatalf("%s round %d: counters %d/%d, want %d/%d", name, round, pr.covOut, pr.covCond, covOut, covCond)
			}
		}
	}
}

// TestSharedProgressConcurrent: shards absorbing overlapping packed sets
// from their own goroutines count every slot globally once.
func TestSharedProgressConcurrent(t *testing.T) {
	p, _ := planFor(t, logicModel(t))
	sp := NewShared(p)
	full := make([]uint64, words(p.NumBranches))
	for b := 0; b < p.NumBranches; b++ {
		full[b>>6] |= 1 << (b & 63)
	}
	var wg sync.WaitGroup
	var mu sync.Mutex
	total := 0
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			n := sp.Absorb(full)
			_ = sp.Decision() + sp.Condition()
			mu.Lock()
			total += n
			mu.Unlock()
		}()
	}
	wg.Wait()
	if total != p.NumBranches || sp.Covered() != p.NumBranches {
		t.Errorf("shards counted %d new slots (covered %d), want %d", total, sp.Covered(), p.NumBranches)
	}
	if sp.Decision() != 100 || sp.Condition() != 100 {
		t.Errorf("shared progress: decision %v, condition %v", sp.Decision(), sp.Condition())
	}
}
