package fuzz

import (
	"math/rand"
	"slices"
	"testing"

	"cftcg/internal/benchmodels"
	"cftcg/internal/codegen"
	"cftcg/internal/coverage"
)

// benchCompiled compiles one built-in benchmark model.
func benchCompiled(t *testing.T, name string) *codegen.Compiled {
	t.Helper()
	e, err := benchmodels.Get(name)
	if err != nil {
		t.Fatal(err)
	}
	c, err := codegen.Compile(e.Build())
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// randomSet draws a packed set over n slots, each slot set with
// probability 1/den.
func randomSet(rng *rand.Rand, n, den int) []uint64 {
	set := make([]uint64, (n+63)/64)
	for b := 0; b < n; b++ {
		if rng.Intn(den) == 0 {
			set[b>>6] |= 1 << (b & 63)
		}
	}
	return set
}

func unpack(set []uint64, n int) []bool {
	out := make([]bool, n)
	for b := range out {
		out[b] = set[b>>6]&(1<<(b&63)) != 0
	}
	return out
}

// TestFeedbackScanMatchesBytewise checks the packed per-step scan against
// the slot-at-a-time loop it replaced, over random curr/last/seen/mask sets
// at slot counts on both sides of every word boundary. Metric, newAny,
// newMasked, the new last and seen sets, and the ascending order in which
// slots were first hit must all match.
func TestFeedbackScanMatchesBytewise(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, n := range []int{1, 63, 64, 65, 127, 128, 208} {
		for trial := 0; trial < 50; trial++ {
			e := &Engine{
				prog: coverage.NewProgress(&coverage.Plan{NumBranches: n}),
				mask: randomSet(rng, n, 1+rng.Intn(3)),
				last: randomSet(rng, n, 2),
			}
			copy(e.prog.Seen, randomSet(rng, n, 1+rng.Intn(8)))
			mask, last, seen := unpack(e.mask, n), unpack(e.last, n), unpack(e.prog.Seen, n)

			// Step 0 is the scan of Init's coverage: it absorbs new slots
			// but neither reads nor updates last.
			for step := 0; step < 8; step++ {
				curr := randomSet(rng, n, 1+rng.Intn(16))
				hit := unpack(curr, n)

				// Byte-wise reference: Algorithm 1's loop, one slot at a time.
				var metric, newMasked, newAny int
				var order []int
				for b, c := range hit {
					if c && !seen[b] {
						seen[b] = true
						order = append(order, b)
						newAny++
						if mask[b] {
							newMasked++
						}
					}
					if step > 0 && c != last[b] {
						metric++
						last[b] = c
					}
				}

				before := unpack(e.prog.Seen, n)
				var gotMetric, gotMasked, gotAny int
				if step == 0 {
					gotMasked, gotAny = e.absorb(curr)
				} else {
					gotMetric, gotMasked, gotAny = e.feedback(curr)
				}
				var gotOrder []int
				for b, s := range unpack(e.prog.Seen, n) {
					if s && !before[b] {
						gotOrder = append(gotOrder, b)
					}
				}
				if gotMetric != metric || gotMasked != newMasked || gotAny != newAny {
					t.Fatalf("n=%d trial %d step %d: (metric, newMasked, newAny) = (%d, %d, %d), want (%d, %d, %d)",
						n, trial, step, gotMetric, gotMasked, gotAny, metric, newMasked, newAny)
				}
				if !slices.Equal(gotOrder, order) {
					t.Fatalf("n=%d trial %d step %d: first hits %v, want %v", n, trial, step, gotOrder, order)
				}
				if !slices.Equal(unpack(e.last, n), last) || !slices.Equal(unpack(e.prog.Seen, n), seen) {
					t.Fatalf("n=%d trial %d step %d: last or seen diverges from the reference", n, trial, step)
				}
			}
		}
	}
}
