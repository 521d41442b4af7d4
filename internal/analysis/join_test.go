package analysis

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"cftcg/internal/interval"
)

// TestEnvJoinIntoMatchesCloneJoin holds the dead-objective pass' in-place
// join to the clone, join, widen and compare it replaced: the same changed
// verdict and the same environment, cell for cell, on random environments
// with ±0, ±Inf and huge bounds and NaN flags.
func TestEnvJoinIntoMatchesCloneJoin(t *testing.T) {
	bounds := []float64{math.Inf(-1), -1e9, -5, math.Copysign(0, -1), 0, 0.5, 3, 1e9, math.Inf(1)}
	rng := rand.New(rand.NewSource(3))
	value := func() Value {
		lo, hi := bounds[rng.Intn(len(bounds))], bounds[rng.Intn(len(bounds))]
		if lo > hi {
			lo, hi = hi, lo
		}
		return Value{Itv: interval.Span(lo, hi), NaN: rng.Intn(3) == 0}
	}
	randEnv := func() *env {
		e := &env{regs: make([]Value, 6), state: make([]Value, 3)}
		for i := range e.regs {
			e.regs[i] = value()
		}
		for i := range e.state {
			e.state[i] = value()
		}
		return e
	}
	reference := func(dst, src *env, widen bool) (*env, bool) {
		joined := dst.clone()
		cells := func(out, old, s []Value) {
			for i := range out {
				out[i] = old[i].Join(s[i])
				if widen {
					out[i] = out[i].Widen(old[i])
				}
			}
		}
		cells(joined.regs, dst.regs, src.regs)
		cells(joined.state, dst.state, src.state)
		if slices.Equal(joined.regs, dst.regs) && slices.Equal(joined.state, dst.state) {
			return dst, false
		}
		return joined, true
	}
	changes := 0
	for trial := 0; trial < 2000; trial++ {
		dst := randEnv()
		src := dst.clone()
		// Redraw a random subset of cells, none at all in some trials.
		for i := range src.regs {
			if rng.Intn(4) == 0 {
				src.regs[i] = value()
			}
		}
		for i := range src.state {
			if rng.Intn(4) == 0 {
				src.state[i] = value()
			}
		}
		for _, widen := range []bool{false, true} {
			want, wantChanged := reference(dst, src, widen)
			got := dst.clone()
			changed := got.joinInto(src, widen)
			if changed != wantChanged || !slices.Equal(got.regs, want.regs) || !slices.Equal(got.state, want.state) {
				t.Fatalf("trial %d, widen %v: joinInto = %v %+v, reference = %v %+v",
					trial, widen, changed, got, wantChanged, want)
			}
			if changed {
				changes++
			}
		}
	}
	if changes == 0 {
		t.Fatal("no trial changed the environment; the test exercises nothing")
	}
}
