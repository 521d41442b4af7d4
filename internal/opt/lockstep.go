package opt

import (
	"fmt"
	"math/rand"
	"slices"

	"cftcg/internal/coverage"
	"cftcg/internal/ir"
	"cftcg/internal/model"
	"cftcg/internal/vm"
)

// Lockstep runs two programs in VM lockstep over the given corpus cases plus
// randomCases seeded random byte-stream cases, comparing per step the raw
// output words, the per-step probe bitmap, and the termination behavior
// (both hang or neither). It is the differential half of the translation
// validator: exact where the abstract product proof is conservative, but
// only as strong as the inputs it runs. A nil error means no divergence was
// observed.
func Lockstep(l, r *ir.Program, plan *coverage.Plan, cases [][]byte, randomCases, maxSteps int, seed int64) error {
	if l.TupleSize() != r.TupleSize() || len(l.In) != len(r.In) || len(l.Out) != len(r.Out) {
		return fmt.Errorf("opt: lockstep: input/output layouts differ")
	}
	if maxSteps <= 0 {
		maxSteps = 48
	}
	tuple := l.TupleSize()
	all := append([][]byte(nil), cases...)
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < randomCases; i++ {
		n := (1 + rng.Intn(maxSteps)) * tuple
		data := make([]byte, n)
		for j := range data {
			data[j] = byte(rng.Intn(256))
		}
		all = append(all, data)
	}

	var lrec, rrec *coverage.Recorder
	if plan != nil {
		lrec = coverage.NewRecorder(plan)
		rrec = coverage.NewRecorder(plan)
	}
	lm := vm.New(l, lrec)
	rm := vm.New(r, rrec)

	for ci, data := range all {
		le, re := lm.Init(), rm.Init()
		if (le == nil) != (re == nil) {
			return fmt.Errorf("opt: lockstep: case %d: init termination diverges (%v vs %v)", ci, le, re)
		}
		if le != nil {
			continue // both hung in init: equivalent on this case
		}
		steps := 0
		if tuple > 0 {
			steps = len(data) / tuple
		}
		if steps > maxSteps {
			steps = maxSteps
		}
		in := make([]uint64, len(l.In))
		for si := 0; si < steps; si++ {
			base := si * tuple
			for fi, f := range l.In {
				in[fi] = model.GetRaw(f.Type, data[base+f.Offset:])
			}
			if lrec != nil {
				lrec.BeginStep()
				rrec.BeginStep()
			}
			le, re = lm.Step(in), rm.Step(in)
			if (le == nil) != (re == nil) {
				return fmt.Errorf("opt: lockstep: case %d step %d: termination diverges (%v vs %v)", ci, si, le, re)
			}
			if le != nil {
				break // both hung at the same step
			}
			if !rawsEqual(lm.Out(), rm.Out()) {
				return fmt.Errorf("opt: lockstep: case %d step %d: outputs diverge (%v vs %v)", ci, si, lm.Out(), rm.Out())
			}
			if lrec != nil && !slices.Equal(lrec.Curr, rrec.Curr) {
				return fmt.Errorf("opt: lockstep: case %d step %d: probe streams diverge", ci, si)
			}
		}
	}
	return nil
}

func rawsEqual(a, b []uint64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
