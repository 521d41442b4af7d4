package fuzz

import (
	"sort"

	"cftcg/internal/codegen"
	"cftcg/internal/coverage"
	"cftcg/internal/model"
	"cftcg/internal/testcase"
	"cftcg/internal/vm"
)

// Minimize greedily reduces a test suite to a subset with the same model
// coverage: cases are replayed in descending new-branch order and kept only
// when they contribute at least one branch the kept set has not reached.
// The classic test-suite reduction pass a generation tool runs before
// handing the suite to engineers.
func Minimize(c *codegen.Compiled, cases []testcase.Case) []testcase.Case {
	rec := coverage.NewRecorder(c.Plan)
	m := vm.NewThreadedFromCode(c.Threaded(), rec)
	tuple := c.Prog.TupleSize()
	fields := c.Prog.In
	in := make([]uint64, len(fields))

	// coverageOf replays one case into a fresh per-case bitmap. A case that
	// hangs mid-replay keeps the coverage accumulated up to the abort.
	coverageOf := func(data []byte) []uint8 {
		bits := make([]uint8, c.Plan.NumBranches)
		if m.Init() != nil {
			return bits
		}
		n := 0
		if tuple > 0 {
			n = len(data) / tuple
		}
		for it := 0; it < n; it++ {
			base := it * tuple
			for fi, f := range fields {
				in[fi] = model.GetRaw(f.Type, data[base+f.Offset:])
			}
			rec.BeginStep()
			err := m.Step(in)
			for b, v := range rec.Curr {
				if v != 0 {
					bits[b] = 1
				}
			}
			if err != nil {
				break
			}
		}
		return bits
	}

	type scored struct {
		tc   testcase.Case
		bits []uint8
	}
	all := make([]scored, len(cases))
	for i, tc := range cases {
		all[i] = scored{tc: tc, bits: coverageOf(tc.Data)}
	}
	// Largest contributors first makes the greedy pass effective.
	sort.SliceStable(all, func(i, j int) bool {
		return count(all[i].bits) > count(all[j].bits)
	})

	kept := make([]testcase.Case, 0, len(cases))
	covered := make([]uint8, c.Plan.NumBranches)
	for _, s := range all {
		adds := false
		for b, v := range s.bits {
			if v != 0 && covered[b] == 0 {
				adds = true
				break
			}
		}
		if !adds {
			continue
		}
		for b, v := range s.bits {
			if v != 0 {
				covered[b] = 1
			}
		}
		kept = append(kept, s.tc)
	}
	return kept
}

func count(bits []uint8) int {
	n := 0
	for _, v := range bits {
		if v != 0 {
			n++
		}
	}
	return n
}

// Trim shortens one test case while preserving its coverage: tuples are
// removed in halving passes (drop the back half, the front half, then
// single tuples) and a removal is kept only if the case still covers every
// branch it covered before. The per-input analogue of suite minimization —
// what LibFuzzer's -minimize_crash does for crashes, applied to coverage.
func Trim(c *codegen.Compiled, data []byte) []byte {
	tuple := c.Prog.TupleSize()
	if tuple == 0 || len(data) < 2*tuple {
		return data
	}
	rec := coverage.NewRecorder(c.Plan)
	m := vm.NewThreadedFromCode(c.Threaded(), rec)
	fields := c.Prog.In
	in := make([]uint64, len(fields))

	coverageOf := func(d []byte) []uint8 {
		bits := make([]uint8, c.Plan.NumBranches)
		if m.Init() != nil {
			return bits
		}
		for it := 0; it < len(d)/tuple; it++ {
			base := it * tuple
			for fi, f := range fields {
				in[fi] = model.GetRaw(f.Type, d[base+f.Offset:])
			}
			rec.BeginStep()
			err := m.Step(in)
			for b, v := range rec.Curr {
				if v != 0 {
					bits[b] = 1
				}
			}
			if err != nil {
				break
			}
		}
		return bits
	}
	covers := func(have, want []uint8) bool {
		for b, v := range want {
			if v != 0 && have[b] == 0 {
				return false
			}
		}
		return true
	}

	want := coverageOf(data)
	cur := append([]byte(nil), data...)

	// Halving passes from the back, then the front.
	for len(cur) >= 2*tuple {
		nt := len(cur) / tuple
		half := (nt / 2) * tuple
		if half == 0 {
			break
		}
		if cand := cur[:len(cur)-half]; covers(coverageOf(cand), want) {
			cur = append([]byte(nil), cand...)
			continue
		}
		if cand := cur[half:]; covers(coverageOf(cand), want) {
			cur = append([]byte(nil), cand...)
			continue
		}
		break
	}
	// Single-tuple removal sweep.
	for i := 0; i < len(cur)/tuple; {
		cand := make([]byte, 0, len(cur)-tuple)
		cand = append(cand, cur[:i*tuple]...)
		cand = append(cand, cur[(i+1)*tuple:]...)
		if len(cand) > 0 && covers(coverageOf(cand), want) {
			cur = cand
			continue // same index now holds the next tuple
		}
		i++
	}
	return cur
}
