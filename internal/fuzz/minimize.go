package fuzz

import (
	"math/bits"
	"sort"

	"cftcg/internal/codegen"
	"cftcg/internal/coverage"
	"cftcg/internal/testcase"
	"cftcg/internal/vm"
)

// Minimize greedily reduces a test suite to a subset with the same model
// coverage: cases are replayed in descending new-branch order and kept only
// when they contribute at least one branch the kept set has not reached.
// The classic test-suite reduction pass a generation tool runs before
// handing the suite to engineers.
func Minimize(c *codegen.Compiled, cases []testcase.Case) []testcase.Case {
	coverageOf := caseCoverage(c)
	type scored struct {
		tc  testcase.Case
		set []uint64
	}
	all := make([]scored, len(cases))
	for i, tc := range cases {
		all[i] = scored{tc: tc, set: coverageOf(tc.Data)}
	}
	// Largest contributors first makes the greedy pass effective.
	sort.SliceStable(all, func(i, j int) bool {
		return count(all[i].set) > count(all[j].set)
	})

	kept := make([]testcase.Case, 0, len(cases))
	covered := make([]uint64, (c.Plan.NumBranches+63)/64) // packed like the case sets
	for _, s := range all {
		if covers(covered, s.set) {
			continue
		}
		for w, hit := range s.set {
			covered[w] |= hit
		}
		kept = append(kept, s.tc)
	}
	return kept
}

// caseCoverage returns a replay function over c's threaded code: it runs one
// case and returns the packed set of branch slots its steps hit (Init's
// coverage is not counted). A case that hangs mid-replay keeps the coverage
// accumulated up to the abort.
func caseCoverage(c *codegen.Compiled) func(data []byte) []uint64 {
	rec := coverage.NewRecorder(c.Plan)
	m := vm.NewThreadedFromCode(c.Threaded(), rec)
	lay := c.Prog.Layout()
	in := make([]uint64, len(lay.Fields))
	return func(data []byte) []uint64 {
		set := make([]uint64, len(rec.Curr))
		if m.Init() != nil {
			return set
		}
		for it := 0; it < lay.Steps(data); it++ {
			lay.Decode(in, data, it)
			rec.BeginStep()
			err := m.Step(in)
			for w, hit := range rec.Curr {
				set[w] |= hit
			}
			if err != nil {
				break
			}
		}
		return set
	}
}

// count is the number of slots in a packed slot set.
func count(set []uint64) int {
	n := 0
	for _, w := range set {
		n += bits.OnesCount64(w)
	}
	return n
}

// covers reports whether packed slot set have holds every slot of want.
func covers(have, want []uint64) bool {
	for w, hit := range want {
		if hit&^have[w] != 0 {
			return false
		}
	}
	return true
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
	coverageOf := caseCoverage(c)
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
