package mutate

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"cftcg/internal/analysis"
	"cftcg/internal/benchmodels"
	"cftcg/internal/fuzz"
	"cftcg/internal/interval"
	"cftcg/internal/ir"
	"cftcg/internal/model"
)

func ti(op ir.Op, dt model.DType, dst, a, b int32, imm uint64) ir.Instr {
	return ir.Instr{Op: op, DT: dt, Dst: dst, A: a, B: b, Imm: imm}
}

func tprog(numRegs, numState int, init, step []ir.Instr) *ir.Program {
	return &ir.Program{
		Name:     "tiny",
		Init:     init,
		Step:     step,
		NumRegs:  numRegs,
		NumState: numState,
		In:       []model.Field{{Name: "u", Type: model.Int32}},
		Out:      []model.Field{{Name: "y", Type: model.Int32, Offset: 0}},
	}
}

func TestProveEquivIdenticalPrograms(t *testing.T) {
	i32 := model.Int32
	mk := func() *ir.Program {
		return tprog(3, 1, []ir.Instr{
			ti(ir.OpConst, i32, 0, 0, 0, 0),
			ti(ir.OpStoreState, i32, 0, 0, 0, 0),
		}, []ir.Instr{
			ti(ir.OpLoadIn, i32, 0, 0, 0, 0),
			ti(ir.OpLoadState, i32, 1, 0, 0, 0),
			ti(ir.OpAdd, i32, 2, 0, 1, 0),
			ti(ir.OpStoreState, i32, 0, 2, 0, 0),
			ti(ir.OpStoreOut, i32, 0, 2, 0, 0),
		})
	}
	if !proveEquiv(mk(), mk()) {
		t.Fatal("identical programs not proved equivalent")
	}
}

func TestProveEquivDeadStoreRemoval(t *testing.T) {
	i32 := model.Int32
	orig := tprog(3, 0, nil, []ir.Instr{
		ti(ir.OpLoadIn, i32, 0, 0, 0, 0),
		ti(ir.OpConst, i32, 1, 0, 0, 7), // dead: r1 never read
		ti(ir.OpStoreOut, i32, 0, 0, 0, 0),
	})
	mod := cloneProgram(orig)
	mod.Step[1] = ir.Instr{Op: ir.OpNop}
	if !proveEquiv(orig, mod) {
		t.Fatal("dead-store removal not proved equivalent")
	}
}

func TestProveEquivRejectsOutputChange(t *testing.T) {
	i32 := model.Int32
	orig := tprog(2, 0, nil, []ir.Instr{
		ti(ir.OpConst, i32, 0, 0, 0, 7),
		ti(ir.OpStoreOut, i32, 0, 0, 0, 0),
	})
	mod := cloneProgram(orig)
	mod.Step[0].Imm = 8
	if proveEquiv(orig, mod) {
		t.Fatal("output-changing rewrite proved equivalent")
	}
}

func TestProveEquivRejectsProbeChange(t *testing.T) {
	i32 := model.Int32
	mk := func(outcome int32) *ir.Program {
		return tprog(2, 0, nil, []ir.Instr{
			ti(ir.OpLoadIn, i32, 0, 0, 0, 0),
			{Op: ir.OpProbe, A: 0, B: outcome},
			ti(ir.OpStoreOut, i32, 0, 0, 0, 0),
		})
	}
	if proveEquiv(mk(0), mk(1)) {
		t.Fatal("probe-changing rewrite proved equivalent")
	}
}

func TestProveMutantEquivalentQuickRules(t *testing.T) {
	i32 := model.Int32
	orig := tprog(3, 0, nil, []ir.Instr{
		ti(ir.OpLoadIn, i32, 0, 0, 0, 0),
		ti(ir.OpConst, i32, 1, 0, 0, 7), // dead store
		ti(ir.OpJmp, 0, 0, 0, 0, 4),
		ti(ir.OpConst, i32, 0, 0, 0, 9), // unreachable
		ti(ir.OpStoreOut, i32, 0, 0, 0, 0),
	})

	o := newOriginal(orig)

	// Mutating a dead store is output-equivalent.
	mut := cloneProgram(orig)
	mut.Step[1].Imm = 99
	if !o.equivalent(mut, "step", 1) {
		t.Error("dead-store mutant not proved equivalent")
	}

	// Mutating unreachable code is output-equivalent.
	mut2 := cloneProgram(orig)
	mut2.Step[3].Imm = 42
	if !o.equivalent(mut2, "step", 3) {
		t.Error("unreachable-code mutant not proved equivalent")
	}

	// Mutating the live computation is not.
	mut3 := cloneProgram(orig)
	mut3.Step[0] = ti(ir.OpConst, i32, 0, 0, 0, 5)
	if o.equivalent(mut3, "step", 0) {
		t.Error("live-code mutant wrongly proved equivalent")
	}
}

// TestProverNeverProvesKilledMutant checks the prover against an oracle
// that shares none of its reasoning: concrete execution. A mutant the fuzzed
// suite killed produced a divergent output, probe stream or termination on
// some input, so it is observably different from the original and a proof
// of equivalence for it is unsound. It scores the default `cftcg mutate`
// pool (100 mutants, a 5000-exec suite, seed 1) of every benchmark model and
// pins the equivalent counts: every provable mutant of a pool survives any
// suite, so the counts do not depend on the suite.
func TestProverNeverProvesKilledMutant(t *testing.T) {
	wantEquivalent := map[string]int{
		"CPUTask": 7, "AFC": 5, "TCP": 6, "RAC": 5, "EVCS": 3, "TWC": 4, "UTPC": 1, "SolarPV": 12,
	}
	names := benchmodels.Names()
	if testing.Short() {
		names = []string{"SolarPV"}
	}
	for _, name := range names {
		e, err := benchmodels.Get(name)
		if err != nil {
			t.Fatal(err)
		}
		m := e.Build()
		c := compile(t, m)
		eng, err := fuzz.NewEngine(c, fuzz.Options{Seed: 1, MaxExecs: 5000})
		if err != nil {
			t.Fatal(err)
		}
		var suite [][]byte
		for _, cs := range eng.Run().Suite.Cases {
			suite = append(suite, cs.Data)
		}
		muts := Generate(c, m, Config{Limit: 100, Seed: 1})
		rep := Run(c, muts, suite, RunConfig{})
		orig := newOriginal(c.Prog)
		checked := 0
		for i, mu := range muts {
			res := rep.Results[i]
			if !res.Killed || !mu.SamePlan {
				continue
			}
			checked++
			if orig.equivalent(mu.Prog, mu.Func, mu.PC) {
				t.Errorf("%s: mutant %d (%s) was killed (%s, case %d) but proved equivalent",
					name, mu.ID, mu.Site, res.Reason, res.KilledBy)
			}
		}
		if checked == 0 {
			t.Fatalf("%s: the suite killed no same-plan mutant; nothing was checked", name)
		}
		if got := rep.Summary.Equivalent; got != wantEquivalent[name] {
			t.Errorf("%s: %d mutants proved equivalent, want %d", name, got, wantEquivalent[name])
		}
		t.Logf("%s: checked %d killed same-plan mutants, %d equivalent", name, checked, rep.Summary.Equivalent)
	}
}

// randPenv draws a joint environment from values that stress the join:
// ±0, ±Inf and huge bounds, NaN flags, known raw words and eq bits.
func randPenv(rng *rand.Rand, regs, state int) *penv {
	bounds := []float64{math.Inf(-1), -1e9, -5, -1, math.Copysign(0, -1), 0, 0.5, 1, 3, 1e9, math.Inf(1)}
	side := func() av {
		if rng.Intn(4) == 0 {
			return fromRaw(model.Int32, uint64(rng.Intn(3)))
		}
		lo, hi := bounds[rng.Intn(len(bounds))], bounds[rng.Intn(len(bounds))]
		if lo > hi {
			lo, hi = hi, lo
		}
		return av{Value: analysis.Value{Itv: interval.Span(lo, hi), NaN: rng.Intn(3) == 0}}
	}
	cells := func(n int) []pv {
		out := make([]pv, n)
		for i := range out {
			out[i] = pv{l: side(), r: side(), eq: rng.Intn(2) == 0}
		}
		return out
	}
	return &penv{regs: cells(regs), state: cells(state)}
}

// TestJoinIntoMatchesCloneJoin holds the in-place join to the clone, join,
// widen and compare it replaced: the same changed verdict and the same
// environment, cell for cell.
func TestJoinIntoMatchesCloneJoin(t *testing.T) {
	reference := func(dst, src *penv, widen bool) (*penv, bool) {
		joined := dst.clone()
		cells := func(out, old, s []pv) {
			for i := range out {
				out[i] = pv{l: old[i].l.join(s[i].l), r: old[i].r.join(s[i].r), eq: old[i].eq && s[i].eq}
				if widen {
					out[i].l.Value = out[i].l.Widen(old[i].l.Value)
					out[i].r.Value = out[i].r.Widen(old[i].r.Value)
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
	rng := rand.New(rand.NewSource(5))
	changes := 0
	for trial := 0; trial < 2000; trial++ {
		dst := randPenv(rng, 6, 3)
		src := dst.clone()
		// Redraw a random subset of cells, none at all in some trials.
		other := randPenv(rng, 6, 3)
		for i := range src.regs {
			if rng.Intn(4) == 0 {
				src.regs[i] = other.regs[i]
			}
		}
		for i := range src.state {
			if rng.Intn(4) == 0 {
				src.state[i] = other.state[i]
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
