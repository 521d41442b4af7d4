package mutate

import (
	"testing"

	"cftcg/internal/benchmodels"
	"cftcg/internal/fuzz"
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

	// Mutating a dead store is output-equivalent.
	mut := cloneProgram(orig)
	mut.Step[1].Imm = 99
	if !proveMutantEquivalent(orig, mut, "step", 1) {
		t.Error("dead-store mutant not proved equivalent")
	}

	// Mutating unreachable code is output-equivalent.
	mut2 := cloneProgram(orig)
	mut2.Step[3].Imm = 42
	if !proveMutantEquivalent(orig, mut2, "step", 3) {
		t.Error("unreachable-code mutant not proved equivalent")
	}

	// Mutating the live computation is not.
	mut3 := cloneProgram(orig)
	mut3.Step[0] = ti(ir.OpConst, i32, 0, 0, 0, 5)
	if proveMutantEquivalent(orig, mut3, "step", 0) {
		t.Error("live-code mutant wrongly proved equivalent")
	}
}

// TestProverNeverProvesKilledMutant checks the prover against an oracle
// that shares none of its reasoning: concrete execution. A mutant the fuzzed
// suite killed produced a divergent output, probe stream or termination on
// some input, so it is observably different from the original and a proof
// of equivalence for it is unsound.
func TestProverNeverProvesKilledMutant(t *testing.T) {
	names := []string{"CPUTask", "TCP", "SolarPV"}
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
		eng, err := fuzz.NewEngine(c, fuzz.Options{Seed: 1, MaxExecs: 3000})
		if err != nil {
			t.Fatal(err)
		}
		var suite [][]byte
		for _, cs := range eng.Run().Suite.Cases {
			suite = append(suite, cs.Data)
		}
		muts := Generate(c, m, Config{Limit: 40})
		rep := Run(c, muts, suite, RunConfig{})
		checked := 0
		for i, mu := range muts {
			res := rep.Results[i]
			if !res.Killed || !mu.SamePlan {
				continue
			}
			checked++
			if proveMutantEquivalent(c.Prog, mu.Prog, mu.Func, mu.PC) {
				t.Errorf("%s: mutant %d (%s) was killed (%s, case %d) but proved equivalent",
					name, mu.ID, mu.Site, res.Reason, res.KilledBy)
			}
		}
		if checked == 0 {
			t.Fatalf("%s: the suite killed no same-plan mutant; nothing was checked", name)
		}
		t.Logf("%s: checked %d killed same-plan mutants", name, checked)
	}
}
