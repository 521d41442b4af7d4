package analysis_test

import (
	"math/rand"
	"testing"

	"cftcg/internal/analysis"
	"cftcg/internal/coverage"
	"cftcg/internal/ir"
	"cftcg/internal/model"
	"cftcg/internal/vm"
)

// TestDeadSoundnessDifferential is the soundness property test: random
// straight-line IR programs over two int8 inputs, probed like the lowering
// probes real branches, brute-forced over the entire 65536-point input space
// on the VM. The abstract interpretation must never claim dead an outcome
// the VM records — unsound dead-marking would silently inflate coverage.
func TestDeadSoundnessDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(20260806))
	programs := 40
	if testing.Short() {
		programs = 8
	}
	for n := 0; n < programs; n++ {
		p, plan := randomProbedProgram(rng)
		if err := analysis.VerifyStrict(p, plan); err != nil {
			t.Fatalf("program %d: generator emitted invalid IR: %v", n, err)
		}
		dead := make(map[int]bool)
		for _, slot := range analysis.DeadObjectives(p, plan) {
			dead[slot] = true
		}
		rec := coverage.NewRecorder(plan)
		m := vm.New(p, rec)
		in := make([]uint64, 2)
		for x := 0; x < 256; x++ {
			for y := 0; y < 256; y++ {
				in[0] = model.EncodeInt(model.Int8, int64(int8(x)))
				in[1] = model.EncodeInt(model.Int8, int64(int8(y)))
				if err := m.Init(); err != nil {
					t.Fatal(err)
				}
				rec.BeginStep()
				if err := m.Step(in); err != nil {
					t.Fatal(err)
				}
			}
		}
		for slot, v := range rec.Snapshot() {
			if v != 0 && dead[slot] {
				t.Fatalf("program %d: branch %d reachable (VM hit it) but analysis claims dead\nstep: %+v",
					n, slot, p.Step)
			}
		}
	}
}

// randomProbedProgram generates a random well-formed program: a straight
// line of int8 arithmetic and comparisons over two inputs, with every bool
// value probed through the same jump patterns the lowering emits for
// decisions and conditions.
func randomProbedProgram(rng *rand.Rand) (*ir.Program, *coverage.Plan) {
	i8 := model.Int8
	var code []ir.Instr
	var intRegs, boolRegs []int32
	next := int32(0)
	newReg := func() int32 { r := next; next++; return r }
	emit := func(in ir.Instr) { code = append(code, in) }

	r0, r1 := newReg(), newReg()
	emit(ir.Instr{Op: ir.OpLoadIn, DT: i8, Dst: r0, Imm: 0})
	emit(ir.Instr{Op: ir.OpLoadIn, DT: i8, Dst: r1, Imm: 1})
	intRegs = append(intRegs, r0, r1)

	pickInt := func() int32 { return intRegs[rng.Intn(len(intRegs))] }
	for k := 0; k < 8+rng.Intn(10); k++ {
		switch rng.Intn(10) {
		case 0, 1, 2: // binary arithmetic
			binOps := []ir.Op{ir.OpAdd, ir.OpSub, ir.OpMul, ir.OpMin, ir.OpMax, ir.OpDiv}
			d := newReg()
			emit(ir.Instr{Op: binOps[rng.Intn(len(binOps))], DT: i8, Dst: d, A: pickInt(), B: pickInt()})
			intRegs = append(intRegs, d)
		case 3: // unary
			unOps := []ir.Op{ir.OpNeg, ir.OpAbs, ir.OpMov}
			d := newReg()
			emit(ir.Instr{Op: unOps[rng.Intn(len(unOps))], DT: i8, Dst: d, A: pickInt()})
			intRegs = append(intRegs, d)
		case 4: // constant
			d := newReg()
			emit(ir.Instr{Op: ir.OpConst, DT: i8, Dst: d, Imm: model.EncodeInt(i8, rng.Int63n(256)-128)})
			intRegs = append(intRegs, d)
		case 5, 6, 7: // comparison -> bool
			cmpOps := []ir.Op{ir.OpLt, ir.OpLe, ir.OpGt, ir.OpGe, ir.OpEq, ir.OpNe}
			d := newReg()
			emit(ir.Instr{Op: cmpOps[rng.Intn(len(cmpOps))], DT: i8, Dst: d, A: pickInt(), B: pickInt()})
			boolRegs = append(boolRegs, d)
		case 8: // logic on bools
			if len(boolRegs) < 2 {
				continue
			}
			lOps := []ir.Op{ir.OpAnd, ir.OpOr, ir.OpXor}
			d := newReg()
			emit(ir.Instr{Op: lOps[rng.Intn(len(lOps))], DT: model.Bool, Dst: d,
				A: boolRegs[rng.Intn(len(boolRegs))], B: boolRegs[rng.Intn(len(boolRegs))]})
			boolRegs = append(boolRegs, d)
		case 9: // select
			if len(boolRegs) == 0 {
				continue
			}
			d := newReg()
			emit(ir.Instr{Op: ir.OpSelect, DT: i8, Dst: d,
				A: boolRegs[rng.Intn(len(boolRegs))], B: pickInt(), C: pickInt()})
			intRegs = append(intRegs, d)
		}
	}

	// Probe a handful of bool values exactly like the lowering does: a
	// condition probe plus the two-outcome decision jump diamond.
	plan := &coverage.Plan{ModelName: "rand"}
	probes := 1 + rng.Intn(3)
	for d := 0; d < probes && len(boolRegs) > 0; d++ {
		cond := boolRegs[rng.Intn(len(boolRegs))]
		decID := len(plan.Decisions)
		condID := len(plan.Conds)
		plan.Decisions = append(plan.Decisions, coverage.Decision{
			ID: decID, Label: "d", NumOutcomes: 2, OutcomeBase: plan.NumBranches,
			Boolean: true, CondIDs: []int{condID},
		})
		plan.NumBranches += 2
		plan.Conds = append(plan.Conds, coverage.Cond{
			ID: condID, DecisionID: decID, Label: "c", BranchBase: plan.NumBranches,
		})
		plan.NumBranches += 2
		emit(ir.Instr{Op: ir.OpCondProbe, A: int32(condID), B: cond})
		jmpPC := len(code)
		emit(ir.Instr{Op: ir.OpJmpIfNot, A: cond})            // patched
		emit(ir.Instr{Op: ir.OpProbe, A: int32(decID), B: 1}) // true outcome
		jmp2PC := len(code)
		emit(ir.Instr{Op: ir.OpJmp}) // patched
		code[jmpPC].Imm = uint64(len(code))
		emit(ir.Instr{Op: ir.OpProbe, A: int32(decID), B: 0}) // false outcome
		code[jmp2PC].Imm = uint64(len(code))
	}
	emit(ir.Instr{Op: ir.OpStoreOut, DT: i8, A: pickInt(), Imm: 0})

	p := &ir.Program{
		Name:    "rand",
		Init:    []ir.Instr{{Op: ir.OpHalt}},
		Step:    code,
		NumRegs: int(next),
		In: []model.Field{
			{Name: "a", Type: i8, Offset: 0},
			{Name: "b", Type: i8, Offset: 1},
		},
		Out: []model.Field{{Name: "y", Type: i8, Offset: 0}},
	}
	return p, plan
}
