package analysis_test

import (
	"math"
	"math/rand"
	"testing"

	"cftcg/internal/analysis"
	"cftcg/internal/interval"
	"cftcg/internal/ir"
	"cftcg/internal/model"
	"cftcg/internal/vm"
)

// evalShape is one register-pure opcode at one typing: the instruction
// (operands in registers 0, 1, 2), the type each operand is read in, and the
// type its result word is decoded in.
type evalShape struct {
	ins      ir.Instr
	operands []model.DType
	result   model.DType
}

// evalShapes lists every register-pure opcode at every type the VM accepts,
// under Eval's documented preconditions: OpTruth and OpCast read their
// operand as DT2, logic operands and select conditions are canonical bools,
// bit operations are integer (or bool) typed and math is float typed.
func evalShapes() []evalShape {
	var out []evalShape
	add := func(op ir.Op, dt, dt2, result model.DType, operands ...model.DType) {
		out = append(out, evalShape{
			ins:      ir.Instr{Op: op, DT: dt, DT2: dt2, Dst: 3, A: 0, B: 1, C: 2},
			operands: operands,
			result:   result,
		})
	}
	b := model.Bool
	for _, op := range []ir.Op{ir.OpAnd, ir.OpOr, ir.OpXor} {
		add(op, b, b, b, b, b)
	}
	add(ir.OpNot, b, b, b, b)
	for dt := model.DType(0); dt.Valid(); dt++ {
		add(ir.OpConst, dt, dt, dt)
		add(ir.OpMov, dt, dt, dt, dt)
		add(ir.OpNeg, dt, dt, dt, dt)
		add(ir.OpAbs, dt, dt, dt, dt)
		for _, op := range []ir.Op{ir.OpAdd, ir.OpSub, ir.OpMul, ir.OpDiv, ir.OpMin, ir.OpMax} {
			add(op, dt, dt, dt, dt, dt)
		}
		for _, op := range []ir.Op{ir.OpEq, ir.OpNe, ir.OpLt, ir.OpLe, ir.OpGt, ir.OpGe} {
			add(op, dt, dt, b, dt, dt)
		}
		add(ir.OpTruth, b, dt, b, dt)
		add(ir.OpSelect, dt, dt, dt, b, dt, dt)
		for from := model.DType(0); from.Valid(); from++ {
			add(ir.OpCast, dt, from, dt, from)
		}
		if dt.IsInteger() || dt == b {
			for _, op := range []ir.Op{ir.OpBitAnd, ir.OpBitOr, ir.OpBitXor, ir.OpShl, ir.OpShr} {
				add(op, dt, dt, dt, dt, dt)
			}
		}
		if dt.IsFloat() {
			for _, op := range []ir.Op{ir.OpSqrt, ir.OpExp, ir.OpLog, ir.OpSin, ir.OpCos, ir.OpTan,
				ir.OpFloor, ir.OpCeil, ir.OpRound, ir.OpTrunc} {
				add(op, dt, dt, dt, dt)
			}
		}
	}
	return out
}

var floatSpecials = []float64{
	0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1), math.NaN(),
	math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64,
	math.SmallestNonzeroFloat32, -math.SmallestNonzeroFloat32,
	3.4e38, -3.4e38, 1, -1, 0.5, 0.1, 3,
}

// rawWord draws one machine word of type dt: type bounds, small values and
// uniform draws for integers, canonical 0/1 for bools, and for floats the
// IEEE corner cases, random magnitudes and raw bit patterns.
func rawWord(rng *rand.Rand, dt model.DType) uint64 {
	switch {
	case dt == model.Bool:
		return uint64(rng.Intn(2))
	case dt.IsInteger():
		switch rng.Intn(4) {
		case 0:
			return model.EncodeInt(dt, dt.MinInt())
		case 1:
			return model.EncodeInt(dt, dt.MaxInt())
		case 2:
			return model.EncodeInt(dt, int64(rng.Intn(7)-3))
		}
		return model.EncodeInt(dt, dt.MinInt()+rng.Int63n(dt.MaxInt()-dt.MinInt()+1))
	}
	switch rng.Intn(4) {
	case 0, 1:
		return model.EncodeFloat(dt, floatSpecials[rng.Intn(len(floatSpecials))])
	case 2:
		return model.EncodeFloat(dt, (2*rng.Float64()-1)*math.Pow(10, float64(rng.Intn(24)-12)))
	}
	if dt == model.Float32 {
		return uint64(rng.Uint32())
	}
	return rng.Uint64()
}

// hull is the Value of a set of words: the interval over the decoded
// non-NaN ones plus the NaN flag, or Top when every word is a NaN.
func hull(dt model.DType, words []uint64) analysis.Value {
	v := analysis.Value{Itv: interval.Span(math.Inf(1), math.Inf(-1))}
	for _, w := range words {
		x := model.Decode(dt, w)
		if math.IsNaN(x) {
			v.NaN = true
			continue
		}
		v.Itv = interval.Span(math.Min(v.Itv.Lo, x), math.Max(v.Itv.Hi, x))
	}
	if v.Itv.Lo > v.Itv.Hi {
		return analysis.Top()
	}
	return v
}

// pickInside draws a concrete word described by v: one of the words v was
// built from, or a point between its bounds.
func pickInside(rng *rand.Rand, dt model.DType, words []uint64, v analysis.Value) uint64 {
	lo, hi := v.Itv.Lo, v.Itv.Hi
	if rng.Intn(2) == 0 || lo == hi || math.IsInf(lo, 0) || math.IsInf(hi, 0) {
		return words[rng.Intn(len(words))]
	}
	u := rng.Float64()
	raw := model.Encode(dt, lo*(1-u)+hi*u)
	if x := model.Decode(dt, raw); x < lo || x > hi { // Float32 re-rounding
		return words[rng.Intn(len(words))]
	}
	return raw
}

// TestEvalSoundAgainstVM checks the one abstract transfer function that the
// dead-objective pass and the mutant equivalence prover share against an
// oracle sharing none of its rules: the VM's concrete vm.EvalPure. Operand
// Values are hulls of random words; for a concrete operand inside each, the
// VM's result must decode inside Eval's interval, and may be a NaN only
// where Eval's NaN flag is set.
func TestEvalSoundAgainstVM(t *testing.T) {
	perShape := 2000
	if testing.Short() {
		perShape = 400
	}
	shapes := evalShapes()
	tested := map[ir.Op]bool{}
	for _, sh := range shapes {
		tested[sh.ins.Op] = true
	}
	for op := ir.OpNop; op <= ir.OpHalt; op++ {
		if _, pure := vm.EvalPure(&ir.Instr{Op: op}, func(int32) uint64 { return 0 }); pure && !tested[op] {
			t.Fatalf("register-pure opcode %s has no shape", op)
		}
	}
	rng := rand.New(rand.NewSource(20261017))
	var vals [3]analysis.Value
	var conc [3]uint64
	for _, sh := range shapes {
		ins := sh.ins
		for k := 0; k < perShape; k++ {
			if ins.Op == ir.OpConst {
				ins.Imm = rawWord(rng, ins.DT)
			}
			for i, dt := range sh.operands {
				words := make([]uint64, 1+rng.Intn(3))
				for j := range words {
					words[j] = rawWord(rng, dt)
				}
				vals[i] = hull(dt, words)
				conc[i] = pickInside(rng, dt, words, vals[i])
				if rng.Intn(8) == 0 {
					vals[i].NaN = true // a coarser Value must stay sound too
				}
			}
			got := analysis.Eval(&ins, func(r int32) analysis.Value { return vals[r] })
			raw, ok := vm.EvalPure(&ins, func(r int32) uint64 { return conc[r] })
			if !ok {
				t.Fatalf("%s %s/%s: vm.EvalPure refuses a register-pure opcode", ins.Op, ins.DT, ins.DT2)
			}
			x := model.Decode(sh.result, raw)
			if math.IsNaN(x) && got.NaN || x >= got.Itv.Lo && x <= got.Itv.Hi {
				continue
			}
			t.Fatalf("%s %s/%s: VM result %v (raw %#x) outside Eval's %+v\noperands %+v = raw %#x",
				ins.Op, ins.DT, ins.DT2, x, raw, got, vals[:len(sh.operands)], conc[:len(sh.operands)])
		}
	}
}
