package vm

import (
	"fmt"
	"math"
	"testing"

	"cftcg/internal/ir"
	"cftcg/internal/model"
)

// This file pins the exact value semantics of every opcode over every data
// type, on every backend, against an independent reference implementation
// written in plain Go below. The totalization rules the compiler relies on
// are part of the contract: division by zero yields 0, sqrt/log of
// non-positive inputs yield 0, shift amounts are masked with & 31, and
// boolean results are canonical 0/1 words. The matrix also runs the shapes
// the threaded backend has no dense micro-op for, which it executes through
// the reference step (mop.go lists them): every Float32 op, float64 math,
// eq/ne and truth, the shifts, bit-or, bit-xor, unsigned div and integer
// abs, Bool arithmetic and xor, bitwise ops on Bool and floats, casts to Bool
// and to or from Float32, and compares, neg/abs and casts on an invalid type.

var allDTypes = []model.DType{
	model.Bool, model.Int8, model.UInt8, model.Int16, model.UInt16,
	model.Int32, model.UInt32, model.Float32, model.Float64,
}

// valuesFor returns a boundary battery for one type, as raw words.
func valuesFor(dt model.DType) []uint64 {
	if dt == model.Bool {
		return []uint64{0, 1}
	}
	if dt.IsFloat() {
		vals := []float64{0, 1, -1, 0.5, -2.5, 1e30, -1e-3, math.Inf(1), math.Inf(-1)}
		out := make([]uint64, len(vals))
		for i, v := range vals {
			out[i] = model.EncodeFloat(dt, v)
		}
		return out
	}
	vals := []int64{0, 1, -1, 2, 7, -8, 100, math.MinInt32, math.MaxInt32}
	out := make([]uint64, 0, len(vals))
	for _, v := range vals {
		out = append(out, model.EncodeInt(dt, v))
	}
	return out
}

// refArith is the independent golden model for binary arithmetic.
func refArith(op ir.Op, dt model.DType, a, b uint64) uint64 {
	if dt.IsFloat() {
		x, y := model.DecodeFloat(dt, a), model.DecodeFloat(dt, b)
		var v float64
		switch op {
		case ir.OpAdd:
			v = x + y
		case ir.OpSub:
			v = x - y
		case ir.OpMul:
			v = x * y
		case ir.OpDiv:
			if y == 0 {
				v = 0
			} else {
				v = x / y
			}
		case ir.OpMin:
			v = math.Min(x, y)
		case ir.OpMax:
			v = math.Max(x, y)
		}
		return model.EncodeFloat(dt, v)
	}
	x, y := model.DecodeInt(dt, a), model.DecodeInt(dt, b)
	var v int64
	switch op {
	case ir.OpAdd:
		v = x + y
	case ir.OpSub:
		v = x - y
	case ir.OpMul:
		v = x * y
	case ir.OpDiv:
		if y == 0 {
			v = 0
		} else {
			v = x / y
		}
	case ir.OpMin:
		v = min(x, y)
	case ir.OpMax:
		v = max(x, y)
	}
	return model.EncodeInt(dt, v)
}

func refCompare(op ir.Op, dt model.DType, a, b uint64) uint64 {
	var res bool
	if dt.IsFloat() {
		x, y := model.DecodeFloat(dt, a), model.DecodeFloat(dt, b)
		switch op {
		case ir.OpEq:
			res = x == y
		case ir.OpNe:
			res = x != y
		case ir.OpLt:
			res = x < y
		case ir.OpLe:
			res = x <= y
		case ir.OpGt:
			res = x > y
		case ir.OpGe:
			res = x >= y
		}
	} else {
		x, y := model.DecodeInt(dt, a), model.DecodeInt(dt, b)
		switch op {
		case ir.OpEq:
			res = x == y
		case ir.OpNe:
			res = x != y
		case ir.OpLt:
			res = x < y
		case ir.OpLe:
			res = x <= y
		case ir.OpGt:
			res = x > y
		case ir.OpGe:
			res = x >= y
		}
	}
	if res {
		return 1
	}
	return 0
}

func refBit(op ir.Op, dt model.DType, a, b uint64) uint64 {
	x, y := model.DecodeInt(dt, a), model.DecodeInt(dt, b)
	var v int64
	switch op {
	case ir.OpBitAnd:
		v = x & y
	case ir.OpBitOr:
		v = x | y
	case ir.OpBitXor:
		v = x ^ y
	case ir.OpShl:
		v = x << (uint(y) & 31)
	case ir.OpShr:
		v = x >> (uint(y) & 31)
	}
	return model.EncodeInt(dt, v)
}

func refUnary(op ir.Op, dt model.DType, a uint64) uint64 {
	switch op {
	case ir.OpNeg:
		if dt.IsFloat() {
			return model.EncodeFloat(dt, -model.DecodeFloat(dt, a))
		}
		return model.EncodeInt(dt, -model.DecodeInt(dt, a))
	case ir.OpAbs:
		if dt.IsFloat() {
			return model.EncodeFloat(dt, math.Abs(model.DecodeFloat(dt, a)))
		}
		v := model.DecodeInt(dt, a)
		if v < 0 {
			v = -v
		}
		return model.EncodeInt(dt, v)
	case ir.OpNot:
		return (a & 1) ^ 1
	}
	// Float math functions, totalized.
	x := model.Decode(dt, a)
	var v float64
	switch op {
	case ir.OpSqrt:
		if x < 0 {
			v = 0
		} else {
			v = math.Sqrt(x)
		}
	case ir.OpExp:
		v = math.Exp(x)
	case ir.OpLog:
		if x <= 0 {
			v = 0
		} else {
			v = math.Log(x)
		}
	case ir.OpSin:
		v = math.Sin(x)
	case ir.OpCos:
		v = math.Cos(x)
	case ir.OpTan:
		v = math.Tan(x)
	case ir.OpFloor:
		v = math.Floor(x)
	case ir.OpCeil:
		v = math.Ceil(x)
	case ir.OpRound:
		v = math.Round(x)
	case ir.OpTrunc:
		v = math.Trunc(x)
	}
	return model.Encode(dt, v)
}

// unProgram wraps one unary instruction: out0 = op(in0).
func unProgram(op ir.Op, dt, dt2 model.DType) *ir.Program {
	var regs int32
	a := ir.NewAsm(&regs)
	x := a.LoadIn(dt2, 0)
	dst := a.Reg()
	a.Emit(ir.Instr{Op: op, DT: dt, DT2: dt2, Dst: dst, A: x})
	a.StoreOut(0, dst)
	a.Halt()
	init := ir.NewAsm(&regs)
	init.Halt()
	return &ir.Program{
		Name: "un", Init: init.Instrs, Step: a.Instrs, NumRegs: int(regs),
		In:  []model.Field{{Name: "x", Type: dt2}},
		Out: []model.Field{{Name: "o", Type: dt}},
	}
}

// overwriteProgram is binProgram with the result written over the first
// operand's register. A bitwise op on a float type always yields +0, which a
// fresh register already holds; over a loaded operand, an instruction that
// does not execute shows.
func overwriteProgram(op ir.Op, dt model.DType) *ir.Program {
	p := binProgram(op, dt) // loadIn x, loadIn y, op, storeOut, halt
	x := p.Step[0].Dst
	p.Step[2].Dst, p.Step[3].A = x, x
	return p
}

func selectProgram(dt model.DType) *ir.Program {
	var regs int32
	a := ir.NewAsm(&regs)
	c := a.LoadIn(model.Bool, 0)
	x := a.LoadIn(dt, 1)
	y := a.LoadIn(dt, 2)
	a.StoreOut(0, a.Select(dt, c, x, y))
	a.Halt()
	init := ir.NewAsm(&regs)
	init.Halt()
	return &ir.Program{
		Name: "sel", Init: init.Instrs, Step: a.Instrs, NumRegs: int(regs),
		In: []model.Field{
			{Name: "c", Type: model.Bool},
			{Name: "x", Type: dt, Offset: 1},
			{Name: "y", Type: dt, Offset: 1 + dt.Size()},
		},
		Out: []model.Field{{Name: "o", Type: dt}},
	}
}

// stepOnce runs one step of p on backend mk and returns out[0].
func stepOnce(t *testing.T, mk makeBackend, p *ir.Program, in []uint64) uint64 {
	t.Helper()
	m := mk(p, nil)
	if err := m.Init(); err != nil {
		t.Fatal(err)
	}
	if err := m.Step(in); err != nil {
		t.Fatal(err)
	}
	return m.Out()[0]
}

// TestOpcodeSemanticsMatrix runs the exhaustive op x dtype x boundary-value
// battery on every backend and checks each result word against the golden
// model, then asserts the matrix visited every opcode the IR defines.
func TestOpcodeSemanticsMatrix(t *testing.T) {
	tested := map[ir.Op]bool{}
	mark := func(ops ...ir.Op) {
		for _, op := range ops {
			tested[op] = true
		}
	}
	// Structural and control opcodes are semantically pinned by the
	// dedicated tests in this package; record them so the completeness check
	// below documents where each opcode's coverage lives.
	mark(ir.OpNop, ir.OpConst, ir.OpMov, ir.OpLoadIn, ir.OpStoreOut,
		ir.OpLoadState, ir.OpStoreState, ir.OpJmp, ir.OpJmpIf, ir.OpJmpIfNot,
		ir.OpProbe, ir.OpCondProbe, ir.OpHalt, ir.OpCast, ir.OpTruth)

	forEachBackend(t, func(t *testing.T, mk makeBackend) {
		check := func(p *ir.Program, in []uint64, want uint64, label string) {
			t.Helper()
			if got := stepOnce(t, mk, p, in); got != want {
				t.Errorf("%s: got %#x, want %#x", label, got, want)
			}
		}

		binOps := []ir.Op{ir.OpAdd, ir.OpSub, ir.OpMul, ir.OpDiv, ir.OpMin, ir.OpMax}
		cmpOps := []ir.Op{ir.OpEq, ir.OpNe, ir.OpLt, ir.OpLe, ir.OpGt, ir.OpGe}
		bitOps := []ir.Op{ir.OpBitAnd, ir.OpBitOr, ir.OpBitXor, ir.OpShl, ir.OpShr}
		unOps := []ir.Op{ir.OpNeg, ir.OpAbs}
		mathOps := []ir.Op{ir.OpSqrt, ir.OpExp, ir.OpLog, ir.OpSin, ir.OpCos,
			ir.OpTan, ir.OpFloor, ir.OpCeil, ir.OpRound, ir.OpTrunc}

		for _, dt := range allDTypes {
			vals := valuesFor(dt)
			for _, op := range binOps {
				mark(op)
				p := binProgram(op, dt)
				for _, x := range vals {
					for _, y := range vals {
						check(p, []uint64{x, y}, refArith(op, dt, x, y),
							fmt.Sprintf("%s %s(%#x,%#x)", dt, op, x, y))
					}
				}
			}
			for _, op := range unOps {
				mark(op)
				p := unProgram(op, dt, dt)
				for _, x := range vals {
					check(p, []uint64{x}, refUnary(op, dt, x),
						fmt.Sprintf("%s %s(%#x)", dt, op, x))
				}
			}
			for _, op := range cmpOps {
				mark(op)
				p := binProgram(op, dt)
				for _, x := range vals {
					for _, y := range vals {
						check(p, []uint64{x, y}, refCompare(op, dt, x, y),
							fmt.Sprintf("%s %s(%#x,%#x)", dt, op, x, y))
					}
				}
			}
			for _, op := range bitOps {
				mark(op)
				p := binProgram(op, dt)
				if dt.IsFloat() {
					p = overwriteProgram(op, dt)
				}
				for _, x := range vals {
					for _, y := range vals {
						check(p, []uint64{x, y}, refBit(op, dt, x, y),
							fmt.Sprintf("%s %s(%#x,%#x)", dt, op, x, y))
					}
				}
			}
			for _, op := range mathOps {
				mark(op)
				p := unProgram(op, dt, dt)
				for _, x := range vals {
					check(p, []uint64{x}, refUnary(op, dt, x),
						fmt.Sprintf("%s %s(%#x)", dt, op, x))
				}
			}
			// Select with canonical and sloppy (non-0/1) condition words.
			mark(ir.OpSelect)
			p := selectProgram(dt)
			for _, c := range []uint64{0, 1, 2, 1 << 40} {
				want := vals[len(vals)-1]
				if c != 0 {
					want = vals[0]
				}
				check(p, []uint64{c, vals[0], vals[len(vals)-1]}, want,
					fmt.Sprintf("%s select(c=%#x)", dt, c))
			}
		}

		// Bool logic canonicalizes any non-zero low bit pattern to 0/1.
		for _, op := range []ir.Op{ir.OpAnd, ir.OpOr, ir.OpXor} {
			mark(op)
			p := binProgram(op, model.Bool)
			for _, x := range []uint64{0, 1} {
				for _, y := range []uint64{0, 1} {
					var want uint64
					switch op {
					case ir.OpAnd:
						want = x & y
					case ir.OpOr:
						want = x | y
					case ir.OpXor:
						want = x ^ y
					}
					check(p, []uint64{x, y}, want, fmt.Sprintf("bool %s(%d,%d)", op, x, y))
				}
			}
		}
		mark(ir.OpNot)
		pn := unProgram(ir.OpNot, model.Bool, model.Bool)
		check(pn, []uint64{0}, 1, "not(0)")
		check(pn, []uint64{1}, 0, "not(1)")

		// Truth over every source type: any non-zero value in the type's
		// domain is true; words that are zero after masking are false.
		for _, dt2 := range allDTypes[1:] {
			p := unProgram(ir.OpTruth, model.Bool, dt2)
			for _, x := range valuesFor(dt2) {
				var want uint64
				if model.Truth(dt2, x) {
					want = 1
				}
				check(p, []uint64{x}, want, fmt.Sprintf("truth[%s](%#x)", dt2, x))
			}
		}

		// Casts across every ordered type pair, pinned to model.Cast.
		for _, from := range allDTypes {
			for _, to := range allDTypes {
				if from == to {
					continue
				}
				p := unProgram(ir.OpCast, to, from)
				for _, x := range valuesFor(from) {
					check(p, []uint64{x}, model.Cast(to, from, x),
						fmt.Sprintf("cast %s->%s(%#x)", from, to, x))
				}
			}
		}

		// An invalid type (which the verifier rejects but a random or
		// mutated program may carry) decodes every word to 0: compares,
		// neg/abs and casts to and from it must still agree with the golden
		// models on raw words of every shape.
		bad := model.DType(255)
		raws := []uint64{0, 1, 0x80, 0xffff_ffff, 1 << 63, math.MaxUint64}
		for _, op := range cmpOps {
			p := binProgram(op, bad)
			for _, x := range raws {
				for _, y := range raws {
					check(p, []uint64{x, y}, refCompare(op, bad, x, y),
						fmt.Sprintf("%s %s(%#x,%#x)", bad, op, x, y))
				}
			}
		}
		for _, op := range unOps {
			p := unProgram(op, bad, bad)
			for _, x := range raws {
				check(p, []uint64{x}, refUnary(op, bad, x), fmt.Sprintf("%s %s(%#x)", bad, op, x))
			}
		}
		for _, dt := range append(allDTypes, bad) {
			for _, pair := range [][2]model.DType{{dt, bad}, {bad, dt}} {
				to, from := pair[0], pair[1]
				p := unProgram(ir.OpCast, to, from)
				for _, x := range raws {
					check(p, []uint64{x}, model.Cast(to, from, x),
						fmt.Sprintf("cast %s->%s(%#x)", from, to, x))
				}
			}
		}
	})

	for op := ir.OpNop; op <= ir.OpHalt; op++ {
		if !tested[op] {
			t.Errorf("opcode %s missing from the semantics matrix", op)
		}
	}
}

// TestTotalizationGoldens pins the headline totalization rules with literal
// expected values, independent of any reference implementation.
func TestTotalizationGoldens(t *testing.T) {
	forEachBackend(t, func(t *testing.T, mk makeBackend) {
		// x / 0 == 0 for every type.
		for _, dt := range allDTypes[1:] {
			p := binProgram(ir.OpDiv, dt)
			if got := stepOnce(t, mk, p, []uint64{model.Encode(dt, 7), 0}); got != 0 {
				t.Errorf("%s: 7/0 = %#x, want 0", dt, got)
			}
		}
		// sqrt(-4) == 0, log(-4) == 0, log(0) == 0.
		neg := model.EncodeFloat(model.Float64, -4)
		if got := stepOnce(t, mk, unProgram(ir.OpSqrt, model.Float64, model.Float64), []uint64{neg}); got != 0 {
			t.Errorf("sqrt(-4) = %#x, want 0", got)
		}
		if got := stepOnce(t, mk, unProgram(ir.OpLog, model.Float64, model.Float64), []uint64{neg}); got != 0 {
			t.Errorf("log(-4) = %#x, want 0", got)
		}
		if got := stepOnce(t, mk, unProgram(ir.OpLog, model.Float64, model.Float64), []uint64{0}); got != 0 {
			t.Errorf("log(0) = %#x, want 0", got)
		}
		// Shift amounts mask to 5 bits: 1 << 33 == 1 << 1.
		p := binProgram(ir.OpShl, model.UInt32)
		got := stepOnce(t, mk, p, []uint64{model.EncodeInt(model.UInt32, 1), model.EncodeInt(model.UInt32, 33)})
		if model.DecodeInt(model.UInt32, got) != 2 {
			t.Errorf("1 << 33 = %#x, want 2 (shift & 31)", got)
		}
		// Comparison results are canonical words.
		pq := binProgram(ir.OpLt, model.Int32)
		if got := stepOnce(t, mk, pq, []uint64{model.EncodeInt(model.Int32, 1), model.EncodeInt(model.Int32, 2)}); got != 1 {
			t.Errorf("1<2 = %#x, want canonical 1", got)
		}
	})
}
