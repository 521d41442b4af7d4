package mutate

import (
	"math"

	"cftcg/internal/interval"
	"cftcg/internal/ir"
	"cftcg/internal/model"
	"cftcg/internal/vm"
)

// av is one abstract register or state value. It layers a concrete constant
// lattice (known/raw — the exact machine word, bit-precise through IEEE
// encode/decode because it is produced by vm.EvalPure) over the interval+NaN
// domain of analysis.Feasible. The interval half always soundly contains the
// decoded value; known additionally pins the raw bits.
type av struct {
	known bool
	raw   uint64
	itv   interval.Interval
	nan   bool
}

func top() av {
	return av{itv: interval.Span(math.Inf(-1), math.Inf(1)), nan: true}
}

// fromRaw builds the abstract value of a known machine word of type dt.
func fromRaw(dt model.DType, raw uint64) av {
	v := model.Decode(dt, raw)
	if math.IsNaN(v) {
		return av{known: true, raw: raw, itv: interval.Span(math.Inf(-1), math.Inf(1)), nan: true}
	}
	if !canonicalRaw(dt, raw) {
		// The raw word is not a fixpoint of encode∘decode under dt, so a
		// consumer decoding under a different type may see a value outside
		// Point(v). Keep the bit-exact raw (concrete folding stays sound)
		// but give up on interval bounds.
		return av{known: true, raw: raw, itv: interval.Span(math.Inf(-1), math.Inf(1)), nan: true}
	}
	return av{known: true, raw: raw, itv: interval.Point(v)}
}

// canonicalRaw reports whether raw is the canonical encoding of its own
// decoding under dt — the invariant the lowering maintains for every const
// and the condition under which interval reasoning about the decoded value
// is sound for any reader.
func canonicalRaw(dt model.DType, raw uint64) bool {
	return model.Encode(dt, model.Decode(dt, raw)) == raw
}

func (a av) join(b av) av {
	out := av{itv: a.itv.Hull(b.itv), nan: a.nan || b.nan}
	if a.known && b.known && a.raw == b.raw {
		out.known, out.raw = true, a.raw
	}
	return out
}

func (a av) eqv(b av) bool {
	return a.known == b.known && a.raw == b.raw && a.itv == b.itv && a.nan == b.nan
}

// truth is three-valued truth of the abstract value as a branch condition.
// A known word is tested exactly as the VM does (raw != 0); otherwise a
// possible NaN can test either way at the raw-bits level.
func (a av) truth() interval.Tri {
	if a.known {
		return interval.TriOf(a.raw == 0, a.raw != 0)
	}
	if a.nan {
		return interval.TriMixed
	}
	return a.itv.Truth()
}

// sanitizeAv repairs NaN interval bounds (possible from Inf*0 during
// interval arithmetic) into top, preserving a known raw word.
func sanitizeAv(a av) av {
	if math.IsNaN(a.itv.Lo) || math.IsNaN(a.itv.Hi) || a.itv.Lo > a.itv.Hi {
		t := top()
		t.known, t.raw = a.known, a.raw
		return t
	}
	return a
}

func hasInfAv(a av) bool {
	return math.IsInf(a.itv.Lo, 0) || math.IsInf(a.itv.Hi, 0)
}

// f32OutAv widens Float32 results outward by one single-precision ULP, like
// analysis' f32Out, so concrete re-rounding stays inside the bounds.
func f32OutAv(dt model.DType, a av) av {
	if dt != model.Float32 {
		return a
	}
	lo, hi := a.itv.Lo, a.itv.Hi
	if !math.IsInf(lo, 0) {
		lo = float64(math.Nextafter32(float32(lo), float32(math.Inf(-1))))
	}
	if !math.IsInf(hi, 0) {
		hi = float64(math.Nextafter32(float32(hi), float32(math.Inf(1))))
	}
	a.itv = interval.Span(lo, hi)
	return a
}

// boolAv encodes a three-valued bool result. Definite verdicts pin the raw
// word too: every bool-producing opcode in the VM emits exactly 0 or 1.
func boolAv(t interval.Tri) av {
	switch t {
	case interval.TriTrue:
		return av{known: true, raw: 1, itv: interval.Point(1)}
	case interval.TriFalse:
		return av{known: true, raw: 0, itv: interval.Point(0)}
	}
	return av{itv: interval.TriToItv(interval.TriMixed)}
}

// resultDT is the type in which an instruction's result raw word is encoded.
func resultDT(ins *ir.Instr) model.DType {
	switch ins.Op {
	case ir.OpEq, ir.OpNe, ir.OpLt, ir.OpLe, ir.OpGt, ir.OpGe,
		ir.OpAnd, ir.OpOr, ir.OpXor, ir.OpNot, ir.OpTruth:
		return model.Bool
	}
	return ins.DT
}

// pureValueOp reports whether the instruction computes a register result as
// a pure function of registers (and, for loads, of a memory cell) — the
// opcode class the prover evaluates side by side and the dead-register rule
// may discard. Loads are "pure" here in the sense of having no side effect;
// EvalPure still refuses them.
func pureValueOp(op ir.Op) bool {
	switch op {
	case ir.OpNop, ir.OpStoreOut, ir.OpStoreState, ir.OpProbe, ir.OpCondProbe,
		ir.OpJmp, ir.OpJmpIf, ir.OpJmpIfNot, ir.OpHalt:
		return false
	}
	return true
}

func isControl(op ir.Op) bool {
	switch op {
	case ir.OpJmp, ir.OpJmpIf, ir.OpJmpIfNot, ir.OpHalt:
		return true
	}
	return false
}

// absEval abstractly evaluates one register-pure instruction (everything
// pureValueOp admits except the loads, which the caller resolves against its
// own memory environment). The transfer rules mirror analysis' absInterp
// exactly; on top of them, when every operand's raw word is known the result
// is computed concretely via vm.EvalPure and is itself known.
func absEval(ins *ir.Instr, get func(int32) av) av {
	if ins.Op == ir.OpMov {
		return get(ins.A)
	}
	dst, reads := irOperands(ins)
	if dst >= 0 {
		allKnown := true
		for _, r := range reads {
			if !get(r).known {
				allKnown = false
				break
			}
		}
		if allKnown {
			if raw, ok := vm.EvalPure(ins, func(r int32) uint64 { return get(r).raw }); ok {
				return fromRaw(resultDT(ins), raw)
			}
		}
	}
	switch ins.Op {
	case ir.OpConst:
		return fromRaw(ins.DT, ins.Imm)
	case ir.OpAdd, ir.OpSub, ir.OpMul, ir.OpDiv, ir.OpMin, ir.OpMax:
		return sanitizeAv(absArith(ins.Op, ins.DT, get(ins.A), get(ins.B)))
	case ir.OpNeg:
		a := get(ins.A)
		return sanitizeAv(f32OutAv(ins.DT, av{itv: interval.WrapArith(ins.DT, interval.Neg(a.itv)), nan: a.nan && ins.DT.IsFloat()}))
	case ir.OpAbs:
		a := get(ins.A)
		return sanitizeAv(f32OutAv(ins.DT, av{itv: interval.WrapArith(ins.DT, interval.Abs(a.itv)), nan: a.nan && ins.DT.IsFloat()}))
	case ir.OpEq, ir.OpNe, ir.OpLt, ir.OpLe, ir.OpGt, ir.OpGe:
		return absCompare(ins.Op, get(ins.A), get(ins.B))
	case ir.OpAnd, ir.OpOr, ir.OpXor, ir.OpNot:
		return absLogic(ins.Op, ins, get)
	case ir.OpBitAnd, ir.OpBitOr, ir.OpBitXor, ir.OpShl, ir.OpShr:
		// Concretely foldable only via the all-known path above.
		return av{itv: interval.TypeRange(ins.DT)}
	case ir.OpTruth:
		a := get(ins.A)
		t := a.itv.Truth()
		return boolAv(interval.TriOf(t.CanFalse(), t.CanTrue() || a.nan))
	case ir.OpSelect:
		switch get(ins.A).truth() {
		case interval.TriTrue:
			return get(ins.B)
		case interval.TriFalse:
			return get(ins.C)
		}
		return get(ins.B).join(get(ins.C))
	case ir.OpCast:
		a := get(ins.A)
		if ins.DT.IsFloat() {
			return sanitizeAv(f32OutAv(ins.DT, av{itv: a.itv, nan: a.nan}))
		}
		if a.nan {
			return av{itv: interval.TypeRange(ins.DT)}
		}
		return sanitizeAv(av{itv: interval.Cast(ins.DT, ins.DT2, a.itv)})
	case ir.OpSqrt, ir.OpExp, ir.OpLog, ir.OpFloor, ir.OpCeil, ir.OpRound, ir.OpTrunc:
		a := get(ins.A)
		return sanitizeAv(f32OutAv(ins.DT, av{itv: interval.MathFn(ins.Op, a.itv), nan: a.nan}))
	case ir.OpSin, ir.OpCos, ir.OpTan:
		a := get(ins.A)
		// sin/cos/tan of an infinity is NaN.
		return sanitizeAv(f32OutAv(ins.DT, av{itv: interval.MathFn(ins.Op, a.itv), nan: a.nan || hasInfAv(a)}))
	}
	return top()
}

// absArith mirrors analysis' arith transfer: interval arithmetic plus the
// IEEE NaN-spawning cases (Inf-Inf, 0*Inf, Inf/Inf; VM division is total so
// x/0 never does).
func absArith(op ir.Op, dt model.DType, a, b av) av {
	var v interval.Interval
	nan := false
	switch op {
	case ir.OpAdd:
		v = interval.Add(a.itv, b.itv)
		nan = hasInfAv(a) && hasInfAv(b)
	case ir.OpSub:
		v = interval.Sub(a.itv, b.itv)
		nan = hasInfAv(a) && hasInfAv(b)
	case ir.OpMul:
		v = interval.Mul(a.itv, b.itv)
		nan = (a.itv.Contains0() && hasInfAv(b)) || (b.itv.Contains0() && hasInfAv(a))
	case ir.OpDiv:
		v = interval.Div(a.itv, b.itv)
		nan = hasInfAv(a) || hasInfAv(b)
	case ir.OpMin:
		v = interval.Min(a.itv, b.itv)
	case ir.OpMax:
		v = interval.Max(a.itv, b.itv)
	}
	if !dt.IsFloat() {
		return av{itv: interval.WrapArith(dt, v)}
	}
	return f32OutAv(dt, av{itv: v, nan: nan || a.nan || b.nan})
}

func absCompare(op ir.Op, a, b av) av {
	t := interval.Cmp(op, a.itv, b.itv)
	if a.nan || b.nan {
		if op == ir.OpNe {
			t = interval.TriOf(t.CanFalse(), true)
		} else {
			t = interval.TriOf(true, t.CanTrue())
		}
	}
	return boolAv(t)
}

func absLogic(op ir.Op, ins *ir.Instr, get func(int32) av) av {
	ta := get(ins.A).truth()
	var t interval.Tri
	switch op {
	case ir.OpNot:
		t = interval.TriOf(ta.CanTrue(), ta.CanFalse())
	case ir.OpAnd:
		tb := get(ins.B).truth()
		t = interval.TriOf(ta.CanFalse() || tb.CanFalse(), ta.CanTrue() && tb.CanTrue())
	case ir.OpOr:
		tb := get(ins.B).truth()
		t = interval.TriOf(ta.CanFalse() && tb.CanFalse(), ta.CanTrue() || tb.CanTrue())
	case ir.OpXor:
		tb := get(ins.B).truth()
		t = interval.TriOf(
			(ta.CanTrue() && tb.CanTrue()) || (ta.CanFalse() && tb.CanFalse()),
			(ta.CanTrue() && tb.CanFalse()) || (ta.CanFalse() && tb.CanTrue()))
	}
	return boolAv(t)
}

// inputAvs builds the abstract value of each input field, matching analysis'
// inputVals: full type range for integers and bools, unbounded and possibly
// NaN for floats (the fuzzer feeds raw bit patterns).
func inputAvs(p *ir.Program) []av {
	in := make([]av, len(p.In))
	for i, f := range p.In {
		if f.Type.IsFloat() {
			in[i] = top()
		} else {
			in[i] = av{itv: interval.TypeRange(f.Type)}
		}
	}
	return in
}

// irOperands returns an instruction's destination register (-1 when none)
// and read registers — the same classification as the verifier's.
func irOperands(ins *ir.Instr) (dst int32, reads []int32) {
	switch ins.Op {
	case ir.OpConst, ir.OpLoadIn, ir.OpLoadState:
		return ins.Dst, nil
	case ir.OpMov, ir.OpNeg, ir.OpAbs, ir.OpNot, ir.OpTruth, ir.OpCast,
		ir.OpSqrt, ir.OpExp, ir.OpLog, ir.OpSin, ir.OpCos, ir.OpTan,
		ir.OpFloor, ir.OpCeil, ir.OpRound, ir.OpTrunc:
		return ins.Dst, []int32{ins.A}
	case ir.OpSelect:
		return ins.Dst, []int32{ins.A, ins.B, ins.C}
	case ir.OpStoreOut, ir.OpStoreState, ir.OpJmpIf, ir.OpJmpIfNot:
		return -1, []int32{ins.A}
	case ir.OpCondProbe:
		return -1, []int32{ins.B}
	case ir.OpJmp, ir.OpHalt, ir.OpNop, ir.OpProbe:
		return -1, nil
	default: // remaining binary ALU ops
		return ins.Dst, []int32{ins.A, ins.B}
	}
}
