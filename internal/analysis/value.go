package analysis

import (
	"math"

	"cftcg/internal/interval"
	"cftcg/internal/ir"
	"cftcg/internal/model"
)

// Value is one abstract register or state slot of the interval+NaN domain
// that every abstract interpreter over the lowered IR shares: the
// dead-objective pass (Feasible) and the mutant equivalence prover, which
// layers a constant lattice on top. Itv soundly contains the decoded value
// whenever it is not a float NaN; NaN says it might be one. To honor IEEE
// float semantics NaN lies outside every interval, compares false against
// everything and propagates through arithmetic, float inputs are unbounded,
// and Float32 results are widened outward by one ULP to absorb re-rounding.
type Value struct {
	Itv interval.Interval
	NaN bool
}

// Top describes every machine word.
func Top() Value {
	return Value{interval.Span(math.Inf(-1), math.Inf(1)), true}
}

// Join returns the least Value describing both a and b.
func (a Value) Join(b Value) Value {
	return Value{a.Itv.Hull(b.Itv), a.NaN || b.NaN}
}

// Truth is the three-valued truth of a as a branch or select condition: a
// possible NaN can test either way at the raw-bits level.
func (a Value) Truth() interval.Tri {
	if a.NaN {
		return interval.TriMixed
	}
	return a.Itv.Truth()
}

// Widen pushes every bound of a that grew past prev out to infinity, forcing
// the chaotic iteration to converge.
func (a Value) Widen(prev Value) Value {
	if a.Itv.Lo < prev.Itv.Lo {
		a.Itv.Lo = math.Inf(-1)
	}
	if a.Itv.Hi > prev.Itv.Hi {
		a.Itv.Hi = math.Inf(1)
	}
	return a
}

// Fixpoint bounds of the abstract interpreters: Init once, then Step iterated
// until the state stops changing.
const (
	WidenBlockVisits = 8  // per-block joins before widening inside a function
	WidenStepRounds  = 4  // outer Step iterations before widening the state
	MaxStepRounds    = 64 // hard stop (widening converges long before this)
)

// InputValues builds the abstract value of each input field: full type range
// for integers and bools, unbounded (and possibly NaN) for floats — the
// fuzzer feeds raw bit patterns, so no tighter float bound is sound.
func InputValues(p *ir.Program) []Value {
	in := make([]Value, len(p.In))
	for i, f := range p.In {
		if f.Type.IsFloat() {
			in[i] = Top()
		} else {
			in[i] = Value{Itv: interval.TypeRange(f.Type)}
		}
	}
	return in
}

// Eval is the abstract transfer of one register-pure instruction, every
// opcode vm.EvalPure folds: constants, moves, arithmetic, comparisons, logic,
// bit operations, truth, select, casts and math. get supplies the operand
// values. Eval relies on the lowering's typing, like the VM: operands have
// the instruction's DT, except that OpTruth and OpCast read theirs as DT2,
// and logic operands and select conditions are canonical bools (raw 0/1, for
// which raw-bits and decoded truth agree). Any other opcode yields Top.
func Eval(ins *ir.Instr, get func(int32) Value) Value {
	dt := ins.DT
	var v Value
	switch ins.Op {
	case ir.OpConst:
		x := model.Decode(dt, ins.Imm)
		if math.IsNaN(x) {
			return Top()
		}
		v = Value{Itv: interval.Point(x)}
	case ir.OpMov:
		v = get(ins.A)
	case ir.OpAdd, ir.OpSub, ir.OpMul, ir.OpDiv, ir.OpMin, ir.OpMax:
		v = arith(ins.Op, dt, get(ins.A), get(ins.B))
	case ir.OpNeg:
		a := get(ins.A)
		v = f32Out(dt, Value{interval.WrapArith(dt, interval.Neg(a.Itv)), a.NaN && dt.IsFloat()})
	case ir.OpAbs:
		a := get(ins.A)
		v = f32Out(dt, Value{interval.WrapArith(dt, interval.Abs(a.Itv)), a.NaN && dt.IsFloat()})
	case ir.OpEq, ir.OpNe, ir.OpLt, ir.OpLe, ir.OpGt, ir.OpGe:
		v = Value{Itv: interval.TriToItv(compare(ins.Op, get(ins.A), get(ins.B)))}
	case ir.OpAnd, ir.OpOr, ir.OpXor, ir.OpNot:
		v = Value{Itv: interval.TriToItv(logic(ins, get))}
	case ir.OpBitAnd, ir.OpBitOr, ir.OpBitXor, ir.OpShl, ir.OpShr:
		v = bitOp(ins.Op, dt, get(ins.A), get(ins.B))
	case ir.OpTruth:
		// A NaN operand is non-zero, so it reads true.
		a := get(ins.A)
		t := a.Itv.Truth()
		v = Value{Itv: interval.TriToItv(interval.TriOf(t.CanFalse(), t.CanTrue() || a.NaN))}
	case ir.OpSelect:
		switch get(ins.A).Truth() {
		case interval.TriTrue:
			v = get(ins.B)
		case interval.TriFalse:
			v = get(ins.C)
		default:
			v = get(ins.B).Join(get(ins.C))
		}
	case ir.OpCast:
		a := get(ins.A)
		switch {
		case dt.IsFloat():
			v = f32Out(dt, a)
		case a.NaN:
			v = Value{Itv: interval.TypeRange(dt)}
		default:
			v = Value{Itv: interval.Cast(dt, ins.DT2, a.Itv)}
		}
	case ir.OpSqrt, ir.OpExp, ir.OpLog, ir.OpFloor, ir.OpCeil, ir.OpRound, ir.OpTrunc:
		a := get(ins.A)
		v = f32Out(dt, Value{interval.MathFn(ins.Op, a.Itv), a.NaN})
	case ir.OpSin, ir.OpCos, ir.OpTan:
		a := get(ins.A)
		// sin/cos/tan of an infinity is NaN.
		v = f32Out(dt, Value{interval.MathFn(ins.Op, a.Itv), a.NaN || hasInf(a)})
	default:
		return Top()
	}
	return sanitize(v)
}

// sanitize repairs NaN bounds (possible from Inf*0 during interval
// arithmetic) into the full range with the NaN flag set.
func sanitize(a Value) Value {
	if math.IsNaN(a.Itv.Lo) || math.IsNaN(a.Itv.Hi) || a.Itv.Lo > a.Itv.Hi {
		return Top()
	}
	return a
}

func hasInf(a Value) bool {
	return math.IsInf(a.Itv.Lo, 0) || math.IsInf(a.Itv.Hi, 0)
}

// f32Out widens Float32 results outward by one single-precision ULP so the
// concrete re-rounding performed by the VM's encode step stays inside the
// bounds.
func f32Out(dt model.DType, a Value) Value {
	if dt != model.Float32 {
		return a
	}
	if !math.IsInf(a.Itv.Lo, 0) {
		a.Itv.Lo = float64(math.Nextafter32(float32(a.Itv.Lo), float32(math.Inf(-1))))
	}
	if !math.IsInf(a.Itv.Hi, 0) {
		a.Itv.Hi = float64(math.Nextafter32(float32(a.Itv.Hi), float32(math.Inf(1))))
	}
	return a
}

// arith handles the binary arithmetic group, tracking where IEEE semantics
// can spawn a NaN (Inf-Inf, 0*Inf, Inf/Inf; division by zero is total in
// the VM so it never does).
func arith(op ir.Op, dt model.DType, a, b Value) Value {
	var v interval.Interval
	nan := false
	switch op {
	case ir.OpAdd:
		v = interval.Add(a.Itv, b.Itv)
		nan = hasInf(a) && hasInf(b)
	case ir.OpSub:
		v = interval.Sub(a.Itv, b.Itv)
		nan = hasInf(a) && hasInf(b)
	case ir.OpMul:
		v = interval.Mul(a.Itv, b.Itv)
		nan = (a.Itv.Contains0() && hasInf(b)) || (b.Itv.Contains0() && hasInf(a))
	case ir.OpDiv:
		v = interval.Div(a.Itv, b.Itv)
		nan = hasInf(a) || hasInf(b)
	case ir.OpMin:
		v = interval.Min(a.Itv, b.Itv)
	case ir.OpMax:
		v = interval.Max(a.Itv, b.Itv)
	}
	if !dt.IsFloat() {
		return Value{Itv: interval.WrapArith(dt, v)}
	}
	return f32Out(dt, Value{v, nan || a.NaN || b.NaN})
}

// compare evaluates a relational op three-valued. A possible NaN operand
// makes every relation except != possibly-false and != possibly-true.
func compare(op ir.Op, a, b Value) interval.Tri {
	t := interval.Cmp(op, a.Itv, b.Itv)
	if a.NaN || b.NaN {
		if op == ir.OpNe {
			return interval.TriOf(t.CanFalse(), true)
		}
		return interval.TriOf(true, t.CanTrue())
	}
	return t
}

func logic(ins *ir.Instr, get func(int32) Value) interval.Tri {
	ta := get(ins.A).Truth()
	if ins.Op == ir.OpNot {
		return interval.TriOf(ta.CanTrue(), ta.CanFalse())
	}
	tb := get(ins.B).Truth()
	switch ins.Op {
	case ir.OpAnd:
		return interval.TriOf(ta.CanFalse() || tb.CanFalse(), ta.CanTrue() && tb.CanTrue())
	case ir.OpOr:
		return interval.TriOf(ta.CanFalse() && tb.CanFalse(), ta.CanTrue() || tb.CanTrue())
	}
	return interval.TriOf( // OpXor
		(ta.CanTrue() && tb.CanTrue()) || (ta.CanFalse() && tb.CanFalse()),
		(ta.CanTrue() && tb.CanFalse()) || (ta.CanFalse() && tb.CanTrue()))
}

// bitOp evaluates bitwise/shift ops: concretely when both operands are
// known points, otherwise conservatively as the full type range.
func bitOp(op ir.Op, dt model.DType, a, b Value) Value {
	if !a.Itv.IsPoint() || !b.Itv.IsPoint() || a.NaN || b.NaN {
		return Value{Itv: interval.TypeRange(dt)}
	}
	x := model.DecodeInt(dt, model.EncodeInt(dt, int64(a.Itv.Lo)))
	y := model.DecodeInt(dt, model.EncodeInt(dt, int64(b.Itv.Lo)))
	var r int64
	switch op {
	case ir.OpBitAnd:
		r = x & y
	case ir.OpBitOr:
		r = x | y
	case ir.OpBitXor:
		r = x ^ y
	case ir.OpShl:
		r = x << (uint(y) & 31)
	case ir.OpShr:
		r = x >> (uint(y) & 31)
	}
	return Value{Itv: interval.Point(float64(model.DecodeInt(dt, model.EncodeInt(dt, r))))}
}
