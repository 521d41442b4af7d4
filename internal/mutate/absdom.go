package mutate

import (
	"math"

	"cftcg/internal/analysis"
	"cftcg/internal/interval"
	"cftcg/internal/ir"
	"cftcg/internal/model"
	"cftcg/internal/vm"
)

// av is one abstract register or state value: a concrete constant lattice
// (known/raw — the exact machine word, bit-precise through IEEE
// encode/decode because it is produced by vm.EvalPure) over the interval+NaN
// domain of analysis.Value. The Value half always soundly contains the
// decoded value; known additionally pins the raw bits.
type av struct {
	known bool
	raw   uint64
	analysis.Value
}

// fromRaw builds the abstract value of a known machine word of type dt.
func fromRaw(dt model.DType, raw uint64) av {
	v := model.Decode(dt, raw)
	if math.IsNaN(v) || !canonicalRaw(dt, raw) {
		// A NaN has no bounds, and a non-canonical raw word is not a
		// fixpoint of encode∘decode under dt, so a consumer decoding under a
		// different type may see a value outside Point(v). Keep the
		// bit-exact raw (concrete folding stays sound) but give up on
		// interval bounds.
		return av{known: true, raw: raw, Value: analysis.Top()}
	}
	return av{known: true, raw: raw, Value: analysis.Value{Itv: interval.Point(v)}}
}

// canonicalRaw reports whether raw is the canonical encoding of its own
// decoding under dt — the invariant the lowering maintains for every const
// and the condition under which interval reasoning about the decoded value
// is sound for any reader.
func canonicalRaw(dt model.DType, raw uint64) bool {
	return model.Encode(dt, model.Decode(dt, raw)) == raw
}

func (a av) join(b av) av {
	out := av{Value: a.Value.Join(b.Value)}
	if a.known && b.known && a.raw == b.raw {
		out.known, out.raw = true, a.raw
	}
	return out
}

// truth is three-valued truth of the abstract value as a branch condition.
// A known word is tested exactly as the VM does (raw != 0).
func (a av) truth() interval.Tri {
	if a.known {
		return interval.TriOf(a.raw == 0, a.raw != 0)
	}
	return a.Value.Truth()
}

// boolResult reports whether the opcode emits a bool word, exactly 0 or 1.
func boolResult(op ir.Op) bool {
	switch op {
	case ir.OpEq, ir.OpNe, ir.OpLt, ir.OpLe, ir.OpGt, ir.OpGe,
		ir.OpAnd, ir.OpOr, ir.OpXor, ir.OpNot, ir.OpTruth:
		return true
	}
	return false
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
// own memory environment). The interval+NaN half is analysis.Eval; the
// constant lattice adds what raw words know beyond it: mov and select carry
// known words through, an instruction whose operands are all known is
// computed concretely via vm.EvalPure, and a definite bool verdict pins its
// word.
func absEval(ins *ir.Instr, get func(int32) av) av {
	if ins.Op == ir.OpMov {
		return get(ins.A)
	}
	if raw, ok := fold(ins, get); ok {
		dt := ins.DT
		if boolResult(ins.Op) {
			dt = model.Bool
		}
		return fromRaw(dt, raw)
	}
	if ins.Op == ir.OpSelect {
		switch get(ins.A).truth() {
		case interval.TriTrue:
			return get(ins.B)
		case interval.TriFalse:
			return get(ins.C)
		}
		return get(ins.B).join(get(ins.C))
	}
	out := av{Value: analysis.Eval(ins, func(r int32) analysis.Value { return get(r).Value })}
	if boolResult(ins.Op) && out.Itv.IsPoint() {
		out.known, out.raw = true, uint64(out.Itv.Lo)
	}
	return out
}

// fold computes the instruction concretely when every operand's raw word is
// known.
func fold(ins *ir.Instr, get func(int32) av) (uint64, bool) {
	_, reads, n := analysis.Operands(ins)
	for _, r := range reads[:n] {
		if !get(r).known {
			return 0, false
		}
	}
	return vm.EvalPure(ins, func(r int32) uint64 { return get(r).raw })
}
