package vm

import (
	"math"

	"cftcg/internal/ir"
	"cftcg/internal/model"
)

// EvalPure evaluates one instruction whose result is a pure function of its
// register operands. It is the reference semantics of every such opcode: the
// reference Machine's step runs it for each one, and the equivalent-mutant
// prover folds constants with it, so the prover's constant lattice is
// bit-identical to the VM by construction (a drift would let it prove a
// killable mutant equivalent). read supplies the raw word of each operand
// register. The second result is false for opcodes whose value is not
// register-pure (loads, stores, control flow, probes, nop), which the caller
// must not fold.
func EvalPure(ins *ir.Instr, read func(int32) uint64) (uint64, bool) {
	switch ins.Op {
	case ir.OpConst:
		return ins.Imm, true
	case ir.OpMov:
		return read(ins.A), true

	case ir.OpAdd, ir.OpSub, ir.OpMul, ir.OpDiv, ir.OpMin, ir.OpMax:
		return arith(ins.Op, ins.DT, read(ins.A), read(ins.B)), true
	case ir.OpNeg:
		if ins.DT.IsFloat() {
			return model.EncodeFloat(ins.DT, -model.DecodeFloat(ins.DT, read(ins.A))), true
		}
		return model.EncodeInt(ins.DT, -model.DecodeInt(ins.DT, read(ins.A))), true
	case ir.OpAbs:
		if ins.DT.IsFloat() {
			return model.EncodeFloat(ins.DT, math.Abs(model.DecodeFloat(ins.DT, read(ins.A)))), true
		}
		v := model.DecodeInt(ins.DT, read(ins.A))
		if v < 0 {
			v = -v
		}
		return model.EncodeInt(ins.DT, v), true

	case ir.OpEq, ir.OpNe, ir.OpLt, ir.OpLe, ir.OpGt, ir.OpGe:
		return compare(ins.Op, ins.DT, read(ins.A), read(ins.B)), true

	case ir.OpAnd:
		return read(ins.A) & read(ins.B) & 1, true
	case ir.OpOr:
		return (read(ins.A) | read(ins.B)) & 1, true
	case ir.OpXor:
		return (read(ins.A) ^ read(ins.B)) & 1, true
	case ir.OpNot:
		return (read(ins.A) & 1) ^ 1, true

	case ir.OpBitAnd:
		return model.EncodeInt(ins.DT, model.DecodeInt(ins.DT, read(ins.A))&model.DecodeInt(ins.DT, read(ins.B))), true
	case ir.OpBitOr:
		return model.EncodeInt(ins.DT, model.DecodeInt(ins.DT, read(ins.A))|model.DecodeInt(ins.DT, read(ins.B))), true
	case ir.OpBitXor:
		return model.EncodeInt(ins.DT, model.DecodeInt(ins.DT, read(ins.A))^model.DecodeInt(ins.DT, read(ins.B))), true
	case ir.OpShl:
		sh := uint(model.DecodeInt(ins.DT, read(ins.B))) & 31
		return model.EncodeInt(ins.DT, model.DecodeInt(ins.DT, read(ins.A))<<sh), true
	case ir.OpShr:
		sh := uint(model.DecodeInt(ins.DT, read(ins.B))) & 31
		return model.EncodeInt(ins.DT, model.DecodeInt(ins.DT, read(ins.A))>>sh), true

	case ir.OpTruth:
		if model.Truth(ins.DT2, read(ins.A)) {
			return 1, true
		}
		return 0, true
	case ir.OpSelect:
		if read(ins.A) != 0 {
			return read(ins.B), true
		}
		return read(ins.C), true
	case ir.OpCast:
		return model.Cast(ins.DT, ins.DT2, read(ins.A)), true

	case ir.OpSqrt, ir.OpExp, ir.OpLog, ir.OpSin, ir.OpCos, ir.OpTan,
		ir.OpFloor, ir.OpCeil, ir.OpRound, ir.OpTrunc:
		return unaryMath(ins.Op, ins.DT, read(ins.A)), true
	}
	return 0, false
}
