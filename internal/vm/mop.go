package vm

import (
	"math"
	"unsafe"

	"cftcg/internal/ir"
	"cftcg/internal/model"
)

// The inner loop of the threaded backend executes micro-ops: each IR
// instruction is pre-decoded at compile time into one flat 48-byte mop with
// a monomorphized kind (opcode × data-type class resolved once), its
// register operands widened, and its width constants (mask, sign-extension
// shift, order-bias xor) precomputed. The stream is contiguous, so dispatch
// is a sequential fetch plus one dense-switch jump — no per-instruction
// opcode switch over the full Op space and no per-call type switches inside
// the model encode/decode helpers. An instruction without a dense kind
// (math on a non-Float64 type, Bool arithmetic, bitwise ops on Bool or
// floats, ill-typed compares, neg/abs and casts) compiles to mRef, which
// runs the reference single-instruction step over the source instruction:
// its value comes from EvalPure, like the reference Machine's.
//
// Width tricks the integer kinds rely on (w = bit width, mask = 2^w-1):
//   - add/sub/mul/neg and the bitwise ops are determined by the low w bits,
//     so one masked uint64 computation serves signed and unsigned alike;
//   - eq/ne compare masked raws (sign extension is injective);
//   - ordered compares xor both sides with xorv — 2^(w-1) for signed types,
//     0 for unsigned — which maps signed order onto unsigned order;
//   - shift amounts take only the low 5 bits of the raw (w >= 8 > 5);
//   - div/shr/abs on signed types sign-extend for real via sh = 64-w.
type mop struct {
	imm  uint64 // const payload, in/out/state index
	mask uint64 // payload mask (integer kinds)
	xorv uint64 // order bias for signed compares/min/max
	dst  int32
	a    int32
	b    int32
	c    int32 // select else-register; in a fused span, a second register or state slot
	tgt  int32 // jump target, fused store slot
	kind uint8
	cost uint8 // fuel units: instructions this mop covers (1, or span for fused)
	sh   uint8 // sign-extension shift for signed div/shr/abs
	flag bool  // fused cmp+jmp polarity (true = jmpIf)
}

// Micro-op kinds. Grouped so the switch in runMops stays a dense jump table.
const (
	mNop uint8 = iota
	mConst
	mMov
	mSelect
	mLoadIn
	mStoreOut
	mLoadState
	mStoreState
	mJmp
	mJmpIf
	mJmpIfNot
	mHalt
	mProbe
	mCondProbe

	// Integer kinds (mask/xorv/sh precomputed).
	mAddM
	mSubM
	mMulM
	mDivU
	mDivS
	mMinM
	mMaxM
	mBitAndM
	mBitOrM
	mBitXorM
	mShlM
	mShrU
	mShrS
	mNegM
	mAbsU
	mAbsS
	mEqM
	mNeM
	mLtM
	mLeM
	mGtM
	mGeM
	mTruthM

	// Bool logic (operates on canonical 0/1 payloads).
	mAnd
	mOr
	mXor
	mNot

	// Float64 kinds.
	mAddF
	mSubF
	mMulF
	mDivF
	mMinF
	mMaxF
	mNegF
	mAbsF
	mSqrtF
	mExpF
	mLogF
	mSinF
	mCosF
	mTanF
	mFloorF
	mCeilF
	mRoundF
	mTruncF
	mEqF
	mNeF
	mLtF
	mLeF
	mGtF
	mGeF
	mTruthF
	mTruthF32

	// Float32 kinds (decode to float64, compute, round once on encode —
	// the reference arith() sequence, bit for bit).
	mAddF32
	mSubF32
	mMulF32
	mDivF32
	mMinF32
	mMaxF32
	mNegF32
	mAbsF32
	mEqF32
	mNeF32
	mLtF32
	mLeF32
	mGtF32
	mGeF32

	// Reference fallback: the reference step executes the source
	// instruction (see the file comment).
	mRef

	// Cast kinds: every valid type pair pre-decoded into masked/shifted
	// register ops (mask = combined or target payload mask, sh = source
	// sign-extension shift, imm/xorv = float64 bits of the target's integer
	// clamp bounds for float sources). Ill-typed pairs run mRef.
	mCastZX     // unsigned/bool -> int: mask only
	mCastSX     // signed -> int: sign-extend, re-mask
	mCastIB     // any int-like -> bool: masked non-zero test
	mCastSF64   // signed -> float64
	mCastSF32   // signed -> float32
	mCastUF64   // unsigned/bool -> float64
	mCastUF32   // unsigned/bool -> float32
	mCastF64I   // float64 -> int/bool: trunc, NaN->0, clamp, mask
	mCastF32I   // float32 -> int/bool
	mCastF64F32 // float64 -> float32
	mCastF32F64 // float32 -> float64

	// Superinstructions. All are straight-line except for a trailing
	// control transfer, so a fuel budget that dies inside one replays a
	// prefix holding no jump (see runMops).
	mFusedCmpJmpM      // integer/bool cmp + jmpIf/jmpIfNot (op selector in sh)
	mFusedCmpJmpF      // float64 cmp + jmpIf/jmpIfNot
	mFusedConstCmpJmpM // const + integer/bool cmp + jmpIf/jmpIfNot
	mFusedConstCmpJmpF // const + float64 cmp + jmpIf/jmpIfNot
	mFusedMovJmp       // mov + jmp
	mFusedProbeJmp     // probe + jmp
	mFusedProbeJin     // probe + jmpIf/jmpIfNot
	mFusedCondProbeJin // condProbe + jmpIf/jmpIfNot
	mFusedConstConst   // const + const
	mFusedConstMov     // const + mov
	mFusedMovConst     // mov + const
	mFusedProbeMov     // probe + mov
	mFusedStConst      // storeState + const
	mFusedConstSt      // const + storeState
	mFusedStSt         // storeState + storeState
	mFusedLdMov        // loadState + mov
	mFusedMovLd        // mov + loadState
)

// compileMop pre-decodes one instruction. end is the clean-exit pc for halt
// and out-of-range jump targets.
func compileMop(ins *ir.Instr, pc, end int) mop {
	m := mop{
		dst:  int32(ins.Dst),
		a:    int32(ins.A),
		b:    int32(ins.B),
		c:    int32(ins.C),
		imm:  ins.Imm,
		cost: 1,
	}
	dt := ins.DT
	intLike := dt.IsInteger()
	signed := dt.IsSigned()
	if intLike {
		m.mask = maskOf(dt)
		if signed {
			m.sh = uint8(64 - dt.Size()*8)
			m.xorv = uint64(1) << uint(dt.Size()*8-1)
		}
	}

	switch ins.Op {
	case ir.OpNop:
		m.kind = mNop
	case ir.OpConst:
		m.kind = mConst
	case ir.OpMov:
		m.kind = mMov
	case ir.OpSelect:
		m.kind = mSelect
	case ir.OpLoadIn:
		m.kind = mLoadIn
	case ir.OpStoreOut:
		m.kind = mStoreOut
	case ir.OpLoadState:
		m.kind = mLoadState
	case ir.OpStoreState:
		m.kind = mStoreState
	case ir.OpJmp:
		m.kind = mJmp
		m.tgt = int32(jumpTo(ins.Imm, end))
	case ir.OpJmpIf:
		m.kind = mJmpIf
		m.tgt = int32(jumpTo(ins.Imm, end))
	case ir.OpJmpIfNot:
		m.kind = mJmpIfNot
		m.tgt = int32(jumpTo(ins.Imm, end))
	case ir.OpHalt:
		m.kind = mHalt
		m.tgt = int32(end)
	case ir.OpProbe:
		m.kind = mProbe
	case ir.OpCondProbe:
		m.kind = mCondProbe

	case ir.OpAdd, ir.OpSub, ir.OpMul, ir.OpDiv, ir.OpMin, ir.OpMax:
		switch {
		case dt == model.Float64:
			switch ins.Op {
			case ir.OpAdd:
				m.kind = mAddF
			case ir.OpSub:
				m.kind = mSubF
			case ir.OpMul:
				m.kind = mMulF
			case ir.OpDiv:
				m.kind = mDivF
			case ir.OpMin:
				m.kind = mMinF
			case ir.OpMax:
				m.kind = mMaxF
			}
		case dt == model.Float32:
			switch ins.Op {
			case ir.OpAdd:
				m.kind = mAddF32
			case ir.OpSub:
				m.kind = mSubF32
			case ir.OpMul:
				m.kind = mMulF32
			case ir.OpDiv:
				m.kind = mDivF32
			case ir.OpMin:
				m.kind = mMinF32
			case ir.OpMax:
				m.kind = mMaxF32
			}
		case intLike:
			switch ins.Op {
			case ir.OpAdd:
				m.kind = mAddM
			case ir.OpSub:
				m.kind = mSubM
			case ir.OpMul:
				m.kind = mMulM
			case ir.OpDiv:
				if signed {
					m.kind = mDivS
				} else {
					m.kind = mDivU
				}
			case ir.OpMin:
				m.kind = mMinM
			case ir.OpMax:
				m.kind = mMaxM
			}
		default: // Bool, invalid
			m.kind = mRef
		}
	case ir.OpEq, ir.OpNe, ir.OpLt, ir.OpLe, ir.OpGt, ir.OpGe:
		switch {
		case dt == model.Float64:
			m.kind = [...]uint8{mEqF, mNeF, mLtF, mLeF, mGtF, mGeF}[ins.Op-ir.OpEq]
		case dt == model.Float32:
			m.kind = [...]uint8{mEqF32, mNeF32, mLtF32, mLeF32, mGtF32, mGeF32}[ins.Op-ir.OpEq]
		case intLike || dt == model.Bool:
			if dt == model.Bool {
				m.mask = 1
			}
			m.kind = [...]uint8{mEqM, mNeM, mLtM, mLeM, mGtM, mGeM}[ins.Op-ir.OpEq]
		default:
			m.kind = mRef
		}
	case ir.OpBitAnd, ir.OpBitOr, ir.OpBitXor, ir.OpShl, ir.OpShr:
		if intLike {
			switch ins.Op {
			case ir.OpBitAnd:
				m.kind = mBitAndM
			case ir.OpBitOr:
				m.kind = mBitOrM
			case ir.OpBitXor:
				m.kind = mBitXorM
			case ir.OpShl:
				m.kind = mShlM
			case ir.OpShr:
				if signed {
					m.kind = mShrS
				} else {
					m.kind = mShrU
				}
			}
		} else {
			m.kind = mRef
		}
	case ir.OpAnd:
		m.kind = mAnd
	case ir.OpOr:
		m.kind = mOr
	case ir.OpXor:
		m.kind = mXor
	case ir.OpNot:
		m.kind = mNot
	case ir.OpNeg:
		switch {
		case dt == model.Float64:
			m.kind = mNegF
		case dt == model.Float32:
			m.kind = mNegF32
		case intLike || dt == model.Bool:
			if dt == model.Bool {
				m.mask = 1
			}
			m.kind = mNegM
		default:
			m.kind = mRef
		}
	case ir.OpAbs:
		switch {
		case dt == model.Float64:
			m.kind = mAbsF
		case dt == model.Float32:
			m.kind = mAbsF32
		case signed:
			m.kind = mAbsS
		case intLike || dt == model.Bool:
			if dt == model.Bool {
				m.mask = 1
			}
			m.kind = mAbsU
		default:
			m.kind = mRef
		}
	case ir.OpSqrt, ir.OpExp, ir.OpLog, ir.OpSin, ir.OpCos, ir.OpTan,
		ir.OpFloor, ir.OpCeil, ir.OpRound, ir.OpTrunc:
		if dt == model.Float64 {
			m.kind = [...]uint8{mSqrtF, mExpF, mLogF, mSinF, mCosF, mTanF,
				mFloorF, mCeilF, mRoundF, mTruncF}[ins.Op-ir.OpSqrt]
		} else {
			m.kind = mRef
		}
	case ir.OpTruth:
		switch ins.DT2 {
		case model.Float64:
			m.kind = mTruthF
		case model.Float32:
			m.kind = mTruthF32
		default:
			// Non-float truth is "any payload bit set": sign extension
			// cannot zero a nonzero value, so the masked raw decides.
			// Invalid types decode to 0 (mask 0), like model.DecodeInt.
			m.kind = mTruthM
			m.mask = maskOf(ins.DT2)
		}
	case ir.OpCast:
		to, from := ins.DT, ins.DT2
		m.kind, m.mask, m.xorv, m.sh = 0, 0, 0, 0
		intLikeFrom := from == model.Bool || from.IsInteger()
		intLikeTo := to == model.Bool || to.IsInteger()
		switch {
		case to == from && to.Valid():
			m.kind = mMov // model.Cast is the identity on equal types
		case intLikeFrom && from.IsSigned():
			m.sh = uint8(64 - from.Size()*8)
			switch {
			case to == model.Bool:
				m.kind, m.xorv = mCastIB, maskOf(from)
			case to.IsInteger():
				m.kind, m.mask = mCastSX, maskOf(to)
			case to == model.Float64:
				m.kind = mCastSF64
			case to == model.Float32:
				m.kind = mCastSF32
			}
		case intLikeFrom:
			fm := maskOf(from)
			switch {
			case to == model.Bool:
				m.kind, m.xorv = mCastIB, fm
			case to.IsInteger():
				m.kind, m.mask = mCastZX, fm&maskOf(to)
			case to == model.Float64:
				m.kind, m.mask = mCastUF64, fm
			case to == model.Float32:
				m.kind, m.mask = mCastUF32, fm
			}
		case from == model.Float64 && to == model.Float32:
			m.kind = mCastF64F32
		case from == model.Float32 && to == model.Float64:
			m.kind = mCastF32F64
		case from.IsFloat() && intLikeTo:
			if from == model.Float64 {
				m.kind = mCastF64I
			} else {
				m.kind = mCastF32I
			}
			m.imm = math.Float64bits(float64(to.MinInt()))
			m.xorv = math.Float64bits(float64(to.MaxInt()))
			m.mask = maskOf(to)
		}
		if m.kind == mNop { // ill-typed pair
			m.kind = mRef
		}
	default:
		// Unknown opcodes execute as no-ops, exactly like the reference
		// interpreter's switch falling through every case.
		m.kind = mNop
	}
	return m
}

// cmpSel computes one of the six relational ops (selector = op - OpEq) over
// operands already normalized to unsigned order (masked, sign-bias xored).
func cmpSel(sel uint8, a, b uint64) uint64 {
	switch sel {
	case 0:
		return b2u(a == b)
	case 1:
		return b2u(a != b)
	case 2:
		return b2u(a < b)
	case 3:
		return b2u(a <= b)
	case 4:
		return b2u(a > b)
	default:
		return b2u(a >= b)
	}
}

// cmpSelF is cmpSel over decoded float64 operands.
func cmpSelF(sel uint8, a, b float64) uint64 {
	switch sel {
	case 0:
		return b2u(a == b)
	case 1:
		return b2u(a != b)
	case 2:
		return b2u(a < b)
	case 3:
		return b2u(a <= b)
	case 4:
		return b2u(a > b)
	default:
		return b2u(a >= b)
	}
}

// fusedCmp gives a compare-and-branch mop its inlined kind and reports
// whether the compare type has one (integer/bool masked order, or float64).
// A compare in any other type (Float32, invalid) is not fused: its dense or
// reference mop and its jump run separately. The op selector rides in the
// otherwise-unused sh field; mask/xorv are free in both fused compare
// layouts.
func fusedCmp(m *mop, op ir.Op, dt model.DType, constForm bool) bool {
	switch {
	case dt == model.Float64:
		m.kind = mFusedCmpJmpF
		if constForm {
			m.kind = mFusedConstCmpJmpF
		}
	case dt == model.Bool || dt.IsInteger():
		m.kind = mFusedCmpJmpM
		if constForm {
			m.kind = mFusedConstCmpJmpM
		}
		m.mask = maskOf(dt)
		if dt.IsSigned() {
			m.xorv = uint64(1) << uint(dt.Size()*8-1)
		}
	default:
		return false
	}
	m.sh = uint8(op - ir.OpEq)
	return true
}

// fuseMops installs superinstructions at fusion heads. The covered pcs keep
// their mops (nothing jumps there — fusion requires it), but the dispatch
// loop skips them by advancing cost instructions at once. The patterns are
// the statically hottest pairs/triples the lowering emits: compare-and-branch
// (with or without a constant operand), the probe diamonds around every
// decision, and the const/mov/loadState/storeState data glue between blocks.
// A conditional branch may only end a span, never start one — otherwise the
// span would straddle a basic-block boundary and a budget dying inside it
// would replay the fallthrough instructions past the branch.
func fuseMops(code []ir.Instr, ms []mop) (fused int) {
	targets := jumpTargets(code)
	end := len(code)
	isJcc := func(op ir.Op) bool { return op == ir.OpJmpIf || op == ir.OpJmpIfNot }
	for pc := 0; pc < len(code); {
		if pc+2 < len(code) && !targets[pc+1] && !targets[pc+2] {
			c0, c1, c2 := &code[pc], &code[pc+1], &code[pc+2]
			// const + cmp + jmpIf/jmpIfNot: branch on compare-to-immediate.
			if c0.Op == ir.OpConst && isCmp(c1.Op) &&
				(c1.A == c0.Dst || c1.B == c0.Dst) &&
				isJcc(c2.Op) && c2.A == c1.Dst {
				m := mop{
					cost: 3,
					imm:  c0.Imm,
					c:    int32(c0.Dst), // const destination register
					a:    int32(c1.A),
					b:    int32(c1.B),
					dst:  int32(c1.Dst),
					tgt:  int32(jumpTo(c2.Imm, end)),
					flag: c2.Op == ir.OpJmpIf,
				}
				if fusedCmp(&m, c1.Op, c1.DT, true) {
					ms[pc] = m
					fused++
					pc += 3
					continue
				}
			}
		}
		if pc+1 < len(code) && !targets[pc+1] {
			c0, c1 := &code[pc], &code[pc+1]
			var m mop
			switch {
			// cmp + jmpIf/jmpIfNot: every lowered branch condition.
			case isCmp(c0.Op) && isJcc(c1.Op) && c1.A == c0.Dst:
				m = mop{
					a:    int32(c0.A),
					b:    int32(c0.B),
					dst:  int32(c0.Dst),
					tgt:  int32(jumpTo(c1.Imm, end)),
					flag: c1.Op == ir.OpJmpIf,
				}
				fusedCmp(&m, c0.Op, c0.DT, false) // if not fused, kind stays 0: no span
			// probe + jmp / probe + conditional jump: the exit of every
			// decision diamond's arm.
			case c0.Op == ir.OpProbe && c1.Op == ir.OpJmp:
				m = mop{kind: mFusedProbeJmp, a: int32(c0.A), b: int32(c0.B),
					tgt: int32(jumpTo(c1.Imm, end))}
			case c0.Op == ir.OpProbe && isJcc(c1.Op):
				m = mop{kind: mFusedProbeJin, a: int32(c0.A), b: int32(c0.B),
					c: int32(c1.A), tgt: int32(jumpTo(c1.Imm, end)),
					flag: c1.Op == ir.OpJmpIf}
			case c0.Op == ir.OpProbe && c1.Op == ir.OpMov:
				m = mop{kind: mFusedProbeMov, a: int32(c0.A), b: int32(c0.B),
					dst: int32(c1.Dst), c: int32(c1.A)}
			// condProbe + conditional jump: branch on an MCDC-probed
			// condition.
			case c0.Op == ir.OpCondProbe && isJcc(c1.Op):
				m = mop{kind: mFusedCondProbeJin, a: int32(c0.A), b: int32(c0.B),
					c: int32(c1.A), tgt: int32(jumpTo(c1.Imm, end)),
					flag: c1.Op == ir.OpJmpIf}
			// mov + jmp: the join at the end of a branch arm.
			case c0.Op == ir.OpMov && c1.Op == ir.OpJmp:
				m = mop{kind: mFusedMovJmp, dst: int32(c0.Dst), a: int32(c0.A),
					tgt: int32(jumpTo(c1.Imm, end))}
			// const/mov/loadState/storeState glue pairs.
			case c0.Op == ir.OpConst && c1.Op == ir.OpConst:
				m = mop{kind: mFusedConstConst, c: int32(c0.Dst), imm: c0.Imm,
					dst: int32(c1.Dst), mask: c1.Imm}
			case c0.Op == ir.OpConst && c1.Op == ir.OpMov:
				m = mop{kind: mFusedConstMov, c: int32(c0.Dst), imm: c0.Imm,
					dst: int32(c1.Dst), a: int32(c1.A)}
			case c0.Op == ir.OpMov && c1.Op == ir.OpConst:
				m = mop{kind: mFusedMovConst, dst: int32(c0.Dst), a: int32(c0.A),
					c: int32(c1.Dst), imm: c1.Imm}
			case c0.Op == ir.OpStoreState && c1.Op == ir.OpConst:
				m = mop{kind: mFusedStConst, a: int32(c0.A), c: int32(c0.Imm),
					dst: int32(c1.Dst), imm: c1.Imm}
			case c0.Op == ir.OpConst && c1.Op == ir.OpStoreState:
				m = mop{kind: mFusedConstSt, c: int32(c0.Dst), imm: c0.Imm,
					a: int32(c1.A), tgt: int32(c1.Imm)}
			case c0.Op == ir.OpStoreState && c1.Op == ir.OpStoreState:
				m = mop{kind: mFusedStSt, a: int32(c0.A), c: int32(c0.Imm),
					b: int32(c1.A), tgt: int32(c1.Imm)}
			case c0.Op == ir.OpLoadState && c1.Op == ir.OpMov:
				m = mop{kind: mFusedLdMov, c: int32(c0.Dst), imm: c0.Imm,
					dst: int32(c1.Dst), a: int32(c1.A)}
			case c0.Op == ir.OpMov && c1.Op == ir.OpLoadState:
				m = mop{kind: mFusedMovLd, dst: int32(c0.Dst), a: int32(c0.A),
					c: int32(c1.Dst), imm: c1.Imm}
			}
			if m.kind != 0 {
				m.cost = 2
				ms[pc] = m
				fused++
				pc += 2
				continue
			}
		}
		pc++
	}
	return fused
}

// rld and rst access the register file through a raw base pointer, skipping
// the per-access bounds check the hot loop would otherwise pay on every
// operand. What licenses this: CompileThreaded refuses (panics on) any
// program that fails ir.Validate, and Validate range-checks every register
// operand of every instruction against NumRegs — so by the time a mop
// stream executes, every dst/a/b/c/imm register index is proven in-bounds
// for a file of NumRegs words.
func rld(base unsafe.Pointer, i int32) uint64 {
	return *(*uint64)(unsafe.Add(base, uintptr(uint32(i))*8))
}

func rst(base unsafe.Pointer, i int32, v uint64) {
	*(*uint64)(unsafe.Add(base, uintptr(uint32(i))*8)) = v
}

// runMops is the inner interpreter loop of every Threaded machine. Fuel
// is charged before execution, exactly mirroring the reference interpreter's
// check-before-execute order: cost instructions per dispatch (1, or a fused
// mop's span). When the budget dies inside a fused span, its
// still-affordable prefix replays through the reference step, so every
// executed instruction's side effects land and the hang pc is the precise
// instruction the reference would have stopped at.
func runMops(f *funcCode, s *execState, budget int64) (left int64, hangPC int, hung bool) {
	state := s.state
	var rb unsafe.Pointer
	if len(s.regs) > 0 {
		rb = unsafe.Pointer(&s.regs[0])
	}
	fuel := budget
	// The stream ends in a zero-cost sentinel halt (see compileFunc) and
	// every pc transition below stays within [0, len(ms)-1]: sequential
	// advances never step past a span that fits the original code, and jump
	// targets are clamped to the sentinel at compile time. That invariant
	// replaces both the loop-bound test and the fetch bounds check.
	mb := unsafe.Pointer(&f.ms[0])
	pc := 0
	for {
		m := (*mop)(unsafe.Add(mb, uintptr(uint(pc))*unsafe.Sizeof(mop{})))
		c := int64(m.cost)
		if fuel < c {
			// The prefix holds no control transfer (a fused span may only
			// end in one), so it runs straight through.
			for i := 0; i < int(fuel); i++ {
				s.step(f.src, pc+i)
			}
			return 0, pc + int(fuel), true
		}
		fuel -= c
		switch m.kind {
		case mNop:
			pc++
		case mConst:
			rst(rb, int32(m.dst), m.imm)
			pc++
		case mMov:
			rst(rb, int32(m.dst), rld(rb, int32(m.a)))
			pc++
		case mSelect:
			if rld(rb, int32(m.a)) != 0 {
				rst(rb, int32(m.dst), rld(rb, int32(m.b)))
			} else {
				rst(rb, int32(m.dst), rld(rb, int32(m.c)))
			}
			pc++
		case mLoadIn:
			rst(rb, int32(m.dst), s.in[m.imm])
			pc++
		case mStoreOut:
			s.out[m.imm] = rld(rb, int32(m.a))
			pc++
		case mLoadState:
			rst(rb, int32(m.dst), state[m.imm])
			pc++
		case mStoreState:
			state[m.imm] = rld(rb, int32(m.a))
			pc++
		case mJmp:
			pc = int(m.tgt)
		case mJmpIf:
			if rld(rb, int32(m.a)) != 0 {
				pc = int(m.tgt)
			} else {
				pc++
			}
		case mJmpIfNot:
			if rld(rb, int32(m.a)) == 0 {
				pc = int(m.tgt)
			} else {
				pc++
			}
		case mHalt:
			return fuel, 0, false
		case mProbe:
			if s.rec != nil {
				s.rec.Outcome(int(m.a), int(m.b))
			}
			pc++
		case mCondProbe:
			if s.rec != nil {
				s.rec.Cond(int(m.a), rld(rb, int32(m.b)) != 0)
			}
			pc++

		case mAddM:
			rst(rb, int32(m.dst), (rld(rb, int32(m.a))&m.mask+rld(rb, int32(m.b))&m.mask)&m.mask)
			pc++
		case mSubM:
			rst(rb, int32(m.dst), (rld(rb, int32(m.a))&m.mask-rld(rb, int32(m.b))&m.mask)&m.mask)
			pc++
		case mMulM:
			rst(rb, int32(m.dst), (rld(rb, int32(m.a))&m.mask)*(rld(rb, int32(m.b))&m.mask)&m.mask)
			pc++
		case mDivU:
			y := rld(rb, int32(m.b)) & m.mask
			if y == 0 {
				rst(rb, int32(m.dst), 0)
			} else {
				rst(rb, int32(m.dst), (rld(rb, int32(m.a))&m.mask)/y)
			}
			pc++
		case mDivS:
			y := int64(rld(rb, int32(m.b))<<m.sh) >> m.sh
			if y == 0 {
				rst(rb, int32(m.dst), 0)
			} else {
				rst(rb, int32(m.dst), uint64((int64(rld(rb, int32(m.a))<<m.sh)>>m.sh)/y)&m.mask)
			}
			pc++
		case mMinM:
			x, y := rld(rb, int32(m.a))&m.mask, rld(rb, int32(m.b))&m.mask
			if y^m.xorv < x^m.xorv {
				x = y
			}
			rst(rb, int32(m.dst), x)
			pc++
		case mMaxM:
			x, y := rld(rb, int32(m.a))&m.mask, rld(rb, int32(m.b))&m.mask
			if y^m.xorv > x^m.xorv {
				x = y
			}
			rst(rb, int32(m.dst), x)
			pc++
		case mBitAndM:
			rst(rb, int32(m.dst), rld(rb, int32(m.a))&rld(rb, int32(m.b))&m.mask)
			pc++
		case mBitOrM:
			rst(rb, int32(m.dst), (rld(rb, int32(m.a))|rld(rb, int32(m.b)))&m.mask)
			pc++
		case mBitXorM:
			rst(rb, int32(m.dst), (rld(rb, int32(m.a))^rld(rb, int32(m.b)))&m.mask)
			pc++
		case mShlM:
			rst(rb, int32(m.dst), (rld(rb, int32(m.a))&m.mask<<(rld(rb, int32(m.b))&31))&m.mask)
			pc++
		case mShrU:
			rst(rb, int32(m.dst), rld(rb, int32(m.a))&m.mask>>(rld(rb, int32(m.b))&31))
			pc++
		case mShrS:
			rst(rb, int32(m.dst), uint64((int64(rld(rb, int32(m.a))<<m.sh)>>m.sh)>>(rld(rb, int32(m.b))&31))&m.mask)
			pc++
		case mNegM:
			rst(rb, int32(m.dst), (0-rld(rb, int32(m.a))&m.mask)&m.mask)
			pc++
		case mAbsU:
			rst(rb, int32(m.dst), rld(rb, int32(m.a))&m.mask)
			pc++
		case mAbsS:
			v := int64(rld(rb, int32(m.a))<<m.sh) >> m.sh
			if v < 0 {
				v = -v
			}
			rst(rb, int32(m.dst), uint64(v)&m.mask)
			pc++
		case mEqM:
			rst(rb, int32(m.dst), b2u(rld(rb, int32(m.a))&m.mask == rld(rb, int32(m.b))&m.mask))
			pc++
		case mNeM:
			rst(rb, int32(m.dst), b2u(rld(rb, int32(m.a))&m.mask != rld(rb, int32(m.b))&m.mask))
			pc++
		case mLtM:
			rst(rb, int32(m.dst), b2u(rld(rb, int32(m.a))&m.mask^m.xorv < rld(rb, int32(m.b))&m.mask^m.xorv))
			pc++
		case mLeM:
			rst(rb, int32(m.dst), b2u(rld(rb, int32(m.a))&m.mask^m.xorv <= rld(rb, int32(m.b))&m.mask^m.xorv))
			pc++
		case mGtM:
			rst(rb, int32(m.dst), b2u(rld(rb, int32(m.a))&m.mask^m.xorv > rld(rb, int32(m.b))&m.mask^m.xorv))
			pc++
		case mGeM:
			rst(rb, int32(m.dst), b2u(rld(rb, int32(m.a))&m.mask^m.xorv >= rld(rb, int32(m.b))&m.mask^m.xorv))
			pc++
		case mTruthM:
			rst(rb, int32(m.dst), b2u(rld(rb, int32(m.a))&m.mask != 0))
			pc++

		case mAnd:
			rst(rb, int32(m.dst), rld(rb, int32(m.a))&rld(rb, int32(m.b))&1)
			pc++
		case mOr:
			rst(rb, int32(m.dst), (rld(rb, int32(m.a))|rld(rb, int32(m.b)))&1)
			pc++
		case mXor:
			rst(rb, int32(m.dst), (rld(rb, int32(m.a))^rld(rb, int32(m.b)))&1)
			pc++
		case mNot:
			rst(rb, int32(m.dst), (rld(rb, int32(m.a))&1)^1)
			pc++

		case mAddF:
			rst(rb, int32(m.dst), math.Float64bits(math.Float64frombits(rld(rb, int32(m.a)))+math.Float64frombits(rld(rb, int32(m.b)))))
			pc++
		case mSubF:
			rst(rb, int32(m.dst), math.Float64bits(math.Float64frombits(rld(rb, int32(m.a)))-math.Float64frombits(rld(rb, int32(m.b)))))
			pc++
		case mMulF:
			rst(rb, int32(m.dst), math.Float64bits(math.Float64frombits(rld(rb, int32(m.a)))*math.Float64frombits(rld(rb, int32(m.b)))))
			pc++
		case mDivF:
			y := math.Float64frombits(rld(rb, int32(m.b)))
			if y == 0 {
				rst(rb, int32(m.dst), 0)
			} else {
				rst(rb, int32(m.dst), math.Float64bits(math.Float64frombits(rld(rb, int32(m.a)))/y))
			}
			pc++
		case mMinF:
			rst(rb, int32(m.dst), math.Float64bits(math.Min(math.Float64frombits(rld(rb, int32(m.a))), math.Float64frombits(rld(rb, int32(m.b))))))
			pc++
		case mMaxF:
			rst(rb, int32(m.dst), math.Float64bits(math.Max(math.Float64frombits(rld(rb, int32(m.a))), math.Float64frombits(rld(rb, int32(m.b))))))
			pc++
		case mNegF:
			rst(rb, int32(m.dst), math.Float64bits(-math.Float64frombits(rld(rb, int32(m.a)))))
			pc++
		case mAbsF:
			rst(rb, int32(m.dst), math.Float64bits(math.Abs(math.Float64frombits(rld(rb, int32(m.a))))))
			pc++
		case mSqrtF:
			x := math.Float64frombits(rld(rb, int32(m.a)))
			if x < 0 {
				rst(rb, int32(m.dst), 0)
			} else {
				rst(rb, int32(m.dst), math.Float64bits(math.Sqrt(x)))
			}
			pc++
		case mExpF:
			rst(rb, int32(m.dst), math.Float64bits(math.Exp(math.Float64frombits(rld(rb, int32(m.a))))))
			pc++
		case mLogF:
			x := math.Float64frombits(rld(rb, int32(m.a)))
			if x <= 0 {
				rst(rb, int32(m.dst), 0)
			} else {
				rst(rb, int32(m.dst), math.Float64bits(math.Log(x)))
			}
			pc++
		case mSinF:
			rst(rb, int32(m.dst), math.Float64bits(math.Sin(math.Float64frombits(rld(rb, int32(m.a))))))
			pc++
		case mCosF:
			rst(rb, int32(m.dst), math.Float64bits(math.Cos(math.Float64frombits(rld(rb, int32(m.a))))))
			pc++
		case mTanF:
			rst(rb, int32(m.dst), math.Float64bits(math.Tan(math.Float64frombits(rld(rb, int32(m.a))))))
			pc++
		case mFloorF:
			rst(rb, int32(m.dst), math.Float64bits(math.Floor(math.Float64frombits(rld(rb, int32(m.a))))))
			pc++
		case mCeilF:
			rst(rb, int32(m.dst), math.Float64bits(math.Ceil(math.Float64frombits(rld(rb, int32(m.a))))))
			pc++
		case mRoundF:
			rst(rb, int32(m.dst), math.Float64bits(math.Round(math.Float64frombits(rld(rb, int32(m.a))))))
			pc++
		case mTruncF:
			rst(rb, int32(m.dst), math.Float64bits(math.Trunc(math.Float64frombits(rld(rb, int32(m.a))))))
			pc++
		case mEqF:
			rst(rb, int32(m.dst), b2u(math.Float64frombits(rld(rb, int32(m.a))) == math.Float64frombits(rld(rb, int32(m.b)))))
			pc++
		case mNeF:
			rst(rb, int32(m.dst), b2u(math.Float64frombits(rld(rb, int32(m.a))) != math.Float64frombits(rld(rb, int32(m.b)))))
			pc++
		case mLtF:
			rst(rb, int32(m.dst), b2u(math.Float64frombits(rld(rb, int32(m.a))) < math.Float64frombits(rld(rb, int32(m.b)))))
			pc++
		case mLeF:
			rst(rb, int32(m.dst), b2u(math.Float64frombits(rld(rb, int32(m.a))) <= math.Float64frombits(rld(rb, int32(m.b)))))
			pc++
		case mGtF:
			rst(rb, int32(m.dst), b2u(math.Float64frombits(rld(rb, int32(m.a))) > math.Float64frombits(rld(rb, int32(m.b)))))
			pc++
		case mGeF:
			rst(rb, int32(m.dst), b2u(math.Float64frombits(rld(rb, int32(m.a))) >= math.Float64frombits(rld(rb, int32(m.b)))))
			pc++
		case mTruthF:
			rst(rb, int32(m.dst), b2u(math.Float64frombits(rld(rb, int32(m.a))) != 0))
			pc++
		case mTruthF32:
			rst(rb, int32(m.dst), b2u(math.Float32frombits(uint32(rld(rb, int32(m.a)))) != 0))
			pc++

		case mAddF32:
			v := float64(math.Float32frombits(uint32(rld(rb, int32(m.a))))) + float64(math.Float32frombits(uint32(rld(rb, int32(m.b)))))
			rst(rb, int32(m.dst), uint64(math.Float32bits(float32(v))))
			pc++
		case mSubF32:
			v := float64(math.Float32frombits(uint32(rld(rb, int32(m.a))))) - float64(math.Float32frombits(uint32(rld(rb, int32(m.b)))))
			rst(rb, int32(m.dst), uint64(math.Float32bits(float32(v))))
			pc++
		case mMulF32:
			v := float64(math.Float32frombits(uint32(rld(rb, int32(m.a))))) * float64(math.Float32frombits(uint32(rld(rb, int32(m.b)))))
			rst(rb, int32(m.dst), uint64(math.Float32bits(float32(v))))
			pc++
		case mDivF32:
			y := float64(math.Float32frombits(uint32(rld(rb, int32(m.b)))))
			if y == 0 {
				rst(rb, int32(m.dst), uint64(math.Float32bits(0)))
			} else {
				v := float64(math.Float32frombits(uint32(rld(rb, int32(m.a))))) / y
				rst(rb, int32(m.dst), uint64(math.Float32bits(float32(v))))
			}
			pc++
		case mMinF32:
			v := math.Min(float64(math.Float32frombits(uint32(rld(rb, int32(m.a))))), float64(math.Float32frombits(uint32(rld(rb, int32(m.b))))))
			rst(rb, int32(m.dst), uint64(math.Float32bits(float32(v))))
			pc++
		case mMaxF32:
			v := math.Max(float64(math.Float32frombits(uint32(rld(rb, int32(m.a))))), float64(math.Float32frombits(uint32(rld(rb, int32(m.b))))))
			rst(rb, int32(m.dst), uint64(math.Float32bits(float32(v))))
			pc++
		case mNegF32:
			rst(rb, int32(m.dst), uint64(math.Float32bits(float32(-float64(math.Float32frombits(uint32(rld(rb, int32(m.a)))))))))
			pc++
		case mAbsF32:
			rst(rb, int32(m.dst), uint64(math.Float32bits(float32(math.Abs(float64(math.Float32frombits(uint32(rld(rb, int32(m.a))))))))))
			pc++
		case mEqF32:
			rst(rb, int32(m.dst), b2u(math.Float32frombits(uint32(rld(rb, int32(m.a)))) == math.Float32frombits(uint32(rld(rb, int32(m.b))))))
			pc++
		case mNeF32:
			rst(rb, int32(m.dst), b2u(math.Float32frombits(uint32(rld(rb, int32(m.a)))) != math.Float32frombits(uint32(rld(rb, int32(m.b))))))
			pc++
		case mLtF32:
			rst(rb, int32(m.dst), b2u(math.Float32frombits(uint32(rld(rb, int32(m.a)))) < math.Float32frombits(uint32(rld(rb, int32(m.b))))))
			pc++
		case mLeF32:
			rst(rb, int32(m.dst), b2u(math.Float32frombits(uint32(rld(rb, int32(m.a)))) <= math.Float32frombits(uint32(rld(rb, int32(m.b))))))
			pc++
		case mGtF32:
			rst(rb, int32(m.dst), b2u(math.Float32frombits(uint32(rld(rb, int32(m.a)))) > math.Float32frombits(uint32(rld(rb, int32(m.b))))))
			pc++
		case mGeF32:
			rst(rb, int32(m.dst), b2u(math.Float32frombits(uint32(rld(rb, int32(m.a)))) >= math.Float32frombits(uint32(rld(rb, int32(m.b))))))
			pc++

		case mRef:
			pc = s.step(f.src, pc)

		case mCastZX:
			rst(rb, int32(m.dst), rld(rb, int32(m.a))&m.mask)
			pc++
		case mCastSX:
			rst(rb, int32(m.dst), uint64(int64(rld(rb, int32(m.a))<<m.sh)>>m.sh)&m.mask)
			pc++
		case mCastIB:
			rst(rb, int32(m.dst), b2u(rld(rb, int32(m.a))&m.xorv != 0))
			pc++
		case mCastSF64:
			rst(rb, int32(m.dst), math.Float64bits(float64(int64(rld(rb, int32(m.a))<<m.sh)>>m.sh)))
			pc++
		case mCastSF32:
			rst(rb, int32(m.dst), uint64(math.Float32bits(float32(int64(rld(rb, int32(m.a))<<m.sh)>>m.sh))))
			pc++
		case mCastUF64:
			rst(rb, int32(m.dst), math.Float64bits(float64(rld(rb, int32(m.a))&m.mask)))
			pc++
		case mCastUF32:
			rst(rb, int32(m.dst), uint64(math.Float32bits(float32(rld(rb, int32(m.a))&m.mask))))
			pc++
		case mCastF64I:
			x := math.Trunc(math.Float64frombits(rld(rb, int32(m.a))))
			if x != x { // NaN
				x = 0
			}
			if lo := math.Float64frombits(m.imm); x < lo {
				x = lo
			}
			if hi := math.Float64frombits(m.xorv); x > hi {
				x = hi
			}
			rst(rb, int32(m.dst), uint64(int64(x))&m.mask)
			pc++
		case mCastF32I:
			x := math.Trunc(float64(math.Float32frombits(uint32(rld(rb, int32(m.a))))))
			if x != x { // NaN
				x = 0
			}
			if lo := math.Float64frombits(m.imm); x < lo {
				x = lo
			}
			if hi := math.Float64frombits(m.xorv); x > hi {
				x = hi
			}
			rst(rb, int32(m.dst), uint64(int64(x))&m.mask)
			pc++
		case mCastF64F32:
			rst(rb, int32(m.dst), uint64(math.Float32bits(float32(math.Float64frombits(rld(rb, int32(m.a)))))))
			pc++
		case mCastF32F64:
			rst(rb, int32(m.dst), math.Float64bits(float64(math.Float32frombits(uint32(rld(rb, int32(m.a)))))))
			pc++

		case mFusedCmpJmpM:
			v := cmpSel(m.sh, rld(rb, int32(m.a))&m.mask^m.xorv, rld(rb, int32(m.b))&m.mask^m.xorv)
			rst(rb, int32(m.dst), v)
			if (v != 0) == m.flag {
				pc = int(m.tgt)
			} else {
				pc += 2
			}
		case mFusedCmpJmpF:
			v := cmpSelF(m.sh, math.Float64frombits(rld(rb, int32(m.a))), math.Float64frombits(rld(rb, int32(m.b))))
			rst(rb, int32(m.dst), v)
			if (v != 0) == m.flag {
				pc = int(m.tgt)
			} else {
				pc += 2
			}
		case mFusedConstCmpJmpM:
			rst(rb, int32(m.c), m.imm)
			v := cmpSel(m.sh, rld(rb, int32(m.a))&m.mask^m.xorv, rld(rb, int32(m.b))&m.mask^m.xorv)
			rst(rb, int32(m.dst), v)
			if (v != 0) == m.flag {
				pc = int(m.tgt)
			} else {
				pc += 3
			}
		case mFusedConstCmpJmpF:
			rst(rb, int32(m.c), m.imm)
			v := cmpSelF(m.sh, math.Float64frombits(rld(rb, int32(m.a))), math.Float64frombits(rld(rb, int32(m.b))))
			rst(rb, int32(m.dst), v)
			if (v != 0) == m.flag {
				pc = int(m.tgt)
			} else {
				pc += 3
			}
		case mFusedMovJmp:
			rst(rb, int32(m.dst), rld(rb, int32(m.a)))
			pc = int(m.tgt)
		case mFusedProbeJmp:
			if s.rec != nil {
				s.rec.Outcome(int(m.a), int(m.b))
			}
			pc = int(m.tgt)
		case mFusedProbeJin:
			if s.rec != nil {
				s.rec.Outcome(int(m.a), int(m.b))
			}
			if (rld(rb, int32(m.c)) != 0) == m.flag {
				pc = int(m.tgt)
			} else {
				pc += 2
			}
		case mFusedCondProbeJin:
			if s.rec != nil {
				s.rec.Cond(int(m.a), rld(rb, int32(m.b)) != 0)
			}
			if (rld(rb, int32(m.c)) != 0) == m.flag {
				pc = int(m.tgt)
			} else {
				pc += 2
			}
		case mFusedConstConst:
			rst(rb, int32(m.c), m.imm)
			rst(rb, int32(m.dst), m.mask)
			pc += 2
		case mFusedConstMov:
			rst(rb, int32(m.c), m.imm)
			rst(rb, int32(m.dst), rld(rb, int32(m.a)))
			pc += 2
		case mFusedMovConst:
			rst(rb, int32(m.dst), rld(rb, int32(m.a)))
			rst(rb, int32(m.c), m.imm)
			pc += 2
		case mFusedProbeMov:
			if s.rec != nil {
				s.rec.Outcome(int(m.a), int(m.b))
			}
			rst(rb, int32(m.dst), rld(rb, int32(m.c)))
			pc += 2
		case mFusedStConst:
			state[m.c] = rld(rb, int32(m.a))
			rst(rb, int32(m.dst), m.imm)
			pc += 2
		case mFusedConstSt:
			rst(rb, int32(m.c), m.imm)
			state[m.tgt] = rld(rb, int32(m.a))
			pc += 2
		case mFusedStSt:
			state[m.c] = rld(rb, int32(m.a))
			state[m.tgt] = rld(rb, int32(m.b))
			pc += 2
		case mFusedLdMov:
			rst(rb, int32(m.c), state[m.imm])
			rst(rb, int32(m.dst), rld(rb, int32(m.a)))
			pc += 2
		case mFusedMovLd:
			rst(rb, int32(m.dst), rld(rb, int32(m.a)))
			rst(rb, int32(m.c), state[m.imm])
			pc += 2
		}
	}
}
