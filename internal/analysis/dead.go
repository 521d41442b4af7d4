package analysis

import (
	"math"

	"cftcg/internal/coverage"
	"cftcg/internal/interval"
	"cftcg/internal/ir"
	"cftcg/internal/model"
)

// Pass 2: abstract interpretation with constant propagation (point
// intervals) and interval domains over Init followed by an iterated Step, to
// prove decision outcomes and condition polarities infeasible. Soundness is
// the contract: a slot is reported dead only if no concrete input sequence
// can ever record it. To honor that against IEEE float semantics the domain
// carries a may-be-NaN flag alongside each interval (NaN lies outside every
// interval, compares false against everything, and propagates through
// arithmetic), float inputs are unbounded, and Float32 results are widened
// outward by one ULP to absorb re-rounding.
//
// Like the SLDV solver, the analysis assumes branch and select conditions
// are bool-typed registers (raw 0/1), which the lowering guarantees: the VM
// tests raw bits while the domain tracks decoded values, and only for bool
// registers are the two always identical.

// aval is one abstract register or state slot: an interval of decoded
// values plus whether the concrete value might be a float NaN.
type aval struct {
	v   interval.Interval
	nan bool
}

func topVal() aval {
	return aval{interval.Span(math.Inf(-1), math.Inf(1)), true}
}

func (a aval) join(b aval) aval {
	return aval{a.v.Hull(b.v), a.nan || b.nan}
}

func (a aval) eq(b aval) bool { return a.v == b.v && a.nan == b.nan }

// sanitize repairs NaN bounds (possible from Inf*0 during interval
// arithmetic) into the full range with the NaN flag set.
func sanitize(a aval) aval {
	if math.IsNaN(a.v.Lo) || math.IsNaN(a.v.Hi) || a.v.Lo > a.v.Hi {
		return topVal()
	}
	return a
}

// truth is three-valued truth of an abstract condition register: a possible
// NaN can test either way at the raw-bits level.
func (a aval) truth() interval.Tri {
	if a.nan {
		return interval.TriMixed
	}
	return a.v.Truth()
}

func hasInf(a aval) bool {
	return math.IsInf(a.v.Lo, 0) || math.IsInf(a.v.Hi, 0)
}

// f32Out widens Float32 results outward by one single-precision ULP so the
// concrete re-rounding performed by the VM's encode step stays inside the
// bounds.
func f32Out(dt model.DType, a aval) aval {
	if dt != model.Float32 {
		return a
	}
	lo, hi := a.v.Lo, a.v.Hi
	if !math.IsInf(lo, 0) {
		lo = float64(math.Nextafter32(float32(lo), float32(math.Inf(-1))))
	}
	if !math.IsInf(hi, 0) {
		hi = float64(math.Nextafter32(float32(hi), float32(math.Inf(1))))
	}
	return aval{interval.Span(lo, hi), a.nan}
}

// env is the abstract machine memory at one program point.
type env struct {
	regs  []aval
	state []aval
}

func (e *env) clone() *env {
	return &env{regs: append([]aval(nil), e.regs...), state: append([]aval(nil), e.state...)}
}

func joinEnvs(a, b *env) *env {
	out := a.clone()
	for i := range out.regs {
		out.regs[i] = out.regs[i].join(b.regs[i])
	}
	for i := range out.state {
		out.state[i] = out.state[i].join(b.state[i])
	}
	return out
}

func envsEqual(a, b *env) bool {
	for i := range a.regs {
		if !a.regs[i].eq(b.regs[i]) {
			return false
		}
	}
	for i := range a.state {
		if !a.state[i].eq(b.state[i]) {
			return false
		}
	}
	return true
}

// widenInto widens every bound of next that grew past prev out to infinity,
// forcing the chaotic iteration to converge.
func widenInto(prev, next *env) {
	w := func(p, n aval) aval {
		if n.v.Lo < p.v.Lo {
			n.v.Lo = math.Inf(-1)
		}
		if n.v.Hi > p.v.Hi {
			n.v.Hi = math.Inf(1)
		}
		return n
	}
	for i := range next.regs {
		next.regs[i] = w(prev.regs[i], next.regs[i])
	}
	for i := range next.state {
		next.state[i] = w(prev.state[i], next.state[i])
	}
}

const (
	widenBlockVisits = 8  // per-block joins before widening inside a function
	widenStepRounds  = 4  // outer Step iterations before widening the state
	maxStepRounds    = 64 // hard stop (widening converges long before this)
)

// absFunc abstractly executes one function from an entry environment and
// returns the join of all exit environments. Probe feasibility is
// accumulated into feas as probes are reached.
type absInterp struct {
	p    *ir.Program
	plan *coverage.Plan
	in   []aval // abstract input fields
	feas []bool // per branch slot: some abstract path records it
}

func (ai *absInterp) absFunc(code []ir.Instr, entry *env) *env {
	blocks := buildBlocks(code)
	if len(blocks) == 0 {
		return entry.clone()
	}
	ins := make([]*env, len(blocks))
	visits := make([]int, len(blocks))
	ins[0] = entry.clone()
	work := []int{0}
	inWork := make([]bool, len(blocks))
	inWork[0] = true
	var exit *env
	noteExit := func(e *env) {
		if exit == nil {
			exit = e.clone()
		} else {
			exit = joinEnvs(exit, e)
		}
	}
	propagate := func(succ int, e *env) {
		if succ >= len(blocks) {
			noteExit(e)
			return
		}
		if ins[succ] == nil {
			ins[succ] = e.clone()
		} else {
			joined := joinEnvs(ins[succ], e)
			visits[succ]++
			if visits[succ] >= widenBlockVisits {
				widenInto(ins[succ], joined)
			}
			if envsEqual(joined, ins[succ]) {
				return
			}
			ins[succ] = joined
		}
		if !inWork[succ] {
			inWork[succ] = true
			work = append(work, succ)
		}
	}
	cmps := make(map[int32]cmpDef)
	for len(work) > 0 {
		bi := work[len(work)-1]
		work = work[:len(work)-1]
		inWork[bi] = false
		b := blocks[bi]
		e := ins[bi].clone()
		halted := false
		// Block-local reaching compare definitions, for branch narrowing.
		for k := range cmps {
			delete(cmps, k)
		}
		for pc := b.start; pc < b.end; pc++ {
			instr := &code[pc]
			switch instr.Op {
			case ir.OpJmp, ir.OpJmpIf, ir.OpJmpIfNot:
				// handled below via successors
			case ir.OpHalt:
				halted = true
			default:
				ai.step(e, instr)
				if dst, _ := Operands(instr); dst >= 0 {
					for r, cd := range cmps {
						if r == dst || cd.a == dst || cd.b == dst {
							delete(cmps, r)
						}
					}
					switch instr.Op {
					case ir.OpLt, ir.OpLe, ir.OpGt, ir.OpGe, ir.OpEq, ir.OpNe:
						cmps[dst] = cmpDef{op: instr.Op, dt: instr.DT, a: instr.A, b: instr.B}
					}
				}
			}
		}
		if halted {
			noteExit(e)
			continue
		}
		last := &code[b.end-1]
		switch last.Op {
		case ir.OpJmp:
			propagate(b.succs[0], e)
		case ir.OpJmpIf, ir.OpJmpIfNot:
			cd, narrowable := cmps[last.A]
			edge := func(succ int, verdict bool) {
				ne := e
				if narrowable {
					if ne = narrow(e, cd, verdict); ne == nil {
						return // narrowing proves this edge infeasible
					}
				}
				propagate(succ, ne)
			}
			// succs[0] is the jump target: the cond-true edge for JmpIf, the
			// cond-false edge for JmpIfNot.
			trueSucc, falseSucc := b.succs[0], b.succs[1]
			if last.Op == ir.OpJmpIfNot {
				trueSucc, falseSucc = b.succs[1], b.succs[0]
			}
			t := e.regs[last.A].truth()
			if t.CanTrue() {
				edge(trueSucc, true)
			}
			if t.CanFalse() {
				edge(falseSucc, false)
			}
		default:
			propagate(b.succs[0], e)
		}
	}
	if exit == nil {
		// No path leaves the function (e.g. an abstract infinite loop);
		// treat the entry as the exit so the caller keeps a sound state.
		exit = entry.clone()
	}
	return exit
}

// cmpDef remembers that a bool register was defined by a comparison within
// the current block, enabling operand narrowing along the branch edges.
type cmpDef struct {
	op   ir.Op
	dt   model.DType
	a, b int32
}

// inverseCmp maps a relation to its negation.
func inverseCmp(op ir.Op) ir.Op {
	switch op {
	case ir.OpLt:
		return ir.OpGe
	case ir.OpLe:
		return ir.OpGt
	case ir.OpGt:
		return ir.OpLe
	case ir.OpGe:
		return ir.OpLt
	case ir.OpEq:
		return ir.OpNe
	}
	return ir.OpEq // OpNe
}

// narrow refines the branch-condition operands along one edge of a
// compare-driven branch, or returns nil when the edge is proved infeasible.
//
// NaN care: a NaN operand makes every relation except != evaluate false, so
// the verdict-true edge of <,<=,>,>= and == (and the verdict-false edge of
// !=) proves both operands non-NaN; the other edges keep the NaN flag and
// only the interval halves are refined (sound: intervals never describe the
// NaN case).
func narrow(e *env, cd cmpDef, verdict bool) *env {
	if cd.a == cd.b {
		return e
	}
	op := cd.op
	if !verdict {
		op = inverseCmp(op)
	}
	// A NaN operand makes every relation except != false, so NaN operands
	// can only take the edge whose verdict a NaN produces.
	nanEdge := verdict == (cd.op == ir.OpNe)
	a, b := e.regs[cd.a], e.regs[cd.b]
	// Integer relations can exclude the equal endpoint on strict edges.
	d := 0.0
	if cd.dt.IsInteger() || cd.dt == model.Bool {
		d = 1
	}
	alo, ahi := a.v.Lo, a.v.Hi
	blo, bhi := b.v.Lo, b.v.Hi
	switch op {
	case ir.OpLt:
		ahi = math.Min(ahi, bhi-d)
		blo = math.Max(blo, alo+d)
	case ir.OpLe:
		ahi = math.Min(ahi, bhi)
		blo = math.Max(blo, alo)
	case ir.OpGt:
		alo = math.Max(alo, blo+d)
		bhi = math.Min(bhi, ahi-d)
	case ir.OpGe:
		alo = math.Max(alo, blo)
		bhi = math.Min(bhi, ahi)
	case ir.OpEq:
		alo = math.Max(alo, blo)
		blo = alo
		ahi = math.Min(ahi, bhi)
		bhi = ahi
	default: // OpNe: disequality refines no interval
		return e
	}
	aNan := a.nan && nanEdge
	bNan := b.nan && nanEdge
	if (alo > ahi && !aNan) || (blo > bhi && !bNan) {
		return nil // no concrete operand pair can take this edge
	}
	ne := e.clone()
	if alo > ahi {
		ne.regs[cd.a] = topVal() // only the NaN case remains
	} else {
		ne.regs[cd.a] = aval{interval.Span(alo, ahi), aNan}
	}
	if blo > bhi {
		ne.regs[cd.b] = topVal()
	} else {
		ne.regs[cd.b] = aval{interval.Span(blo, bhi), bNan}
	}
	return ne
}

// step applies one non-control-flow instruction to the environment.
func (ai *absInterp) step(e *env, instr *ir.Instr) {
	set := func(a aval) { e.regs[instr.Dst] = sanitize(a) }
	switch instr.Op {
	case ir.OpNop, ir.OpStoreOut:
	case ir.OpProbe:
		if d := int(instr.A); ai.plan != nil && d >= 0 && d < len(ai.plan.Decisions) {
			dec := ai.plan.Decision(d)
			if o := int(instr.B); o >= 0 && o < dec.NumOutcomes {
				ai.feas[dec.OutcomeBase+o] = true
			}
		}
	case ir.OpCondProbe:
		if c := int(instr.A); ai.plan != nil && c >= 0 && c < len(ai.plan.Conds) {
			cond := ai.plan.Cond(c)
			t := e.regs[instr.B].truth()
			if t.CanTrue() {
				ai.feas[cond.BranchBase] = true
			}
			if t.CanFalse() {
				ai.feas[cond.BranchBase+1] = true
			}
		}
	case ir.OpConst:
		v := model.Decode(instr.DT, instr.Imm)
		if math.IsNaN(v) {
			set(topVal())
		} else {
			set(aval{interval.Point(v), false})
		}
	case ir.OpMov:
		set(e.regs[instr.A])
	case ir.OpLoadIn:
		set(ai.in[instr.Imm])
	case ir.OpLoadState:
		set(e.state[instr.Imm])
	case ir.OpStoreState:
		e.state[instr.Imm] = e.regs[instr.A]
	case ir.OpAdd, ir.OpSub, ir.OpMul, ir.OpDiv, ir.OpMin, ir.OpMax:
		set(ai.arith(instr.Op, instr.DT, e.regs[instr.A], e.regs[instr.B]))
	case ir.OpNeg:
		a := e.regs[instr.A]
		set(f32Out(instr.DT, aval{interval.WrapArith(instr.DT, interval.Neg(a.v)), a.nan && instr.DT.IsFloat()}))
	case ir.OpAbs:
		a := e.regs[instr.A]
		set(f32Out(instr.DT, aval{interval.WrapArith(instr.DT, interval.Abs(a.v)), a.nan && instr.DT.IsFloat()}))
	case ir.OpEq, ir.OpNe, ir.OpLt, ir.OpLe, ir.OpGt, ir.OpGe:
		set(ai.compare(instr.Op, e.regs[instr.A], e.regs[instr.B]))
	case ir.OpAnd, ir.OpOr, ir.OpXor, ir.OpNot:
		set(ai.logic(instr.Op, e, instr))
	case ir.OpBitAnd, ir.OpBitOr, ir.OpBitXor, ir.OpShl, ir.OpShr:
		set(bitOp(instr.Op, instr.DT, e.regs[instr.A], e.regs[instr.B]))
	case ir.OpTruth:
		a := e.regs[instr.A]
		t := a.v.Truth()
		set(aval{interval.TriToItv(interval.TriOf(t.CanFalse(), t.CanTrue() || a.nan)), false})
	case ir.OpSelect:
		switch e.regs[instr.A].truth() {
		case interval.TriTrue:
			set(e.regs[instr.B])
		case interval.TriFalse:
			set(e.regs[instr.C])
		default:
			set(e.regs[instr.B].join(e.regs[instr.C]))
		}
	case ir.OpCast:
		a := e.regs[instr.A]
		if instr.DT.IsFloat() {
			set(f32Out(instr.DT, aval{a.v, a.nan}))
		} else if a.nan {
			set(aval{interval.TypeRange(instr.DT), false})
		} else {
			set(aval{interval.Cast(instr.DT, instr.DT2, a.v), false})
		}
	case ir.OpSqrt, ir.OpExp, ir.OpLog, ir.OpFloor, ir.OpCeil, ir.OpRound, ir.OpTrunc:
		a := e.regs[instr.A]
		set(f32Out(instr.DT, aval{interval.MathFn(instr.Op, a.v), a.nan}))
	case ir.OpSin, ir.OpCos, ir.OpTan:
		a := e.regs[instr.A]
		// sin/cos/tan of an infinity is NaN.
		set(f32Out(instr.DT, aval{interval.MathFn(instr.Op, a.v), a.nan || hasInf(a)}))
	default:
		set(topVal())
	}
}

// arith handles the binary arithmetic group, tracking where IEEE semantics
// can spawn a NaN (Inf-Inf, 0*Inf, Inf/Inf; division by zero is total in
// the VM so it never does).
func (ai *absInterp) arith(op ir.Op, dt model.DType, a, b aval) aval {
	var v interval.Interval
	nan := false
	switch op {
	case ir.OpAdd:
		v = interval.Add(a.v, b.v)
		nan = hasInf(a) && hasInf(b)
	case ir.OpSub:
		v = interval.Sub(a.v, b.v)
		nan = hasInf(a) && hasInf(b)
	case ir.OpMul:
		v = interval.Mul(a.v, b.v)
		nan = (a.v.Contains0() && hasInf(b)) || (b.v.Contains0() && hasInf(a))
	case ir.OpDiv:
		v = interval.Div(a.v, b.v)
		nan = hasInf(a) || hasInf(b)
	case ir.OpMin:
		v = interval.Min(a.v, b.v)
	case ir.OpMax:
		v = interval.Max(a.v, b.v)
	}
	if !dt.IsFloat() {
		return aval{interval.WrapArith(dt, v), false}
	}
	return f32Out(dt, aval{v, nan || a.nan || b.nan})
}

// compare evaluates a relational op three-valued. A possible NaN operand
// makes every relation except != possibly-false and != possibly-true.
func (ai *absInterp) compare(op ir.Op, a, b aval) aval {
	t := interval.Cmp(op, a.v, b.v)
	if a.nan || b.nan {
		if op == ir.OpNe {
			t = interval.TriOf(t.CanFalse(), true)
		} else {
			t = interval.TriOf(true, t.CanTrue())
		}
	}
	return aval{interval.TriToItv(t), false}
}

func (ai *absInterp) logic(op ir.Op, e *env, instr *ir.Instr) aval {
	ta := e.regs[instr.A].truth()
	var t interval.Tri
	switch op {
	case ir.OpNot:
		t = interval.TriOf(ta.CanTrue(), ta.CanFalse())
	case ir.OpAnd:
		tb := e.regs[instr.B].truth()
		t = interval.TriOf(ta.CanFalse() || tb.CanFalse(), ta.CanTrue() && tb.CanTrue())
	case ir.OpOr:
		tb := e.regs[instr.B].truth()
		t = interval.TriOf(ta.CanFalse() && tb.CanFalse(), ta.CanTrue() || tb.CanTrue())
	case ir.OpXor:
		tb := e.regs[instr.B].truth()
		t = interval.TriOf(
			(ta.CanTrue() && tb.CanTrue()) || (ta.CanFalse() && tb.CanFalse()),
			(ta.CanTrue() && tb.CanFalse()) || (ta.CanFalse() && tb.CanTrue()))
	}
	return aval{interval.TriToItv(t), false}
}

// bitOp evaluates bitwise/shift ops: concretely when both operands are
// known points, otherwise conservatively as the full type range.
func bitOp(op ir.Op, dt model.DType, a, b aval) aval {
	if !a.v.IsPoint() || !b.v.IsPoint() || a.nan || b.nan {
		return aval{interval.TypeRange(dt), false}
	}
	x := model.DecodeInt(dt, model.EncodeInt(dt, int64(a.v.Lo)))
	y := model.DecodeInt(dt, model.EncodeInt(dt, int64(b.v.Lo)))
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
	return aval{interval.Point(float64(model.DecodeInt(dt, model.EncodeInt(dt, r)))), false}
}

// inputVals builds the abstract value of each input field: full type range
// for integers and bools, unbounded (and possibly NaN) for floats — the
// fuzzer feeds raw bit patterns, so no tighter float bound is sound.
func inputVals(p *ir.Program) []aval {
	in := make([]aval, len(p.In))
	for i, f := range p.In {
		if f.Type.IsFloat() {
			in[i] = topVal()
		} else {
			in[i] = aval{interval.TypeRange(f.Type), false}
		}
	}
	return in
}

// Feasible abstractly executes Init followed by Step iterated to a state
// fixpoint and reports, per branch slot, whether some abstract path records
// it. Slots never reached are provably infeasible (dead).
func Feasible(p *ir.Program, plan *coverage.Plan) []bool {
	ai := &absInterp{
		p:    p,
		plan: plan,
		in:   inputVals(p),
		feas: make([]bool, plan.NumBranches),
	}
	entry := &env{regs: make([]aval, p.NumRegs), state: make([]aval, p.NumState)}
	for i := range entry.regs {
		// The machine never clears registers between runs: entry registers
		// hold arbitrary garbage.
		entry.regs[i] = topVal()
	}
	for i := range entry.state {
		// Init() zeroes the state vector before the init function runs.
		entry.state[i] = aval{interval.Point(0), false}
	}
	cur := ai.absFunc(p.Init, entry)
	for round := 0; round < maxStepRounds; round++ {
		exit := ai.absFunc(p.Step, cur)
		next := joinEnvs(cur, exit)
		if round >= widenStepRounds {
			widenInto(cur, next)
		}
		if envsEqual(next, cur) {
			break
		}
		cur = next
	}
	return ai.feas
}

// DeadObjectives returns the branch slots (sorted ascending) that the
// abstract interpretation proves unreachable for every input sequence.
func DeadObjectives(p *ir.Program, plan *coverage.Plan) []int {
	feas := Feasible(p, plan)
	var dead []int
	for slot, ok := range feas {
		if !ok {
			dead = append(dead, slot)
		}
	}
	return dead
}

// MarkDead runs the dead-objective analysis and records the result in the
// plan, returning the number of slots marked.
func MarkDead(p *ir.Program, plan *coverage.Plan) int {
	dead := DeadObjectives(p, plan)
	for _, slot := range dead {
		plan.MarkDead(slot)
	}
	return len(dead)
}
