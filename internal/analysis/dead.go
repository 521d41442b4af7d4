package analysis

import (
	"math"

	"cftcg/internal/coverage"
	"cftcg/internal/interval"
	"cftcg/internal/ir"
	"cftcg/internal/model"
)

// Pass 2: abstract interpretation with constant propagation (point
// intervals) and interval domains (Value) over Init followed by an iterated
// Step, to prove decision outcomes and condition polarities infeasible.
// Soundness is the contract: a slot is reported dead only if no concrete
// input sequence can ever record it.
//
// Like the SLDV solver, the analysis assumes branch and select conditions
// are bool-typed registers (raw 0/1), which the lowering guarantees: the VM
// tests raw bits while the domain tracks decoded values, and only for bool
// registers are the two always identical.

// env is the abstract machine memory at one program point.
type env struct {
	regs  []Value
	state []Value
}

func (e *env) clone() *env {
	return &env{regs: append([]Value(nil), e.regs...), state: append([]Value(nil), e.state...)}
}

// joinInto joins src into e in place, widening every joined cell against
// its old value when widen is set, and reports whether e changed. A cell
// equal to its source is skipped: a ⊔ a = a, and widening a against itself
// keeps a.
func (e *env) joinInto(src *env, widen bool) bool {
	regs := joinValues(e.regs, src.regs, widen)
	state := joinValues(e.state, src.state, widen)
	return regs || state
}

func joinValues(dst, src []Value, widen bool) bool {
	changed := false
	for i, s := range src {
		d := dst[i]
		if d == s {
			continue
		}
		n := d.Join(s)
		if widen {
			n = n.Widen(d)
		}
		if n != d {
			dst[i] = n
			changed = true
		}
	}
	return changed
}

// absFunc abstractly executes one function from an entry environment and
// returns the join of all exit environments. Probe feasibility is
// accumulated into feas as probes are reached.
type absInterp struct {
	p    *ir.Program
	plan *coverage.Plan
	in   []Value // abstract input fields
	feas []bool  // per branch slot: some abstract path records it
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
			exit.joinInto(e, false)
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
			visits[succ]++
			if !ins[succ].joinInto(e, visits[succ] >= WidenBlockVisits) {
				return
			}
		}
		if !inWork[succ] {
			inWork[succ] = true
			work = append(work, succ)
		}
	}
	cmps := make(map[int32]cmpDef)
	e := entry.clone() // scratch: the environment of the block being run
	for len(work) > 0 {
		bi := work[len(work)-1]
		work = work[:len(work)-1]
		inWork[bi] = false
		b := blocks[bi]
		copy(e.regs, ins[bi].regs)
		copy(e.state, ins[bi].state)
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
				if dst, _, _ := Operands(instr); dst >= 0 {
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
			t := e.regs[last.A].Truth()
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
	alo, ahi := a.Itv.Lo, a.Itv.Hi
	blo, bhi := b.Itv.Lo, b.Itv.Hi
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
	aNan := a.NaN && nanEdge
	bNan := b.NaN && nanEdge
	if (alo > ahi && !aNan) || (blo > bhi && !bNan) {
		return nil // no concrete operand pair can take this edge
	}
	ne := e.clone()
	if alo > ahi {
		ne.regs[cd.a] = Top() // only the NaN case remains
	} else {
		ne.regs[cd.a] = Value{interval.Span(alo, ahi), aNan}
	}
	if blo > bhi {
		ne.regs[cd.b] = Top()
	} else {
		ne.regs[cd.b] = Value{interval.Span(blo, bhi), bNan}
	}
	return ne
}

// step applies one non-control-flow instruction to the environment: the
// memory and probe opcodes here, every register-pure one through Eval.
func (ai *absInterp) step(e *env, instr *ir.Instr) {
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
			t := e.regs[instr.B].Truth()
			if t.CanTrue() {
				ai.feas[cond.BranchBase] = true
			}
			if t.CanFalse() {
				ai.feas[cond.BranchBase+1] = true
			}
		}
	case ir.OpLoadIn:
		e.regs[instr.Dst] = ai.in[instr.Imm]
	case ir.OpLoadState:
		e.regs[instr.Dst] = e.state[instr.Imm]
	case ir.OpStoreState:
		e.state[instr.Imm] = e.regs[instr.A]
	default:
		e.regs[instr.Dst] = Eval(instr, func(r int32) Value { return e.regs[r] })
	}
}

// Feasible abstractly executes Init followed by Step iterated to a state
// fixpoint and reports, per branch slot, whether some abstract path records
// it. Slots never reached are provably infeasible (dead).
func Feasible(p *ir.Program, plan *coverage.Plan) []bool {
	ai := &absInterp{
		p:    p,
		plan: plan,
		in:   InputValues(p),
		feas: make([]bool, plan.NumBranches),
	}
	entry := &env{regs: make([]Value, p.NumRegs), state: make([]Value, p.NumState)}
	for i := range entry.regs {
		// The machine never clears registers between runs: entry registers
		// hold arbitrary garbage.
		entry.regs[i] = Top()
	}
	for i := range entry.state {
		// Init() zeroes the state vector before the init function runs.
		entry.state[i] = Value{Itv: interval.Point(0)}
	}
	cur := ai.absFunc(p.Init, entry)
	for round := 0; round < MaxStepRounds; round++ {
		if !cur.joinInto(ai.absFunc(p.Step, cur), round >= WidenStepRounds) {
			break
		}
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
