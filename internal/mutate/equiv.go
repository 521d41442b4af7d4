package mutate

import (
	"slices"

	"cftcg/internal/analysis"
	"cftcg/internal/interval"
	"cftcg/internal/ir"
)

// The product-program equivalence prover. Two same-shape programs (equal
// instruction counts, register file, state vector and I/O layouts) are
// abstractly executed in lockstep over the interval+constant domain: one
// joint environment carries, per register and state cell, the left and
// right abstract values plus an eq bit — "the two concrete raw words are
// provably equal here". Observables must agree at every joint step:
//
//   - OpProbe must be literally identical on both sides,
//   - OpCondProbe must record a provably equal truth value,
//   - OpStoreOut must store provably equal raw words to the same slot,
//   - control flow must stay in lockstep: at a branch the two sides must
//     provably take the same edge (which also forces identical instruction
//     counts, so fuel exhaustion — the timeout kill oracle — agrees too).
//
// Under those rules a completed fixpoint (init, then step iterated with
// widening, exactly like analysis.Feasible) is a proof of observable
// equivalence; any rule failure is "inconclusive", never "inequivalent" —
// the mutant stays in the score.
//
// eq bits are established three ways: literally identical instructions over
// pairwise-eq operands (same inputs, same pure function), both raw words
// known and equal (the constant lattice, bit-precise via vm.EvalPure), and
// inheritance through mov/state flow. They are destroyed by any one-sided
// or non-identical definition that cannot re-establish them.

// pv pairs one register or state cell across the two programs.
type pv struct {
	l, r av
	eq   bool
}

type penv struct {
	regs, state []pv
}

func (e *penv) clone() *penv {
	return &penv{regs: append([]pv(nil), e.regs...), state: append([]pv(nil), e.state...)}
}

func joinPv(a, b pv) pv {
	return pv{l: a.l.join(b.l), r: a.r.join(b.r), eq: a.eq && b.eq}
}

func joinPenv(a, b *penv) *penv {
	out := a.clone()
	for i := range out.regs {
		out.regs[i] = joinPv(out.regs[i], b.regs[i])
	}
	for i := range out.state {
		out.state[i] = joinPv(out.state[i], b.state[i])
	}
	return out
}

func penvEqual(a, b *penv) bool {
	return slices.Equal(a.regs, b.regs) && slices.Equal(a.state, b.state)
}

func widenPenv(prev, next *penv) {
	w := func(p, n pv) pv {
		n.l.Value = n.l.Widen(p.l.Value)
		n.r.Value = n.r.Widen(p.r.Value)
		return n
	}
	for i := range next.regs {
		next.regs[i] = w(prev.regs[i], next.regs[i])
	}
	for i := range next.state {
		next.state[i] = w(prev.state[i], next.state[i])
	}
}

// valEq reports whether left register la and right register ra provably hold
// the same raw word.
func (e *penv) valEq(la, ra int32) bool {
	if la == ra && e.regs[la].eq {
		return true
	}
	return e.regs[la].l.known && e.regs[ra].r.known && e.regs[la].l.raw == e.regs[ra].r.raw
}

type prover struct {
	in []analysis.Value // shared abstract inputs (both sides read the same tuple)
}

// nopish treats identity movs as nops: they change no machine state.
func nopish(ins *ir.Instr) bool {
	return ins.Op == ir.OpNop || (ins.Op == ir.OpMov && ins.A == ins.Dst)
}

// stepPair applies one non-control joint instruction pair, returning false
// when observable equivalence cannot be established.
func (pr *prover) stepPair(e *penv, li, ri *ir.Instr) bool {
	leftGet := func(x int32) av { return e.regs[x].l }
	rightGet := func(x int32) av { return e.regs[x].r }

	// Observables and state stores first: they demand pairing.
	switch {
	case li.Op == ir.OpProbe || ri.Op == ir.OpProbe:
		return li.Op == ir.OpProbe && ri.Op == ir.OpProbe && li.A == ri.A && li.B == ri.B
	case li.Op == ir.OpCondProbe || ri.Op == ir.OpCondProbe:
		if li.Op != ir.OpCondProbe || ri.Op != ir.OpCondProbe || li.A != ri.A {
			return false
		}
		if e.valEq(li.B, ri.B) {
			return true
		}
		tl, tr := e.regs[li.B].l.truth(), e.regs[ri.B].r.truth()
		return tl != interval.TriMixed && tl == tr
	case li.Op == ir.OpStoreOut || ri.Op == ir.OpStoreOut:
		return li.Op == ir.OpStoreOut && ri.Op == ir.OpStoreOut && li.Imm == ri.Imm && e.valEq(li.A, ri.A)
	case li.Op == ir.OpStoreState && ri.Op == ir.OpStoreState && li.Imm == ri.Imm:
		e.state[li.Imm] = pv{l: e.regs[li.A].l, r: e.regs[ri.A].r, eq: e.valEq(li.A, ri.A)}
		return true
	case li.Op == ir.OpStoreState:
		if !nopish(ri) {
			return false
		}
		cell := &e.state[li.Imm]
		cell.l = e.regs[li.A].l
		cell.eq = cell.l.known && cell.r.known && cell.l.raw == cell.r.raw
		return true
	case ri.Op == ir.OpStoreState:
		if !nopish(li) {
			return false
		}
		cell := &e.state[ri.Imm]
		cell.r = e.regs[ri.A].r
		cell.eq = cell.l.known && cell.r.known && cell.l.raw == cell.r.raw
		return true
	}

	// Value ops and nops, evaluated per side against the pre-state.
	nopL, nopR := nopish(li), nopish(ri)
	if (!nopL && !pureValueOp(li.Op)) || (!nopR && !pureValueOp(ri.Op)) {
		return false
	}
	evalSide := func(ins *ir.Instr, get func(int32) av, stateAt func(uint64) av) av {
		switch ins.Op {
		case ir.OpLoadIn:
			return av{Value: pr.in[ins.Imm]}
		case ir.OpLoadState:
			return stateAt(ins.Imm)
		}
		return absEval(ins, get)
	}
	// Identical pure instructions over pairwise-equal operands produce
	// pairwise-equal results (same function of the same raw words; for
	// loadin, the very same input word on both sides).
	eqNew := false
	if !nopL && !nopR && *li == *ri {
		switch li.Op {
		case ir.OpLoadIn:
			eqNew = true
		case ir.OpLoadState:
			eqNew = e.state[li.Imm].eq
		default:
			eqNew = true
			_, reads := analysis.Operands(li)
			for _, x := range reads {
				if !e.regs[x].eq {
					eqNew = false
					break
				}
			}
		}
	}
	var vl, vr av
	if !nopL {
		vl = evalSide(li, leftGet, func(k uint64) av { return e.state[k].l })
	}
	if !nopR {
		vr = evalSide(ri, rightGet, func(k uint64) av { return e.state[k].r })
	}
	switch {
	case !nopL && !nopR && li.Dst == ri.Dst:
		cell := &e.regs[li.Dst]
		cell.l, cell.r = vl, vr
		cell.eq = eqNew || (vl.known && vr.known && vl.raw == vr.raw)
	default:
		if !nopL {
			cell := &e.regs[li.Dst]
			cell.l = vl
			cell.eq = cell.l.known && cell.r.known && cell.l.raw == cell.r.raw
		}
		if !nopR {
			cell := &e.regs[ri.Dst]
			cell.r = vr
			cell.eq = cell.l.known && cell.r.known && cell.l.raw == cell.r.raw
		}
	}
	return true
}

// jointStarts computes basic-block leaders over the union of both codes'
// control flow, so any control instruction on either side ends its joint
// block.
func jointStarts(lc, rc []ir.Instr) []int {
	n := len(lc)
	leader := make([]bool, n+1)
	leader[0] = true
	mark := func(code []ir.Instr) {
		for pc := range code {
			switch code[pc].Op {
			case ir.OpJmp, ir.OpJmpIf, ir.OpJmpIfNot:
				if t := int(code[pc].Imm); t <= n {
					leader[t] = true
				}
				leader[pc+1] = true
			case ir.OpHalt:
				leader[pc+1] = true
			}
		}
	}
	mark(lc)
	mark(rc)
	var starts []int
	for pc := 0; pc < n; pc++ {
		if leader[pc] {
			starts = append(starts, pc)
		}
	}
	return starts
}

// sideNext is one side's control decision at a joint block end.
type sideNext struct {
	definite            bool
	next                int // valid when definite
	trueNext, falseNext int
	tri                 interval.Tri
	halt                bool
	condReg             int32
}

func sideResolve(ins *ir.Instr, val func(int32) av, pc, n int) (sideNext, bool) {
	fall := pc + 1
	switch ins.Op {
	case ir.OpJmp:
		return sideNext{definite: true, next: int(ins.Imm)}, true
	case ir.OpHalt:
		return sideNext{halt: true}, true
	case ir.OpJmpIf, ir.OpJmpIfNot:
		tn, fn := int(ins.Imm), fall
		if ins.Op == ir.OpJmpIfNot {
			tn, fn = fall, int(ins.Imm)
		}
		switch t := val(ins.A).truth(); t {
		case interval.TriTrue:
			return sideNext{definite: true, next: tn}, true
		case interval.TriFalse:
			return sideNext{definite: true, next: fn}, true
		default:
			if tn == fn {
				return sideNext{definite: true, next: tn}, true
			}
			return sideNext{trueNext: tn, falseNext: fn, tri: t, condReg: ins.A}, true
		}
	}
	if nopish(ins) {
		return sideNext{definite: true, next: fall}, true
	}
	// A value op opposite a control op: outside what the mutation operators
	// produce; inconclusive.
	return sideNext{}, false
}

// productFunc abstractly executes the two same-length functions in lockstep
// from a joint entry environment. It returns the joined exit environment and
// whether every joint path kept the observables provably equal.
func (pr *prover) productFunc(lc, rc []ir.Instr, entry *penv) (*penv, bool) {
	n := len(lc)
	if n == 0 {
		return entry.clone(), true
	}
	starts := jointStarts(lc, rc)
	blockAt := make(map[int]int, len(starts))
	for i, s := range starts {
		blockAt[s] = i
	}
	endOf := func(bi int) int {
		if bi+1 < len(starts) {
			return starts[bi+1]
		}
		return n
	}
	ins := make([]*penv, len(starts))
	visits := make([]int, len(starts))
	ins[0] = entry.clone()
	work := []int{0}
	inWork := make([]bool, len(starts))
	inWork[0] = true
	var exit *penv
	noteExit := func(e *penv) {
		if exit == nil {
			exit = e.clone()
		} else {
			exit = joinPenv(exit, e)
		}
	}
	ok := true
	propagate := func(pc int, e *penv) {
		if pc >= n {
			noteExit(e)
			return
		}
		succ, found := blockAt[pc]
		if !found {
			ok = false // jump into the middle of a joint block: malformed
			return
		}
		if ins[succ] == nil {
			ins[succ] = e.clone()
		} else {
			joined := joinPenv(ins[succ], e)
			visits[succ]++
			if visits[succ] >= analysis.WidenBlockVisits {
				widenPenv(ins[succ], joined)
			}
			if penvEqual(joined, ins[succ]) {
				return
			}
			ins[succ] = joined
		}
		if !inWork[succ] {
			inWork[succ] = true
			work = append(work, succ)
		}
	}
	for len(work) > 0 && ok {
		bi := work[len(work)-1]
		work = work[:len(work)-1]
		inWork[bi] = false
		e := ins[bi].clone()
		end := endOf(bi)
		resolved := false
		for pc := starts[bi]; pc < end; pc++ {
			li, ri := &lc[pc], &rc[pc]
			if isControl(li.Op) || isControl(ri.Op) {
				// Joint leaders make any control instruction the last of its
				// block.
				ln, okL := sideResolve(li, func(x int32) av { return e.regs[x].l }, pc, n)
				rn, okR := sideResolve(ri, func(x int32) av { return e.regs[x].r }, pc, n)
				if !okL || !okR {
					ok = false
					break
				}
				switch {
				case ln.halt && rn.halt:
					noteExit(e)
				case ln.halt != rn.halt:
					ok = false
				case ln.definite && rn.definite:
					if ln.next != rn.next {
						ok = false
						break
					}
					propagate(ln.next, e)
				case ln.definite != rn.definite:
					ok = false
				default:
					// Both genuinely conditional: same shape, provably equal
					// condition, and the edge is feasible only where both
					// sides' abstractions allow it (they bound the same
					// concrete value).
					if ln.trueNext != rn.trueNext || ln.falseNext != rn.falseNext ||
						!e.valEq(ln.condReg, rn.condReg) {
						ok = false
						break
					}
					if ln.tri.CanTrue() && rn.tri.CanTrue() {
						propagate(ln.trueNext, e)
					}
					if ln.tri.CanFalse() && rn.tri.CanFalse() {
						propagate(ln.falseNext, e)
					}
				}
				resolved = true
				break
			}
			if !pr.stepPair(e, li, ri) {
				ok = false
				break
			}
		}
		if !resolved && ok {
			propagate(end, e) // fell through the whole block
		}
	}
	if !ok {
		return nil, false
	}
	if exit == nil {
		exit = entry.clone() // no path leaves; both sides spin together
	}
	return exit, true
}

// sameShape reports whether the product construction applies at all.
func sameShape(l, r *ir.Program) bool {
	return len(l.Init) == len(r.Init) && len(l.Step) == len(r.Step) &&
		l.NumRegs == r.NumRegs && l.NumState == r.NumState &&
		len(l.In) == len(r.In) && len(l.Out) == len(r.Out)
}

// proveEquiv attempts an abstract proof that two same-shape programs are
// observably equivalent: identical outputs, probe streams and termination on
// every input sequence. The proof runs init from a zeroed state (registers
// unconstrained and unrelated — they persist across cases and the two
// machines' histories differ) and then iterates step to a joint fixpoint
// with widening. false means inconclusive, never inequivalent.
func proveEquiv(l, r *ir.Program) bool {
	if !sameShape(l, r) {
		return false
	}
	pr := &prover{in: analysis.InputValues(l)}
	entry := &penv{regs: make([]pv, l.NumRegs), state: make([]pv, l.NumState)}
	top := av{Value: analysis.Top()}
	for i := range entry.regs {
		entry.regs[i] = pv{l: top, r: top}
	}
	zero := av{known: true, raw: 0, Value: analysis.Value{Itv: interval.Point(0)}}
	for i := range entry.state {
		entry.state[i] = pv{l: zero, r: zero, eq: true}
	}
	cur, ok := pr.productFunc(l.Init, r.Init, entry)
	if !ok {
		return false
	}
	for round := 0; round < analysis.MaxStepRounds; round++ {
		ex, ok := pr.productFunc(l.Step, r.Step, cur)
		if !ok {
			return false
		}
		next := joinPenv(cur, ex)
		if round >= analysis.WidenStepRounds {
			widenPenv(cur, next)
		}
		if penvEqual(next, cur) {
			return true
		}
		cur = next
	}
	return false // no fixpoint within bounds: inconclusive
}

// proveMutantEquivalent attempts to prove a single-instruction IR mutant
// observably equivalent to the original. Two cheap structural arguments run
// first — the patched instruction is unreachable (edges into it are
// untouched by the mutation, so it executes in neither program), or both
// versions are pure computations of the same dead register (liveness in both
// programs shows no later read) — before the full product proof. fn/pc
// locate the patch ("init" or "step"). false is inconclusive: the mutant
// stays in the score.
func proveMutantEquivalent(orig, mut *ir.Program, fn string, pc int) bool {
	if !sameShape(orig, mut) {
		return false
	}
	oc, mc := orig.Step, mut.Step
	if fn == "init" {
		oc, mc = orig.Init, mut.Init
	}
	if pc >= 0 && pc < len(oc) {
		reach := analysis.ReachablePCs(oc)
		if !reach[pc] {
			return true
		}
		oi, mi := &oc[pc], &mc[pc]
		od, _ := analysis.Operands(oi)
		md, _ := analysis.Operands(mi)
		if od >= 0 && od == md && pureValueOp(oi.Op) && pureValueOp(mi.Op) {
			lo := analysis.ComputeLiveness(orig).LiveOut(fn, pc)
			lm := analysis.ComputeLiveness(mut).LiveOut(fn, pc)
			if lo != nil && lm != nil && int(od) < len(lo) && int(od) < len(lm) && !lo[od] && !lm[od] {
				return true
			}
		}
	}
	return proveEquiv(orig, mut)
}
