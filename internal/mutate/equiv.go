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

// chunkCells is the number of cells in one chunk of a joint environment,
// chosen with BenchmarkProveSurvivors (EXPERIMENTS.md, "The `mutate` path").
const chunkCells = 8

// cellStore holds the cells of every joint environment of one proof, in
// chunks of chunkCells consecutive cells; an environment is a list of chunk
// indices, so neither holds a pointer for the garbage collector to scan or
// to guard with write barriers. refs counts the environment slots that
// reference each chunk: a write through a slot whose chunk others
// reference too copies the chunk first, and a chunk no slot references is
// reused. A store serves one proof at a time; each proof empties it first.
type cellStore struct {
	cells []pv
	refs  []int32
	free  []int32
}

func (s *cellStore) reset() {
	s.cells, s.refs, s.free = s.cells[:0], s.refs[:0], s.free[:0]
}

func (s *cellStore) chunk(c int32) []pv {
	return s.cells[int(c)*chunkCells : (int(c)+1)*chunkCells]
}

// alloc returns a chunk referenced once. It may move cells, so no pointer
// into a chunk survives it.
func (s *cellStore) alloc() int32 {
	if n := len(s.free); n > 0 {
		c := s.free[n-1]
		s.free = s.free[:n-1]
		s.refs[c] = 1
		return c
	}
	s.cells = append(s.cells, make([]pv, chunkCells)...)
	s.refs = append(s.refs, 1)
	return int32(len(s.refs) - 1)
}

// drop is called when a slot stops referencing chunk c.
func (s *cellStore) drop(c int32) {
	if s.refs[c]--; s.refs[c] == 0 {
		s.free = append(s.free, c)
	}
}

// penv is a joint environment: the registers' cells, then the state cells.
// Cells past the last one, in the last chunk, stay zero in every
// environment.
type penv struct {
	st     *cellStore
	chunks []int32
	nregs  int
}

// newPenv returns an environment of zeroed chunks of its own.
func newPenv(st *cellStore, nregs, nstate int) *penv {
	e := &penv{st: st, chunks: make([]int32, (nregs+nstate+chunkCells-1)/chunkCells), nregs: nregs}
	for k := range e.chunks {
		e.chunks[k] = st.alloc()
		clear(st.chunk(e.chunks[k]))
	}
	return e
}

// at reads cell i; the pointer is valid until the next write to e's store.
func (e *penv) at(i int) *pv {
	return &e.st.cells[int(e.chunks[i/chunkCells])*chunkCells+i%chunkCells]
}

func (e *penv) reg(x int32) *pv    { return e.at(int(x)) }
func (e *penv) state(k uint64) *pv { return e.at(e.nregs + int(k)) }

// own makes e's k-th chunk e's alone, copying it when another slot
// references it too, and returns it.
func (e *penv) own(k int) int32 {
	c := e.chunks[k]
	if e.st.refs[c] > 1 {
		n := e.st.alloc()
		copy(e.st.chunk(n), e.st.chunk(c))
		e.st.refs[c]--
		e.chunks[k], c = n, n
	}
	return c
}

// set writes cell i.
func (e *penv) set(i int, v pv) {
	e.st.chunk(e.own(i / chunkCells))[i%chunkCells] = v
}

func (e *penv) setReg(x int32, v pv)    { e.set(int(x), v) }
func (e *penv) setState(k uint64, v pv) { e.set(e.nregs+int(k), v) }

func (e *penv) clone() *penv {
	for _, c := range e.chunks {
		e.st.refs[c]++
	}
	return &penv{st: e.st, chunks: slices.Clone(e.chunks), nregs: e.nregs}
}

// load makes e equal to src, sharing src's chunks.
func (e *penv) load(src *penv) {
	for k, c := range src.chunks {
		e.st.refs[c]++
		e.st.drop(e.chunks[k])
		e.chunks[k] = c
	}
}

// release drops every chunk of e, which is not used again.
func (e *penv) release() {
	for _, c := range e.chunks {
		e.st.drop(c)
	}
}

// joinInto joins src into e in place, widening every joined cell against
// its old value when widen is set, and reports whether e changed. Like the
// dead-objective pass' env.joinInto, it skips every cell equal to its
// source: a ⊔ a = a, and widening a against itself keeps a. A chunk that is
// src's own is skipped whole, and a chunk whose cells all equal src's is
// replaced by a reference to src's, so the next join from it skips too.
func (e *penv) joinInto(src *penv, widen bool) bool {
	changed := false
	for k, sc := range src.chunks {
		dc := e.chunks[k]
		if dc == sc {
			continue
		}
		d, s := e.st.chunk(dc), e.st.chunk(sc)
		i := 0
		for i < chunkCells && d[i].same(&s[i]) {
			i++
		}
		if i == chunkCells {
			e.st.refs[sc]++
			e.st.drop(dc)
			e.chunks[k] = sc
			continue
		}
		for ; i < chunkCells; i++ {
			if d[i].same(&s[i]) {
				continue
			}
			n := pv{l: d[i].l.join(s[i].l), r: d[i].r.join(s[i].r), eq: d[i].eq && s[i].eq}
			if widen {
				n.l.Value = n.l.Widen(d[i].l.Value)
				n.r.Value = n.r.Widen(d[i].r.Value)
			}
			if n.same(&d[i]) {
				continue
			}
			dc = e.own(k) // may copy the chunk and move cells
			d, s = e.st.chunk(dc), e.st.chunk(sc)
			d[i] = n
			changed = true
		}
	}
	return changed
}

// same is a == b, spelled out field by field so that it inlines: the
// generated comparison of a struct this wide is a call per cell, and the
// joins compare every cell of each chunk they do not share.
func (a *pv) same(b *pv) bool {
	return a.eq == b.eq && a.l.same(&b.l) && a.r.same(&b.r)
}

func (a *av) same(b *av) bool {
	return a.raw == b.raw && a.Itv == b.Itv && a.known == b.known && a.NaN == b.NaN
}

// valEq reports whether left register la and right register ra provably hold
// the same raw word.
func (e *penv) valEq(la, ra int32) bool {
	l, r := e.reg(la), e.reg(ra)
	if la == ra && l.eq {
		return true
	}
	return l.l.known && r.r.known && l.l.raw == r.r.raw
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
	leftGet := func(x int32) av { return e.reg(x).l }
	rightGet := func(x int32) av { return e.reg(x).r }

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
		tl, tr := e.reg(li.B).l.truth(), e.reg(ri.B).r.truth()
		return tl != interval.TriMixed && tl == tr
	case li.Op == ir.OpStoreOut || ri.Op == ir.OpStoreOut:
		return li.Op == ir.OpStoreOut && ri.Op == ir.OpStoreOut && li.Imm == ri.Imm && e.valEq(li.A, ri.A)
	case li.Op == ir.OpStoreState && ri.Op == ir.OpStoreState && li.Imm == ri.Imm:
		e.setState(li.Imm, pv{l: e.reg(li.A).l, r: e.reg(ri.A).r, eq: e.valEq(li.A, ri.A)})
		return true
	case li.Op == ir.OpStoreState:
		if !nopish(ri) {
			return false
		}
		cell := *e.state(li.Imm)
		cell.l = e.reg(li.A).l
		cell.eq = cell.l.known && cell.r.known && cell.l.raw == cell.r.raw
		e.setState(li.Imm, cell)
		return true
	case ri.Op == ir.OpStoreState:
		if !nopish(li) {
			return false
		}
		cell := *e.state(ri.Imm)
		cell.r = e.reg(ri.A).r
		cell.eq = cell.l.known && cell.r.known && cell.l.raw == cell.r.raw
		e.setState(ri.Imm, cell)
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
			eqNew = e.state(li.Imm).eq
		default:
			eqNew = true
			_, reads, n := analysis.Operands(li)
			for _, x := range reads[:n] {
				if !e.reg(x).eq {
					eqNew = false
					break
				}
			}
		}
	}
	var vl, vr av
	if !nopL {
		vl = evalSide(li, leftGet, func(k uint64) av { return e.state(k).l })
	}
	if !nopR {
		vr = evalSide(ri, rightGet, func(k uint64) av { return e.state(k).r })
	}
	switch {
	case !nopL && !nopR && li.Dst == ri.Dst:
		e.setReg(li.Dst, pv{l: vl, r: vr, eq: eqNew || (vl.known && vr.known && vl.raw == vr.raw)})
	default:
		if !nopL {
			cell := *e.reg(li.Dst)
			cell.l = vl
			cell.eq = cell.l.known && cell.r.known && cell.l.raw == cell.r.raw
			e.setReg(li.Dst, cell)
		}
		if !nopR {
			cell := *e.reg(ri.Dst)
			cell.r = vr
			cell.eq = cell.l.known && cell.r.known && cell.l.raw == cell.r.raw
			e.setReg(ri.Dst, cell)
		}
	}
	return true
}

// jointLayout is the joint block structure of two same-length functions:
// basic-block leaders over the union of both codes' control flow, so any
// control instruction on either side ends its joint block. A proof computes
// it once per function and reuses it in every step round.
type jointLayout struct {
	starts  []int
	blockAt []int32 // per pc: the index of the block it starts, or -1
}

func newJointLayout(lc, rc []ir.Instr) jointLayout {
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
	lay := jointLayout{blockAt: make([]int32, n)}
	for pc := 0; pc < n; pc++ {
		lay.blockAt[pc] = -1
		if leader[pc] {
			lay.blockAt[pc] = int32(len(lay.starts))
			lay.starts = append(lay.starts, pc)
		}
	}
	return lay
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

// productFunc abstractly executes the two same-length functions, laid out
// by lay, in lockstep from a joint entry environment. It returns the joined
// exit environment and whether every joint path kept the observables
// provably equal.
func (pr *prover) productFunc(lc, rc []ir.Instr, lay jointLayout, entry *penv) (*penv, bool) {
	n := len(lc)
	if n == 0 {
		return entry.clone(), true
	}
	starts := lay.starts
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
			exit.joinInto(e, false)
		}
	}
	ok := true
	propagate := func(pc int, e *penv) {
		if pc >= n {
			noteExit(e)
			return
		}
		if pc < 0 || lay.blockAt[pc] < 0 {
			ok = false // jump into the middle of a joint block: malformed
			return
		}
		succ := int(lay.blockAt[pc])
		if ins[succ] == nil {
			ins[succ] = e.clone()
		} else {
			visits[succ]++
			if !ins[succ].joinInto(e, visits[succ] >= analysis.WidenBlockVisits) {
				return
			}
		}
		if !inWork[succ] {
			inWork[succ] = true
			work = append(work, succ)
		}
	}
	e := entry.clone() // scratch: the environment of the block being run
	for len(work) > 0 && ok {
		bi := work[len(work)-1]
		work = work[:len(work)-1]
		inWork[bi] = false
		e.load(ins[bi])
		end := endOf(bi)
		resolved := false
		for pc := starts[bi]; pc < end; pc++ {
			li, ri := &lc[pc], &rc[pc]
			if isControl(li.Op) || isControl(ri.Op) {
				// Joint leaders make any control instruction the last of its
				// block.
				ln, okL := sideResolve(li, func(x int32) av { return e.reg(x).l }, pc, n)
				rn, okR := sideResolve(ri, func(x int32) av { return e.reg(x).r }, pc, n)
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
	e.release()
	for _, in := range ins {
		if in != nil {
			in.release()
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
// with widening. false means inconclusive, never inequivalent. The joint
// environments live in st, which the proof empties first.
func proveEquiv(l, r *ir.Program, st *cellStore) bool {
	if !sameShape(l, r) {
		return false
	}
	st.reset()
	pr := &prover{in: analysis.InputValues(l)}
	entry := newPenv(st, l.NumRegs, l.NumState)
	top := av{Value: analysis.Top()}
	for i := 0; i < l.NumRegs; i++ {
		entry.setReg(int32(i), pv{l: top, r: top})
	}
	zero := av{known: true, raw: 0, Value: analysis.Value{Itv: interval.Point(0)}}
	for k := 0; k < l.NumState; k++ {
		entry.setState(uint64(k), pv{l: zero, r: zero, eq: true})
	}
	cur, ok := pr.productFunc(l.Init, r.Init, newJointLayout(l.Init, r.Init), entry)
	if !ok {
		return false
	}
	step := newJointLayout(l.Step, r.Step)
	for round := 0; round < analysis.MaxStepRounds; round++ {
		ex, ok := pr.productFunc(l.Step, r.Step, step, cur)
		if !ok {
			return false
		}
		changed := cur.joinInto(ex, round >= analysis.WidenStepRounds)
		ex.release()
		if !changed {
			return true
		}
	}
	return false // no fixpoint within bounds: inconclusive
}

// original is the program every survivor of one Run is proved against,
// with the facts about it that the structural rules read, computed once per
// Run: the reachable pcs of each function, and its liveness (on first use).
// cells is the store the Run's proofs reuse, one after another.
type original struct {
	prog                 *ir.Program
	initReach, stepReach []bool
	live                 *analysis.Liveness
	cells                cellStore
}

func newOriginal(p *ir.Program) *original {
	return &original{prog: p, initReach: analysis.ReachablePCs(p.Init), stepReach: analysis.ReachablePCs(p.Step)}
}

// equivalent attempts to prove a single-instruction IR mutant observably
// equivalent to the original. Two cheap structural arguments run first —
// the patched instruction is unreachable (edges into it are untouched by
// the mutation, so it executes in neither program), or both versions are
// pure computations of the same dead register (liveness in both programs
// shows no later read) — before the full product proof. fn/pc locate the
// patch ("init" or "step"). false is inconclusive: the mutant stays in the
// score.
func (o *original) equivalent(mut *ir.Program, fn string, pc int) bool {
	orig := o.prog
	if !sameShape(orig, mut) {
		return false
	}
	oc, mc, reach := orig.Step, mut.Step, o.stepReach
	if fn == "init" {
		oc, mc, reach = orig.Init, mut.Init, o.initReach
	}
	if pc >= 0 && pc < len(oc) {
		if !reach[pc] {
			return true
		}
		oi, mi := &oc[pc], &mc[pc]
		od, oreads, on := analysis.Operands(oi)
		md, mreads, mn := analysis.Operands(mi)
		if od >= 0 && od == md && pureValueOp(oi.Op) && pureValueOp(mi.Op) {
			if o.live == nil {
				o.live = analysis.ComputeLiveness(orig)
			}
			// Neither version is a control op, so a patch that reads what
			// the original read leaves every def, use and edge, and with
			// them the whole liveness, unchanged.
			lo := o.live.LiveOut(fn, pc)
			lm := lo
			if !slices.Equal(oreads[:on], mreads[:mn]) {
				lm = analysis.ComputeLiveness(mut).LiveOut(fn, pc)
			}
			if lo != nil && lm != nil && int(od) < len(lo) && int(od) < len(lm) && !lo[od] && !lm[od] {
				return true
			}
		}
	}
	return proveEquiv(orig, mut, &o.cells)
}
