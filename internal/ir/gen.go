package ir

import (
	"fmt"
	"math/rand"

	"cftcg/internal/model"
)

// GenDecision describes one synthetic decision a generated program probes.
// Condition IDs are globally sequential in declaration order, so a caller can
// mirror the slice into a coverage plan without further bookkeeping.
type GenDecision struct {
	NumOutcomes int
	Conds       int
}

// GenProgram builds a random, verifier-clean program from a seed: every
// opcode and data type can appear, control flow is structured (if-diamonds
// and bounded do-while loops), and probe/cond-probe instrumentation follows
// the same shapes the real lowering emits. The same seed always yields the
// same program, which makes generated programs usable as fuzz-corpus entries.
//
// Generated programs always terminate, so any fuel budget at or above the
// program's cost runs them to completion — and any budget below it produces
// a deterministic mid-program hang, which is exactly what the cross-backend
// differential tests sweep for.
func GenProgram(seed int64) (*Program, []GenDecision) {
	r := rand.New(rand.NewSource(seed))
	g := &gen{r: r}

	g.numState = r.Intn(4)
	for i, n := 0, 1+r.Intn(4); i < n; i++ {
		g.in = append(g.in, model.Field{Name: fmt.Sprintf("in%d", i), Type: g.dtype(), Offset: g.inSize})
		g.inSize += g.in[i].Type.Size()
	}
	for i, n := 0, 1+r.Intn(4); i < n; i++ {
		g.out = append(g.out, model.Field{Name: fmt.Sprintf("out%d", i), Type: g.dtype(), Offset: g.outSize})
		g.outSize += g.out[i].Type.Size()
	}
	condID := 0
	for i, n := 0, 1+r.Intn(3); i < n; i++ {
		d := GenDecision{NumOutcomes: 2, Conds: r.Intn(4)}
		g.decs = append(g.decs, d)
		g.condBase = append(g.condBase, condID)
		condID += d.Conds
	}

	var regs int32
	init := NewAsm(&regs)
	g.genFunc(init, 1+g.r.Intn(3), false)
	step := NewAsm(&regs)
	g.genFunc(step, 2+g.r.Intn(5), true)

	p := &Program{
		Name:     fmt.Sprintf("gen%d", seed),
		Init:     init.Instrs,
		Step:     step.Instrs,
		NumRegs:  int(regs),
		NumState: g.numState,
		In:       g.in,
		Out:      g.out,
	}
	for _, s := range init.Loops {
		p.LoopSites = append(p.LoopSites, LoopSite{Func: "init", PC: s.PC, Label: s.Label})
	}
	for _, s := range step.Loops {
		p.LoopSites = append(p.LoopSites, LoopSite{Func: "step", PC: s.PC, Label: s.Label})
	}
	return p, g.decs
}

type gen struct {
	r        *rand.Rand
	in, out  []model.Field
	inSize   int
	outSize  int
	numState int
	decs     []GenDecision
	condBase []int

	// avail holds the registers defined on every path to the current emit
	// point; ops only read from it, which keeps def-before-use clean no
	// matter how the structured chunks nest. reserved registers (active loop
	// counters) are never overwritten in place.
	avail    []int32
	reserved map[int32]bool
}

var genDTypes = []model.DType{
	model.Bool, model.Int8, model.UInt8, model.Int16, model.UInt16,
	model.Int32, model.UInt32, model.Float32, model.Float64,
}

func (g *gen) dtype() model.DType { return genDTypes[g.r.Intn(len(genDTypes))] }

func (g *gen) intType() model.DType {
	return genDTypes[1+g.r.Intn(6)] // Int8..UInt32
}

func (g *gen) floatType() model.DType {
	if g.r.Intn(2) == 0 {
		return model.Float32
	}
	return model.Float64
}

// rawValue picks a constant: mostly canonical encodings of boundary-ish
// numbers, sometimes a raw 64-bit pattern — backends must agree on
// non-canonical register contents too, since every op masks on use.
func (g *gen) rawValue(dt model.DType) uint64 {
	switch g.r.Intn(8) {
	case 0:
		return 0
	case 1:
		return model.Encode(dt, 1)
	case 2:
		return model.Encode(dt, -1)
	case 3:
		return model.Encode(dt, float64(g.r.Intn(1<<16)))
	case 4:
		return g.r.Uint64() // non-canonical garbage
	case 5:
		if dt.IsFloat() {
			return model.Encode(dt, g.r.NormFloat64()*1e3)
		}
		return model.Encode(dt, float64(g.r.Intn(256)-128))
	default:
		return model.Encode(dt, float64(g.r.Intn(20)-10))
	}
}

func (g *gen) pick() int32 { return g.avail[g.r.Intn(len(g.avail))] }

// push registers a freshly defined register as readable from here on.
func (g *gen) push(r int32) { g.avail = append(g.avail, r) }

// genFunc emits one function: a prologue seeding the register pool, a body
// of structured chunks, the output stores, and a halt.
func (g *gen) genFunc(a *Asm, chunks int, isStep bool) {
	g.avail = g.avail[:0]
	g.reserved = map[int32]bool{}
	for i, n := 0, 3+g.r.Intn(4); i < n; i++ {
		dt := g.dtype()
		g.push(a.Const(dt, g.rawValue(dt)))
	}
	g.chunkSeq(a, chunks, 0, isStep)
	for i := range g.out {
		a.StoreOut(i, g.pick())
	}
	a.Halt()
}

func (g *gen) chunkSeq(a *Asm, n, depth int, isStep bool) {
	for i := 0; i < n; i++ {
		switch k := g.r.Intn(6); {
		case k == 0 && depth < 2:
			g.diamond(a, depth, isStep)
		case k == 1 && depth < 2 && isStep:
			g.loop(a, depth)
		case k == 2 && len(g.decs) > 0:
			g.probeDiamond(a, depth, isStep)
		default:
			g.straight(a, 1+g.r.Intn(5), isStep)
		}
	}
}

// diamond emits if/else around a data-dependent condition. Registers defined
// inside either arm are only readable within it: avail is restored at the
// join so later ops never read a maybe-undefined register. The guard itself
// takes the shapes the lowering produces — a bare register, a fresh compare
// feeding the branch, or a constant-compare-branch triple.
func (g *gen) diamond(a *Asm, depth int, isStep bool) {
	var cond int32
	switch g.r.Intn(3) {
	case 0:
		cond = g.pick()
	case 1: // cmp + branch (CmpJmp shape)
		cond = a.Bin(g.cmpOp(), g.dtype(), g.pick(), g.pick())
		g.push(cond)
	default: // const + cmp + branch (ConstCmpJmp shape)
		dt := g.dtype()
		c := a.Const(dt, g.rawValue(dt))
		g.push(c)
		cond = a.Bin(g.cmpOp(), dt, g.pick(), c)
		g.push(cond)
	}
	mark := len(g.avail)
	j := a.JmpIfNot(cond)
	g.chunkSeq(a, 1, depth+1, isStep)
	g.avail = g.avail[:mark]
	j2 := a.Jmp()
	a.Patch(j)
	g.chunkSeq(a, 1, depth+1, isStep)
	g.avail = g.avail[:mark]
	a.Patch(j2)
}

func (g *gen) cmpOp() Op {
	cmpOps := [...]Op{OpEq, OpNe, OpLt, OpLe, OpGt, OpGe}
	return cmpOps[g.r.Intn(len(cmpOps))]
}

// probeDiamond emits the decision shape the lowering produces: cond-probes
// for each condition slot, then a two-armed branch whose arms record the
// decision outcome.
func (g *gen) probeDiamond(a *Asm, depth int, isStep bool) {
	d := g.r.Intn(len(g.decs))
	for s := 0; s < g.decs[d].Conds; s++ {
		a.CondProbe(g.condBase[d]+s, g.pick())
	}
	mark := len(g.avail)
	j := a.JmpIfNot(g.pick())
	if depth < 2 && g.r.Intn(3) == 0 {
		// Probe immediately followed by a conditional branch — the nested-
		// decision shape (ProbeJin) the lowering emits for chained guards.
		a.Probe(d, 1)
		j3 := a.JmpIfNot(g.pick())
		g.straight(a, 1+g.r.Intn(2), isStep)
		g.avail = g.avail[:mark]
		a.Patch(j3)
	} else {
		a.Probe(d, 1)
		g.straight(a, g.r.Intn(3), isStep)
		g.avail = g.avail[:mark]
	}
	j2 := a.Jmp()
	a.Patch(j)
	a.Probe(d, 0)
	g.straight(a, g.r.Intn(3), isStep)
	g.avail = g.avail[:mark]
	a.Patch(j2)
}

// loop emits a bounded do-while: the body always runs at least once, so its
// definitions are unconditional, and the trip count is a small constant, so
// generated programs always terminate.
func (g *gen) loop(a *Asm, depth int) {
	n := 1 + g.r.Intn(6)
	ctr := a.Const(model.Int32, model.EncodeInt(model.Int32, 0))
	limit := a.Const(model.Int32, model.EncodeInt(model.Int32, int64(n)))
	one := a.Const(model.Int32, model.EncodeInt(model.Int32, 1))
	g.push(ctr)
	g.push(limit)
	g.push(one)
	g.reserved[ctr], g.reserved[limit], g.reserved[one] = true, true, true
	top := a.PC()
	g.chunkSeq(a, 1, depth+1, true)
	a.Emit(Instr{Op: OpAdd, DT: model.Int32, Dst: ctr, A: ctr, B: one})
	t := a.Bin(OpLt, model.Int32, ctr, limit)
	g.push(t)
	back := a.Emit(Instr{Op: OpJmpIf, A: t, Imm: uint64(top)})
	a.NoteLoop(back, fmt.Sprintf("gen/do-while x%d", n))
	delete(g.reserved, ctr)
	delete(g.reserved, limit)
	delete(g.reserved, one)
}

// straight emits n data ops drawing operands from the defined pool. Inputs
// are only loadable from step: init runs without an input tuple.
func (g *gen) straight(a *Asm, n int, isStep bool) {
	var arithOps = [...]Op{OpAdd, OpSub, OpMul, OpDiv, OpMin, OpMax}
	var cmpOps = [...]Op{OpEq, OpNe, OpLt, OpLe, OpGt, OpGe}
	var bitOps = [...]Op{OpBitAnd, OpBitOr, OpBitXor, OpShl, OpShr}
	var boolOps = [...]Op{OpAnd, OpOr, OpXor}
	var mathOps = [...]Op{OpSqrt, OpExp, OpLog, OpSin, OpCos, OpTan, OpFloor, OpCeil, OpRound, OpTrunc}
	ncOps := [...]Op{OpSub, OpDiv, OpMin, OpMax, OpLt, OpGe, OpShl, OpShr}
	for i := 0; i < n; i++ {
		switch g.r.Intn(18) {
		case 0:
			dt := g.dtype()
			g.push(a.Const(dt, g.rawValue(dt)))
		case 1:
			g.push(a.Bin(arithOps[g.r.Intn(len(arithOps))], g.dtype(), g.pick(), g.pick()))
		case 2:
			op := OpNeg
			if g.r.Intn(2) == 0 {
				op = OpAbs
			}
			g.push(a.Un(op, g.dtype(), g.pick()))
		case 3:
			g.push(a.Bin(cmpOps[g.r.Intn(len(cmpOps))], g.dtype(), g.pick(), g.pick()))
		case 4:
			if g.r.Intn(4) == 0 {
				g.push(a.Un(OpNot, model.Bool, g.pick()))
			} else {
				g.push(a.Bin(boolOps[g.r.Intn(len(boolOps))], model.Bool, g.pick(), g.pick()))
			}
		case 5:
			g.push(a.Bin(bitOps[g.r.Intn(len(bitOps))], g.intType(), g.pick(), g.pick()))
		case 6:
			dt := genDTypes[1+g.r.Intn(len(genDTypes)-1)] // any non-bool source
			g.push(a.Truth(dt, g.pick()))
		case 7:
			g.push(a.Select(g.dtype(), g.pick(), g.pick(), g.pick()))
		case 8:
			to, from := g.dtype(), g.dtype()
			if to == from {
				from = genDTypes[(int(from)+1)%len(genDTypes)]
			}
			g.push(a.Cast(to, from, g.pick()))
		case 9:
			g.push(a.Un(mathOps[g.r.Intn(len(mathOps))], g.floatType(), g.pick()))
		case 10:
			if isStep {
				slot := g.r.Intn(len(g.in))
				g.push(a.LoadIn(g.in[slot].Type, slot))
			} else {
				dt := g.dtype()
				g.push(a.Const(dt, g.rawValue(dt)))
			}
		case 11:
			a.StoreOut(g.r.Intn(len(g.out)), g.pick())
		case 12:
			if g.numState > 0 {
				slot := g.r.Intn(g.numState)
				if g.r.Intn(2) == 0 {
					g.push(a.LoadState(g.dtype(), slot))
				} else {
					a.StoreState(slot, g.pick())
				}
			} else {
				a.Emit(Instr{Op: OpNop})
			}
		case 13:
			// Overwrite an existing register in place (the mov shapes the
			// fuser targets), skipping reserved loop counters.
			dst := g.pick()
			if !g.reserved[dst] {
				a.MovTo(dst, g.pick())
			} else {
				g.push(a.Un(OpNeg, g.dtype(), g.pick()))
			}
		case 15:
			// State accumulate (the lowering's state-update shape): load a
			// slot, combine, store back — emitted adjacently.
			if g.numState > 0 {
				dt := g.dtype()
				slot := g.r.Intn(g.numState)
				ld := a.LoadState(dt, slot)
				r := a.Bin(arithOps[g.r.Intn(len(arithOps))], dt, ld, g.pick())
				a.StoreState(slot, r)
				g.push(ld)
				g.push(r)
			} else {
				a.Emit(Instr{Op: OpNop})
			}
		case 16:
			// Constant operand feeding a non-commutative op: operand order
			// is observable, so a backend that swaps arguments diverges
			// here.
			dt := g.dtype()
			op := ncOps[g.r.Intn(len(ncOps))]
			if op == OpShl || op == OpShr {
				dt = g.intType()
			}
			c := a.Const(dt, g.rawValue(dt))
			g.push(c)
			if g.r.Intn(2) == 0 {
				g.push(a.Bin(op, dt, c, g.pick()))
			} else {
				g.push(a.Bin(op, dt, g.pick(), c))
			}
		case 17:
			// Adjacent state traffic: store+store, load+mov, mov+load.
			if g.numState > 0 {
				switch g.r.Intn(3) {
				case 0:
					a.StoreState(g.r.Intn(g.numState), g.pick())
					a.StoreState(g.r.Intn(g.numState), g.pick())
				case 1:
					g.push(a.LoadState(g.dtype(), g.r.Intn(g.numState)))
					a.MovTo(g.avail[len(g.avail)-1], g.pick())
				default:
					if dst := g.pick(); !g.reserved[dst] {
						a.MovTo(dst, g.pick())
					}
					g.push(a.LoadState(g.dtype(), g.r.Intn(g.numState)))
				}
			} else {
				a.Emit(Instr{Op: OpNop})
			}
		default:
			dt := g.dtype()
			g.push(a.Const(dt, g.rawValue(dt)))
		}
	}
}
