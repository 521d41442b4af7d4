package analysis

import (
	"cftcg/internal/coverage"
	"cftcg/internal/ir"
)

// Pass 3: input-field -> probe influence. A flow-insensitive taint
// reachability over the IR tracks, per register and state slot, the set of
// input fields whose value can flow there — through data dependences,
// through state slots across Step iterations, and through control
// dependences (everything inside a conditional jump's region inherits the
// taint of the branch condition). Each branch slot then gets the field set
// that can influence whether it is recorded. Over-approximation is the safe
// direction here: an extra field merely receives some mutation energy, while
// a missing field would starve a reachable objective.

// Influence maps branch slots to input-field sets. Field i occupies mask bit
// min(i, 63): models with more than 64 input fields share the last bit, so
// directed mutation degrades gracefully instead of dropping fields.
type Influence struct {
	NumFields int
	Branch    []uint64 // per branch slot: mask of influencing input fields

	// InitTaint/StepTaint give, per instruction of the respective function,
	// the mask of input fields whose values can flow into that instruction's
	// operands (data or control). The mutation-testing subsystem uses them
	// to find which inputs could ever expose a mutation at a given pc.
	InitTaint []uint64
	StepTaint []uint64
}

func fieldBit(i int) uint64 {
	if i > 63 {
		i = 63
	}
	return 1 << uint(i)
}

// ComputeInfluence builds the influence map for a lowered program.
func ComputeInfluence(p *ir.Program, plan *coverage.Plan) *Influence {
	inf := &Influence{
		NumFields: len(p.In),
		Branch:    make([]uint64, plan.NumBranches),
		InitTaint: make([]uint64, len(p.Init)),
		StepTaint: make([]uint64, len(p.Step)),
	}
	regTaint := make([]uint64, p.NumRegs)
	stTaint := make([]uint64, p.NumState)

	scan := func(code []ir.Instr, opnd []uint64) {
		ctrl := make([]uint64, len(code))
		for pc := range code {
			instr := &code[pc]
			switch instr.Op {
			case ir.OpJmp, ir.OpHalt, ir.OpNop, ir.OpStoreOut:
			case ir.OpJmpIf, ir.OpJmpIfNot:
				// Everything between the jump and the merge point is
				// control-dependent on the condition. The merge is
				// over-approximated by expanding the region through the
				// targets of jumps inside it: in a lowered diamond the
				// taken arm ends with a Jmp over the other arm, so the
				// expansion covers both arms including the code at the
				// branch target itself. Backward regions take effect on
				// the next pass.
				m := regTaint[instr.A] | ctrl[pc]
				lo, hi := pc, int(instr.Imm)
				if hi < lo {
					lo, hi = hi, lo
				}
				for q := lo; q < hi && q < len(code); q++ {
					switch code[q].Op {
					case ir.OpJmp, ir.OpJmpIf, ir.OpJmpIfNot:
						if t := int(code[q].Imm); t > hi {
							hi = t
						}
					}
				}
				if hi > len(code) {
					hi = len(code)
				}
				for i := lo; i < hi; i++ {
					ctrl[i] |= m
				}
			}
			switch instr.Op {
			case ir.OpProbe, ir.OpCondProbe:
				// Resolved to branch slots after ctrl settles (below).
			case ir.OpLoadIn:
				regTaint[instr.Dst] |= fieldBit(int(instr.Imm)) | ctrl[pc]
			case ir.OpLoadState:
				regTaint[instr.Dst] |= stTaint[instr.Imm] | ctrl[pc]
			case ir.OpStoreState:
				stTaint[instr.Imm] |= regTaint[instr.A] | ctrl[pc]
			case ir.OpConst:
				regTaint[instr.Dst] |= ctrl[pc]
			default:
				dst, reads := Operands(instr)
				if dst >= 0 && int(dst) < len(regTaint) {
					m := ctrl[pc]
					for _, r := range reads {
						if r >= 0 && int(r) < len(regTaint) {
							m |= regTaint[r]
						}
					}
					regTaint[dst] |= m
				}
			}
			// Per-instruction operand taint (overwritten each pass; masks
			// only grow, so the final pass holds the settled value).
			m := ctrl[pc]
			switch instr.Op {
			case ir.OpLoadIn:
				m |= fieldBit(int(instr.Imm))
			case ir.OpLoadState:
				m |= stTaint[instr.Imm]
			case ir.OpStoreState:
				m |= regTaint[instr.A] | stTaint[instr.Imm]
			case ir.OpJmpIf, ir.OpJmpIfNot:
				m |= regTaint[instr.A]
			case ir.OpCondProbe:
				m |= regTaint[instr.B]
			case ir.OpConst, ir.OpJmp, ir.OpHalt, ir.OpNop, ir.OpProbe:
			default:
				_, reads := Operands(instr)
				for _, r := range reads {
					if r >= 0 && int(r) < len(regTaint) {
						m |= regTaint[r]
					}
				}
			}
			opnd[pc] = m
		}
		// Probe resolution needs the settled ctrl array of this pass.
		for pc := range code {
			instr := &code[pc]
			switch instr.Op {
			case ir.OpProbe:
				if d := int(instr.A); d >= 0 && d < len(plan.Decisions) {
					dec := plan.Decision(d)
					if o := int(instr.B); o >= 0 && o < dec.NumOutcomes {
						inf.Branch[dec.OutcomeBase+o] |= ctrl[pc]
					}
				}
			case ir.OpCondProbe:
				if c := int(instr.A); c >= 0 && c < len(plan.Conds) {
					cond := plan.Cond(c)
					m := regTaint[instr.B] | ctrl[pc]
					inf.Branch[cond.BranchBase] |= m
					inf.Branch[cond.BranchBase+1] |= m
				}
			}
		}
	}

	// Iterate to a fixpoint: taint flows through state slots across
	// iterations and through backward control regions, both of which need
	// extra passes. Masks only grow, so convergence is guaranteed.
	for pass := 0; pass < 8; pass++ {
		before := checksum(regTaint, stTaint, inf.Branch)
		scan(p.Init, inf.InitTaint)
		scan(p.Step, inf.StepTaint)
		if checksum(regTaint, stTaint, inf.Branch) == before {
			break
		}
	}
	return inf
}

// TaintAt returns the input-field mask for one instruction of the named
// function ("init" or "step"); out-of-range queries return 0.
func (inf *Influence) TaintAt(fn string, pc int) uint64 {
	var t []uint64
	switch fn {
	case "init":
		t = inf.InitTaint
	case "step":
		t = inf.StepTaint
	}
	if pc < 0 || pc >= len(t) {
		return 0
	}
	return t[pc]
}

// FieldsOf expands a taint mask into input-field indexes.
func (inf *Influence) FieldsOf(m uint64) []int {
	var out []int
	for i := 0; i < inf.NumFields; i++ {
		if m&fieldBit(i) != 0 {
			out = append(out, i)
		}
	}
	return out
}

func checksum(xs ...[]uint64) uint64 {
	var h uint64 = 1469598103934665603
	for _, s := range xs {
		for _, v := range s {
			h ^= v
			h *= 1099511628211
		}
	}
	return h
}

// Fields returns the input-field indexes that can influence a branch slot.
func (inf *Influence) Fields(branch int) []int {
	if branch < 0 || branch >= len(inf.Branch) {
		return nil
	}
	m := inf.Branch[branch]
	var out []int
	for i := 0; i < inf.NumFields; i++ {
		if m&fieldBit(i) != 0 {
			out = append(out, i)
		}
	}
	return out
}

// Weights returns a per-field mutation weight: 1 baseline plus 1 for every
// wanted branch slot the field can influence. Fields that influence nothing
// still get the baseline, so no strategy ever starves completely.
func (inf *Influence) Weights(want func(branch int) bool) []float64 {
	w := make([]float64, inf.NumFields)
	for i := range w {
		w[i] = 1
	}
	for slot, m := range inf.Branch {
		if m == 0 || !want(slot) {
			continue
		}
		for i := 0; i < inf.NumFields; i++ {
			if m&fieldBit(i) != 0 {
				w[i]++
			}
		}
	}
	return w
}
