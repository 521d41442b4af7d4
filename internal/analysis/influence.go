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
// that can influence whether it is recorded. Over-approximation is the
// intended direction here: naming a field that cannot in fact move a branch
// misleads a tester less than omitting one that can.

// Influence maps branch slots to input-field sets. Field i occupies mask bit
// min(i, 63): models with more than 64 input fields share the last bit, so
// a field past the 63rd is reported with every other such field instead of
// being dropped.
type Influence struct {
	NumFields int
	Branch    []uint64 // per branch slot: mask of influencing input fields
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
	}
	regTaint := make([]uint64, p.NumRegs)
	stTaint := make([]uint64, p.NumState)

	scan := func(code []ir.Instr) {
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
				dst, reads, n := Operands(instr)
				if dst >= 0 && int(dst) < len(regTaint) {
					m := ctrl[pc]
					for _, r := range reads[:n] {
						if r >= 0 && int(r) < len(regTaint) {
							m |= regTaint[r]
						}
					}
					regTaint[dst] |= m
				}
			}
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
		scan(p.Init)
		scan(p.Step)
		if checksum(regTaint, stTaint, inf.Branch) == before {
			break
		}
	}
	return inf
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
