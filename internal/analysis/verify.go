// Package analysis is the static-analysis layer over the lowered register
// IR: a strict verifier/lint (Pass 1), an abstract interpreter that proves
// coverage objectives infeasible (Pass 2), and an input-field influence map
// that tells a tester which inputs can move each branch (Pass 3, printed by
// `cftcg analyze`). The verifier hardens the compiler; the other two passes
// are diagnostics: a provably unreachable objective stays in every coverage
// denominator.
package analysis

import (
	"fmt"
	"sort"
	"strings"

	"cftcg/internal/coverage"
	"cftcg/internal/ir"
	"cftcg/internal/model"
)

// Severity classifies a verifier issue.
type Severity uint8

// Issue severities. Errors make VerifyStrict fail; warnings are lint.
const (
	SevWarn Severity = iota
	SevError
)

func (s Severity) String() string {
	if s == SevError {
		return "error"
	}
	return "warning"
}

// Issue is one verifier finding, positioned at a function and pc.
type Issue struct {
	Func string // "init" or "step"
	PC   int
	Sev  Severity
	Msg  string
}

func (i Issue) String() string {
	return fmt.Sprintf("%s: %s[%d]: %s", i.Sev, i.Func, i.PC, i.Msg)
}

// Verify runs the strict IR verifier over both functions of a program:
// operand and jump ranges, def-before-use per register, per-opcode DT
// consistency, probe IDs bounded by the coverage plan, plus unreachable-code
// and dead-store lint. plan may be nil to skip the probe checks. Issues are
// ordered init-first, by pc.
func Verify(p *ir.Program, plan *coverage.Plan) []Issue {
	return verify(p, plan, true)
}

// VerifyStrict returns an error summarizing every SevError issue (nil when
// the program is verifier-clean). It runs the verifier without its lint, so
// it skips the liveness analysis that only the dead-store lint needs.
func VerifyStrict(p *ir.Program, plan *coverage.Plan) error {
	var errs []string
	for _, is := range verify(p, plan, false) {
		errs = append(errs, is.String())
	}
	if len(errs) == 0 {
		return nil
	}
	return fmt.Errorf("analysis: %s: %d verifier error(s):\n  %s",
		p.Name, len(errs), strings.Join(errs, "\n  "))
}

// VerifyPatch returns VerifyStrict(p, plan) for a program p that differs
// from a verifier-clean original only in instruction pc of fn ("init" or
// "step"), where the original held orig. When the patched instruction keeps
// orig's shape (its dst, its reads, its control class and, for a jump, its
// target), the function's blocks, reachability, def-before-use and init's
// exit def set are the original's, so only that instruction's own rules can
// fail, and only they are checked. Any other patch, and any failing rule,
// runs the full pass, so an error reads exactly as VerifyStrict's. The
// caller vouches for the original: an error elsewhere in it would go
// unreported, so a caller that has not seen it pass VerifyStrict must call
// VerifyStrict instead.
func VerifyPatch(p *ir.Program, plan *coverage.Plan, fn string, pc int, orig ir.Instr) error {
	var code []ir.Instr
	switch fn {
	case "init":
		code = p.Init
	case "step":
		code = p.Step
	}
	if pc < 0 || pc >= len(code) || !sameShape(&code[pc], &orig) {
		return VerifyStrict(p, plan)
	}
	v := verifier{p: p, plan: plan}
	v.checkInstr(fn, code, pc)
	if len(v.issues) > 0 {
		return VerifyStrict(p, plan)
	}
	return nil
}

// Control classes: how an instruction ends or splits a basic block.
const (
	ctlNone = iota
	ctlJmp
	ctlCondJmp
	ctlHalt
)

func controlClass(op ir.Op) int {
	switch op {
	case ir.OpJmp:
		return ctlJmp
	case ir.OpJmpIf, ir.OpJmpIfNot:
		return ctlCondJmp
	case ir.OpHalt:
		return ctlHalt
	}
	return ctlNone
}

// sameShape reports whether b can stand in for a without changing any
// block boundary, edge or def-use fact of the function: the same dst and
// reads, the same control class and, for a jump, the same target.
func sameShape(a, b *ir.Instr) bool {
	ad, ar, an := Operands(a)
	bd, br, bn := Operands(b)
	class := controlClass(a.Op)
	if ad != bd || ar != br || an != bn || class != controlClass(b.Op) {
		return false
	}
	return (class != ctlJmp && class != ctlCondJmp) || a.Imm == b.Imm
}

// verify checks both functions; lint adds the SevWarn findings.
func verify(p *ir.Program, plan *coverage.Plan, lint bool) []Issue {
	v := &verifier{p: p, plan: plan, lint: lint}
	if lint {
		v.readRegs = globalReads(p)
		v.live = ComputeLiveness(p)
	}
	initDefs := v.verifyFunc("init", p.Init, make([]bool, p.NumRegs))
	// Registers persist in the machine between the init and step calls, so
	// step may rely on any register init is guaranteed to have written.
	v.verifyFunc("step", p.Step, initDefs)
	return v.issues
}

// DeadStoreWarnings counts the verifier's dead-store lint findings — the
// metric `cftcg analyze -stats`, `cftcg info` and Table 2 report.
func DeadStoreWarnings(p *ir.Program, plan *coverage.Plan) int {
	n := 0
	for _, is := range Verify(p, plan) {
		if is.Sev == SevWarn && strings.Contains(is.Msg, "dead store") {
			n++
		}
	}
	return n
}

type verifier struct {
	p        *ir.Program
	plan     *coverage.Plan
	lint     bool   // report SevWarn findings too
	readRegs []bool // registers read anywhere in init+step (lint only)
	live     *Liveness
	issues   []Issue
}

func (v *verifier) errf(fn string, pc int, format string, args ...interface{}) {
	v.issues = append(v.issues, Issue{Func: fn, PC: pc, Sev: SevError, Msg: fmt.Sprintf(format, args...)})
}

func (v *verifier) warnf(fn string, pc int, format string, args ...interface{}) {
	if !v.lint {
		return
	}
	v.issues = append(v.issues, Issue{Func: fn, PC: pc, Sev: SevWarn, Msg: fmt.Sprintf(format, args...)})
}

// Operands returns the destination register (-1 when none) and the registers
// an instruction reads, reads[:n]; it allocates nothing. Every register-use
// analysis, the mutation prover's included, shares this one table, so a new
// opcode is classified once.
func Operands(ins *ir.Instr) (dst int32, reads [3]int32, n int) {
	switch ins.Op {
	case ir.OpConst, ir.OpLoadIn, ir.OpLoadState:
		return ins.Dst, reads, 0
	case ir.OpMov, ir.OpNeg, ir.OpAbs, ir.OpNot, ir.OpTruth, ir.OpCast,
		ir.OpSqrt, ir.OpExp, ir.OpLog, ir.OpSin, ir.OpCos, ir.OpTan,
		ir.OpFloor, ir.OpCeil, ir.OpRound, ir.OpTrunc:
		return ins.Dst, [3]int32{ins.A}, 1
	case ir.OpSelect:
		return ins.Dst, [3]int32{ins.A, ins.B, ins.C}, 3
	case ir.OpStoreOut, ir.OpStoreState, ir.OpJmpIf, ir.OpJmpIfNot:
		return -1, [3]int32{ins.A}, 1
	case ir.OpCondProbe:
		return -1, [3]int32{ins.B}, 1
	case ir.OpJmp, ir.OpHalt, ir.OpNop, ir.OpProbe:
		return -1, reads, 0
	default: // remaining binary ALU ops
		return ins.Dst, [3]int32{ins.A, ins.B}, 2
	}
}

// globalReads marks every register read anywhere in the program, for
// dead-store lint (a def whose register no instruction ever reads).
func globalReads(p *ir.Program) []bool {
	reads := make([]bool, p.NumRegs)
	scan := func(code []ir.Instr) {
		for i := range code {
			_, rs, n := Operands(&code[i])
			for _, r := range rs[:n] {
				if r >= 0 && int(r) < len(reads) {
					reads[r] = true
				}
			}
		}
	}
	scan(p.Init)
	scan(p.Step)
	return reads
}

// checkInstr applies one instruction's own rules: operand, jump and slot
// ranges, the per-opcode DT invariants and probe IDs bounded by the plan.
func (v *verifier) checkInstr(fn string, code []ir.Instr, pc int) {
	n := int32(v.p.NumRegs)
	ins := &code[pc]
	dst, reads, nr := Operands(ins)
	if dst >= n {
		v.errf(fn, pc, "%s: dst register r%d out of range (%d registers)", ins.Op, dst, n)
	}
	for _, r := range reads[:nr] {
		if r < 0 || r >= n {
			v.errf(fn, pc, "%s: source register r%d out of range (%d registers)", ins.Op, r, n)
		}
	}
	switch ins.Op {
	case ir.OpJmp, ir.OpJmpIf, ir.OpJmpIfNot:
		if ins.Imm > uint64(len(code)) {
			v.errf(fn, pc, "%s: jump target %d beyond function end %d", ins.Op, ins.Imm, len(code))
		}
	case ir.OpLoadIn:
		if int(ins.Imm) >= len(v.p.In) {
			v.errf(fn, pc, "loadin: input slot %d out of range (%d fields)", ins.Imm, len(v.p.In))
		}
	case ir.OpStoreOut:
		if int(ins.Imm) >= len(v.p.Out) {
			v.errf(fn, pc, "storeout: output slot %d out of range (%d fields)", ins.Imm, len(v.p.Out))
		}
	case ir.OpLoadState, ir.OpStoreState:
		if int(ins.Imm) >= v.p.NumState {
			v.errf(fn, pc, "%s: state slot %d out of range (%d slots)", ins.Op, ins.Imm, v.p.NumState)
		}
	case ir.OpProbe:
		if v.plan != nil {
			if int(ins.A) < 0 || int(ins.A) >= len(v.plan.Decisions) {
				v.errf(fn, pc, "probe: decision ID %d out of range (%d decisions)", ins.A, len(v.plan.Decisions))
			} else if d := v.plan.Decision(int(ins.A)); int(ins.B) < 0 || int(ins.B) >= d.NumOutcomes {
				v.errf(fn, pc, "probe: outcome %d out of range for decision %d (%d outcomes)",
					ins.B, ins.A, d.NumOutcomes)
			}
		}
	case ir.OpCondProbe:
		if v.plan != nil && (int(ins.A) < 0 || int(ins.A) >= len(v.plan.Conds)) {
			v.errf(fn, pc, "condprobe: condition ID %d out of range (%d conditions)", ins.A, len(v.plan.Conds))
		}
	}
	// DT invariants per opcode class. Zero-valued DT is model.Bool, so
	// only opcodes whose lowering always sets a type are checked.
	switch ins.Op {
	case ir.OpTruth:
		if ins.DT != model.Bool {
			v.errf(fn, pc, "truth: result type must be bool, got %s", ins.DT)
		}
		if !ins.DT2.Valid() {
			v.errf(fn, pc, "truth: invalid source type %d", ins.DT2)
		} else if ins.DT2 == model.Bool {
			v.warnf(fn, pc, "truth of a bool register is an identity")
		}
	case ir.OpCast:
		if !ins.DT.Valid() || !ins.DT2.Valid() {
			v.errf(fn, pc, "cast: invalid types %d -> %d", ins.DT2, ins.DT)
		} else if ins.DT == ins.DT2 {
			v.warnf(fn, pc, "identity cast %s -> %s", ins.DT2, ins.DT)
		}
	case ir.OpAnd, ir.OpOr, ir.OpXor, ir.OpNot:
		if ins.DT != model.Bool {
			v.errf(fn, pc, "%s: logical op type must be bool, got %s", ins.Op, ins.DT)
		}
	case ir.OpBitAnd, ir.OpBitOr, ir.OpBitXor, ir.OpShl, ir.OpShr:
		if !ins.DT.IsInteger() {
			v.errf(fn, pc, "%s: bitwise op type must be integer, got %s", ins.Op, ins.DT)
		}
	case ir.OpSqrt, ir.OpExp, ir.OpLog, ir.OpSin, ir.OpCos, ir.OpTan,
		ir.OpFloor, ir.OpCeil, ir.OpRound, ir.OpTrunc:
		if !ins.DT.IsFloat() {
			v.errf(fn, pc, "%s: math op type must be float, got %s", ins.Op, ins.DT)
		}
	case ir.OpAdd, ir.OpSub, ir.OpMul, ir.OpDiv, ir.OpMin, ir.OpMax,
		ir.OpEq, ir.OpNe, ir.OpLt, ir.OpLe, ir.OpGt, ir.OpGe, ir.OpSelect:
		if !ins.DT.Valid() {
			v.errf(fn, pc, "%s: invalid operation type %d", ins.Op, ins.DT)
		}
	}
}

// verifyFunc checks one function and returns the set of registers guaranteed
// defined on every path through it (its must-defined exit set).
func (v *verifier) verifyFunc(fn string, code []ir.Instr, entryDefs []bool) []bool {
	n := int32(v.p.NumRegs)
	for pc := range code {
		v.checkInstr(fn, code, pc)
		// Dead-store lint, in two precision tiers. A register no instruction
		// ever reads is trivially dead; a register that is read somewhere but
		// not live after this definition (every path overwrites it before any
		// read) is a store killed by control flow. The liveness analysis
		// distinguishes the two; the mutation prover's dead-register rule
		// reads the same liveness, so it and this lint agree on what "dead"
		// means.
		if !v.lint {
			continue
		}
		if dst, _, _ := Operands(&code[pc]); dst >= 0 && dst < n {
			if !v.readRegs[dst] {
				v.warnf(fn, pc, "dead store: r%d is never read", dst)
			} else if lo := v.live.LiveOut(fn, pc); lo != nil && int(dst) < len(lo) && !lo[dst] {
				v.warnf(fn, pc, "dead store: r%d is overwritten before it can be read", dst)
			}
		}
	}

	blocks := buildBlocks(code)
	reach := reachableBlocks(blocks)
	for bi, b := range blocks {
		if !reach[bi] && b.start < b.end {
			v.warnf(fn, b.start, "unreachable code (through %s[%d])", fn, b.end-1)
		}
	}

	// Must-defined forward dataflow: in[b] = ∩ of predecessor outs. Only
	// reachable blocks participate; uses of registers outside every in-set
	// are def-before-use errors.
	nb := len(blocks)
	preds := make([][]int, nb)
	for bi, b := range blocks {
		for _, s := range b.succs {
			if s < nb {
				preds[s] = append(preds[s], bi)
			}
		}
	}
	ins := make([][]bool, nb)
	outs := make([][]bool, nb)
	transfer := func(bi int) []bool {
		defs := append([]bool(nil), ins[bi]...)
		for pc := blocks[bi].start; pc < blocks[bi].end; pc++ {
			if dst, _, _ := Operands(&code[pc]); dst >= 0 && dst < n {
				defs[dst] = true
			}
		}
		return defs
	}
	if nb > 0 {
		ins[0] = append([]bool(nil), entryDefs...)
		outs[0] = transfer(0)
		changed := true
		for changed {
			changed = false
			for bi := 0; bi < nb; bi++ {
				if !reach[bi] {
					continue
				}
				var in []bool
				if bi == 0 {
					in = append([]bool(nil), entryDefs...)
				}
				for _, p := range preds[bi] {
					if !reach[p] || outs[p] == nil {
						continue
					}
					if in == nil {
						in = append([]bool(nil), outs[p]...)
					} else {
						for r := range in {
							in[r] = in[r] && outs[p][r]
						}
					}
				}
				if in == nil {
					in = make([]bool, n) // no analyzed predecessor yet
				}
				if !boolsEqual(in, ins[bi]) {
					ins[bi] = in
					outs[bi] = transfer(bi)
					changed = true
				}
			}
		}
	}
	for bi, b := range blocks {
		if !reach[bi] || ins[bi] == nil {
			continue
		}
		defs := append([]bool(nil), ins[bi]...)
		for pc := b.start; pc < b.end; pc++ {
			dst, reads, nr := Operands(&code[pc])
			for _, r := range reads[:nr] {
				if r >= 0 && r < n && !defs[r] {
					v.errf(fn, pc, "%s: use of r%d before definition", code[pc].Op, r)
				}
			}
			if dst >= 0 && dst < n {
				defs[dst] = true
			}
		}
	}

	// Must-defined exit set: intersection over every block that leaves the
	// function (falls off the end or halts).
	var exit []bool
	for bi, b := range blocks {
		if !reach[bi] || outs[bi] == nil {
			continue
		}
		terminal := len(b.succs) == 0
		for _, s := range b.succs {
			if s >= nb {
				terminal = true
			}
		}
		if !terminal {
			continue
		}
		if exit == nil {
			exit = append([]bool(nil), outs[bi]...)
		} else {
			for r := range exit {
				exit[r] = exit[r] && outs[bi][r]
			}
		}
	}
	if exit == nil {
		exit = make([]bool, n)
	}
	return exit
}

func boolsEqual(a, b []bool) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// block is one basic block: instructions [start, end), with successor block
// indexes (an index == len(blocks) means "falls off the function end").
type block struct {
	start, end int
	succs      []int
}

// buildBlocks splits a function into basic blocks. Jump targets beyond the
// code (malformed programs) are clamped so the verifier can keep going.
func buildBlocks(code []ir.Instr) []block {
	n := len(code)
	if n == 0 {
		return nil
	}
	leader := make([]bool, n+1)
	leader[0] = true
	for pc := range code {
		switch code[pc].Op {
		case ir.OpJmp, ir.OpJmpIf, ir.OpJmpIfNot:
			t := int(code[pc].Imm)
			if t <= n {
				leader[t] = true
			}
			if pc+1 <= n {
				leader[pc+1] = true
			}
		case ir.OpHalt:
			if pc+1 <= n {
				leader[pc+1] = true
			}
		}
	}
	var starts []int
	for pc := 0; pc < n; pc++ {
		if leader[pc] {
			starts = append(starts, pc)
		}
	}
	blockAt := make(map[int]int, len(starts))
	for i, s := range starts {
		blockAt[s] = i
	}
	blocks := make([]block, len(starts))
	for i, s := range starts {
		end := n
		if i+1 < len(starts) {
			end = starts[i+1]
		}
		b := block{start: s, end: end}
		last := &code[end-1]
		target := func(t uint64) int {
			if int(t) >= n {
				return len(starts) // off the end
			}
			return blockAt[int(t)]
		}
		switch last.Op {
		case ir.OpJmp:
			b.succs = []int{target(last.Imm)}
		case ir.OpJmpIf, ir.OpJmpIfNot:
			b.succs = []int{target(last.Imm)}
			if end < n {
				b.succs = append(b.succs, blockAt[end])
			} else {
				b.succs = append(b.succs, len(starts))
			}
		case ir.OpHalt:
			// terminal
		default:
			if end < n {
				b.succs = []int{blockAt[end]}
			} else {
				b.succs = []int{len(starts)}
			}
		}
		blocks[i] = b
	}
	return blocks
}

// reachableBlocks marks blocks reachable from the function entry.
func reachableBlocks(blocks []block) []bool {
	reach := make([]bool, len(blocks))
	if len(blocks) == 0 {
		return reach
	}
	work := []int{0}
	reach[0] = true
	for len(work) > 0 {
		bi := work[len(work)-1]
		work = work[:len(work)-1]
		for _, s := range blocks[bi].succs {
			if s < len(blocks) && !reach[s] {
				reach[s] = true
				work = append(work, s)
			}
		}
	}
	return reach
}

// FormatIssues renders a lint report, errors first.
func FormatIssues(issues []Issue) string {
	if len(issues) == 0 {
		return "verifier clean: no issues\n"
	}
	sorted := append([]Issue(nil), issues...)
	sort.SliceStable(sorted, func(i, j int) bool { return sorted[i].Sev > sorted[j].Sev })
	var w strings.Builder
	for _, is := range sorted {
		w.WriteString(is.String())
		w.WriteByte('\n')
	}
	return w.String()
}
