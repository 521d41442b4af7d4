package analysis

import "cftcg/internal/ir"

// Liveness is a whole-program backward register-liveness analysis over the
// lowered IR. It answers, per instruction, which registers may still be read
// after that point on some execution — the judgment that separates a store
// that is merely shadowed on one path from one that is dead on every path.
//
// The analysis is call-aware: a machine's registers persist from the init
// call into every subsequent step call, and step runs repeatedly. A register
// is therefore live at init's exit iff step may read it before writing it,
// and live at step's exit iff a *future* step call may read it first — the
// step exit set is the fixpoint of feeding step's entry-live set back into
// its own exit.
type Liveness struct {
	initOut [][]bool // live-out per init pc (nil = unreachable)
	stepOut [][]bool // live-out per step pc (nil = unreachable)
	stepIn  []bool   // live at step entry (== init's exit-live set)
}

// ComputeLiveness runs the analysis. It is defensive about malformed
// programs (out-of-range registers and jump targets are ignored) so the
// verifier can call it on arbitrary input.
func ComputeLiveness(p *ir.Program) *Liveness {
	n := p.NumRegs
	l := &Liveness{}
	// Step exit-live fixpoint: exit₀ = ∅, exitₖ₊₁ = exitₖ ∪ entry(step|exitₖ).
	// Monotone over a finite set, so it converges in ≤ n+1 rounds.
	exit := make([]bool, n)
	for round := 0; round <= n+1; round++ {
		l.stepOut, l.stepIn = funcLiveness(p.Step, n, exit)
		grew := false
		for r, v := range l.stepIn {
			if v && !exit[r] {
				exit[r] = true
				grew = true
			}
		}
		if !grew {
			break
		}
	}
	l.initOut, _ = funcLiveness(p.Init, n, l.stepIn)
	return l
}

// LiveOut returns the live-out register set after the instruction at
// (fn, pc), or nil when the pc is unreachable or out of range. The returned
// slice is shared — callers must not mutate it.
func (l *Liveness) LiveOut(fn string, pc int) []bool {
	var per [][]bool
	if fn == "init" {
		per = l.initOut
	} else {
		per = l.stepOut
	}
	if pc < 0 || pc >= len(per) {
		return nil
	}
	return per[pc]
}

// StepEntryLive returns the registers live at step entry — exactly the
// registers init must be considered to publish.
func (l *Liveness) StepEntryLive() []bool { return l.stepIn }

// funcLiveness computes per-pc live-out sets for one function, given the
// registers live when the function exits (falls off the end or halts).
// Unreachable pcs get nil. Also returns the entry-live set.
func funcLiveness(code []ir.Instr, numRegs int, exitLive []bool) (perPC [][]bool, entry []bool) {
	perPC = make([][]bool, len(code))
	entry = make([]bool, numRegs)
	if len(code) == 0 {
		copy(entry, exitLive)
		return perPC, entry
	}
	blocks := buildBlocks(code)
	reach := reachableBlocks(blocks)
	nb := len(blocks)
	liveIn := make([][]bool, nb)

	// blockOut unions the live-in sets of a block's successors; an index
	// == nb means the function exit.
	blockOut := func(bi int) []bool {
		out := make([]bool, numRegs)
		for _, s := range blocks[bi].succs {
			var src []bool
			if s >= nb {
				src = exitLive
			} else {
				src = liveIn[s]
			}
			for r := 0; r < numRegs && r < len(src); r++ {
				out[r] = out[r] || src[r]
			}
		}
		if len(blocks[bi].succs) == 0 { // OpHalt terminator: function exit
			for r := 0; r < numRegs && r < len(exitLive); r++ {
				out[r] = out[r] || exitLive[r]
			}
		}
		return out
	}
	// scanBack walks one block backward: live-in = (live-out \ dst) ∪ reads.
	scanBack := func(bi int, out []bool, record bool) []bool {
		live := append([]bool(nil), out...)
		for pc := blocks[bi].end - 1; pc >= blocks[bi].start; pc-- {
			if record {
				perPC[pc] = append([]bool(nil), live...)
			}
			dst, reads, n := Operands(&code[pc])
			if dst >= 0 && int(dst) < numRegs {
				live[dst] = false
			}
			for _, r := range reads[:n] {
				if r >= 0 && int(r) < numRegs {
					live[r] = true
				}
			}
		}
		return live
	}

	for changed := true; changed; {
		changed = false
		for bi := nb - 1; bi >= 0; bi-- {
			if !reach[bi] {
				continue
			}
			in := scanBack(bi, blockOut(bi), false)
			if !boolsEqual(in, liveIn[bi]) {
				liveIn[bi] = in
				changed = true
			}
		}
	}
	for bi := range blocks {
		if reach[bi] {
			scanBack(bi, blockOut(bi), true)
		}
	}
	if liveIn[0] != nil {
		copy(entry, liveIn[0])
	}
	return perPC, entry
}

// ReachablePCs marks the instructions reachable from the function entry.
func ReachablePCs(code []ir.Instr) []bool {
	out := make([]bool, len(code))
	blocks := buildBlocks(code)
	reach := reachableBlocks(blocks)
	for bi, b := range blocks {
		if reach[bi] {
			for pc := b.start; pc < b.end; pc++ {
				out[pc] = true
			}
		}
	}
	return out
}
