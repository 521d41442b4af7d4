package vm

import (
	"fmt"

	"cftcg/internal/coverage"
	"cftcg/internal/ir"
	"cftcg/internal/model"
)

// The threaded backend compiles a program once, pre-decoding every
// instruction into a flat micro-op stream (mop.go) the dispatch loop runs:
// operands widened, opcode × data type monomorphized into one dense kind,
// width constants (mask/shift/order-bias) precomputed, and the hot
// instruction pairs the lowering emits fused into superinstructions
// (cmp+jmpIf, const+cmp+jmpIf, probe+jmp and the const/mov/state glue).
// Every value it computes comes from a dense micro-op or, for an
// instruction without one (mop.go lists those shapes), from the reference
// step (EvalPure).
//
// Fuel is accounted centrally in the dispatch loop: each micro-op carries the
// number of source instructions it covers (1, or the span for fused), charged
// before execution in the same check-before-execute order as the reference.
// When the budget dies inside a fused span, the affordable prefix replays
// through the reference step over the source instructions, so partial side
// effects and the HangError pc match the reference Machine exactly.
//
// The compiled Code is immutable: one compile serves any number of Threaded
// machines, on any number of goroutines.

// Code is a program compiled for threaded dispatch.
type Code struct {
	prog       *ir.Program
	init, step funcCode
	fused      int // superinstructions formed across both functions
	refs       int // dispatch sites that run the reference step (mRef)
}

// funcCode is one compiled function body.
type funcCode struct {
	name string     // "init" or "step", as HangError reports it
	src  []ir.Instr // the body ms was compiled from; fuel replay steps it
	// ms is the pre-decoded micro-op stream with superinstructions installed
	// at fusion heads, ending in the mHalt sentinel.
	ms []mop
}

// Program returns the program this code was compiled from.
func (c *Code) Program() *ir.Program { return c.prog }

// Fused returns how many superinstructions the compiler formed — tests use
// it to assert the fusion patterns actually fire.
func (c *Code) Fused() int { return c.fused }

// RefSites returns how many dispatch sites run the reference step instead of
// a dense micro-op — tests use it to pin the benchmark models' traffic to
// dense kinds.
func (c *Code) RefSites() int { return c.refs }

// CompileThreaded translates a program into threaded code. The result is
// safe to share across machines and goroutines.
//
// The program must be valid: the compiled stream addresses the register
// file without per-access bounds checks, relying on Validate's range checks
// as the one-time proof. An invalid program is a caller bug, reported by
// panic rather than by memory corruption at execution time. The program must
// not change after compiling: the fuel-exhaustion replay steps through its
// instructions.
func CompileThreaded(p *ir.Program) *Code {
	if err := p.Validate(); err != nil {
		panic("vm: CompileThreaded on invalid program: " + err.Error())
	}
	c := &Code{prog: p}
	initFused, initRefs := c.init.compile("init", p.Init)
	stepFused, stepRefs := c.step.compile("step", p.Step)
	c.fused, c.refs = initFused+stepFused, initRefs+stepRefs
	return c
}

// Threaded executes one program instance through compiled micro-ops. It is a
// drop-in Backend: same fuel accounting, HangError attribution, probe
// recording and output/state surfaces as the reference Machine.
type Threaded struct {
	code *Code
	s    execState
	fuel int64
	used int64
}

var _ Backend = (*Threaded)(nil)

// NewThreaded compiles the program and returns a threaded machine. rec may
// be nil to run without coverage collection.
func NewThreaded(p *ir.Program, rec *coverage.Recorder) *Threaded {
	return NewThreadedFromCode(CompileThreaded(p), rec)
}

// NewThreadedFromCode returns a threaded machine over already-compiled code
// (sharing one compile across machines).
func NewThreadedFromCode(c *Code, rec *coverage.Recorder) *Threaded {
	return &Threaded{code: c, s: newExecState(c.prog, rec), fuel: DefaultFuel}
}

// SetFuel sets the per-call instruction budget; n <= 0 restores DefaultFuel.
func (t *Threaded) SetFuel(n int64) {
	if n <= 0 {
		n = DefaultFuel
	}
	t.fuel = n
}

// Fuel returns the per-call instruction budget.
func (t *Threaded) Fuel() int64 { return t.fuel }

// LastFuelUsed returns how many instructions the most recent Init or Step
// call executed.
func (t *Threaded) LastFuelUsed() int64 { return t.used }

// Program returns the machine's program.
func (t *Threaded) Program() *ir.Program { return t.code.prog }

// Out returns the output values of the last step (reused across steps).
func (t *Threaded) Out() []uint64 { return t.s.out }

// State exposes the persistent state vector.
func (t *Threaded) State() []uint64 { return t.s.state }

// Init resets the machine and runs the program's init function.
func (t *Threaded) Init() error {
	clear(t.s.state)
	clear(t.s.out)
	return t.exec(&t.code.init)
}

// Step runs one model iteration with the given input tuple.
func (t *Threaded) Step(in []uint64) error {
	t.s.in = in
	return t.exec(&t.code.step)
}

func (t *Threaded) exec(f *funcCode) error {
	left, hangPC, hung := runMops(f, &t.s, t.fuel)
	if hung {
		t.used = t.fuel
		return &HangError{Func: f.name, PC: hangPC, Fuel: t.fuel, Site: t.code.prog.LoopSiteFor(f.name, hangPC)}
	}
	t.used = t.fuel - left
	return nil
}

// compile translates one function body into a pre-decoded micro-op per pc,
// then installs superinstructions at fusion heads where the covered pcs are
// not jump targets. It returns the number of superinstructions formed and of
// dispatch sites (fusion heads and unfused mops) that are mRef.
func (f *funcCode) compile(name string, code []ir.Instr) (fused, refs int) {
	n := len(code)
	// One spare slot so appending the sentinel below does not copy.
	ms := make([]mop, n, n+1)
	for pc := range code {
		ms[pc] = compileMop(&code[pc], pc, n)
	}
	fused = fuseMops(code, ms)
	for pc := 0; pc < n; pc += int(ms[pc].cost) {
		if ms[pc].kind == mRef {
			refs++
		}
	}
	// Sentinel: every exit path lands here — sequential fall-through, an
	// explicit halt's jump, or a branch to pc == len(code). Its zero cost
	// can never trip the fuel check, so the dispatch loop needs neither a
	// pc < n test nor a bounds check on the mop fetch.
	f.name, f.src, f.ms = name, code, append(ms, mop{kind: mHalt})
	return fused, refs
}

// jumpTargets marks every pc some jump in the function lands on.
func jumpTargets(code []ir.Instr) []bool {
	t := make([]bool, len(code)+1)
	for i := range code {
		switch code[i].Op {
		case ir.OpJmp, ir.OpJmpIf, ir.OpJmpIfNot:
			if code[i].Imm <= uint64(len(code)) {
				t[code[i].Imm] = true
			}
		}
	}
	return t
}

func isCmp(op ir.Op) bool {
	switch op {
	case ir.OpEq, ir.OpNe, ir.OpLt, ir.OpLe, ir.OpGt, ir.OpGe:
		return true
	}
	return false
}

// jumpTo resolves a jump immediate at compile time. Targets beyond the
// function end fall off cleanly (Validate allows target == len); a target
// that does not fit an int cannot be represented and panics at compile like
// the reference interpreter would at run time.
func jumpTo(imm uint64, n int) int {
	t := int(imm)
	if t < 0 {
		panic(fmt.Sprintf("vm: jump target %d overflows", imm))
	}
	if t > n {
		t = n
	}
	return t
}

// maskOf returns the payload mask of an integer-like type: 1 for Bool (one
// payload bit), 2^w-1 for w-bit integers, 0 for types with no integer
// payload (matching model.DecodeInt's 0 for them).
func maskOf(dt model.DType) uint64 {
	if dt == model.Bool {
		return 1
	}
	if !dt.IsInteger() {
		return 0
	}
	return uint64(1)<<uint(dt.Size()*8) - 1
}

func b2u(v bool) uint64 {
	if v {
		return 1
	}
	return 0
}
