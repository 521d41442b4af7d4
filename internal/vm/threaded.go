package vm

import (
	"fmt"
	"math"
	"sync"

	"cftcg/internal/coverage"
	"cftcg/internal/ir"
	"cftcg/internal/model"
)

// The threaded backend compiles a program once, pre-decoding every
// instruction into two parallel forms:
//
//   - a flat micro-op stream (mop.go) the dispatch loop runs: operands
//     widened, opcode × data type monomorphized into one dense kind,
//     width constants (mask/shift/order-bias) precomputed, and the hot
//     instruction pairs the lowering emits fused into superinstructions
//     (const+arith, cmp+jmpIf, loadState+arith+storeState);
//   - a slice of Go closures, one per instruction, each a pre-bound unfused
//     executor for the fuel-exhaustion path: when the budget dies inside a
//     fused span, the affordable prefix replays through the closures so
//     partial side effects and the HangError pc match the reference switch
//     interpreter exactly. Only that path reads them, so they are built on
//     the first exhaustion rather than at compile time.
//
// Fuel is accounted centrally in the dispatch loop: each micro-op carries the
// number of source instructions it covers (1, or the span for fused), charged
// before execution in the same check-before-execute order as the reference.
//
// The compiled Code is shared: one compile serves any number of Threaded
// machines, on any number of goroutines. Its only mutable part, the lazily
// built replay closures, is guarded by a sync.Once.

// execState is the mutable register/state/output file a compiled program
// executes against; each Threaded machine owns one.
type execState struct {
	regs  []uint64
	state []uint64
	out   []uint64
	in    []uint64
	rec   *coverage.Recorder
}

// opFn executes one (possibly fused) instruction and returns the next pc.
// Returning len(code) ends the function cleanly.
type opFn func(s *execState) int

// Code is a program compiled for threaded dispatch.
type Code struct {
	prog       *ir.Program
	init, step funcCode
	fused      int // superinstructions formed across both functions
}

// funcCode is one compiled function body.
type funcCode struct {
	name string     // "init" or "step", as HangError reports it
	src  []ir.Instr // the body ms was compiled from
	// ms is the pre-decoded micro-op stream with superinstructions installed
	// at fusion heads, ending in the mHalt sentinel.
	ms []mop

	// slow holds the unfused closure for every pc (fuel-exhaustion replay,
	// see the package comment), built once by slowOps.
	slowOnce sync.Once
	slow     []opFn
}

// slowOps returns the per-pc replay closures, compiling them on first use.
// Safe for concurrent use: every machine sharing the Code gets the same
// slice.
func (f *funcCode) slowOps() []opFn {
	f.slowOnce.Do(func() {
		n := len(f.src)
		slow := make([]opFn, n)
		for pc := range f.src {
			slow[pc] = compileOp(&f.src[pc], pc, n)
		}
		f.slow = slow
	})
	return f.slow
}

// Program returns the program this code was compiled from.
func (c *Code) Program() *ir.Program { return c.prog }

// Fused returns how many superinstructions the compiler formed — tests use
// it to assert the fusion patterns actually fire.
func (c *Code) Fused() int { return c.fused }

// CompileThreaded translates a program into threaded code. The result is
// safe to share across machines and goroutines.
//
// The program must be valid: the compiled stream addresses the register
// file without per-access bounds checks, relying on Validate's range checks
// as the one-time proof. An invalid program is a caller bug, reported by
// panic rather than by memory corruption at execution time. The program must
// not change after compiling: the fuel-exhaustion replay compiles from it
// lazily.
func CompileThreaded(p *ir.Program) *Code {
	if err := p.Validate(); err != nil {
		panic("vm: CompileThreaded on invalid program: " + err.Error())
	}
	c := &Code{prog: p}
	c.fused = c.init.compile("init", p.Init) + c.step.compile("step", p.Step)
	return c
}

// Threaded executes one program instance through compiled closures. It is a
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
	p := c.prog
	return &Threaded{
		code: c,
		s: execState{
			regs:  make([]uint64, p.NumRegs),
			state: make([]uint64, p.NumState),
			out:   make([]uint64, len(p.Out)),
			rec:   rec,
		},
		fuel: DefaultFuel,
	}
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
// not jump targets. It returns the number of superinstructions formed.
func (f *funcCode) compile(name string, code []ir.Instr) (fused int) {
	n := len(code)
	// One spare slot so appending the sentinel below does not copy.
	ms := make([]mop, n, n+1)
	for pc := range code {
		ms[pc] = compileMop(&code[pc], pc, n)
	}
	fused = fuseMops(code, ms)
	blockCosts(code, ms)
	// Sentinel: every exit path lands here — sequential fall-through, an
	// explicit halt's jump, or a branch to pc == len(code). Its zero cost
	// can never trip the fuel check, so the dispatch loop needs neither a
	// pc < n test nor a bounds check on the mop fetch.
	f.name, f.src, f.ms = name, code, append(ms, mop{kind: mHalt})
	return fused
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

func isArith(op ir.Op) bool {
	switch op {
	case ir.OpAdd, ir.OpSub, ir.OpMul, ir.OpDiv, ir.OpMin, ir.OpMax:
		return true
	}
	return false
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

// compileOp translates one instruction into a closure with pre-decoded
// operands and a monomorphized body. end is the function length (the
// clean-exit pc for OpHalt).
func compileOp(ins *ir.Instr, pc, end int) opFn {
	next := pc + 1
	switch ins.Op {
	case ir.OpNop:
		return func(s *execState) int { return next }

	case ir.OpConst:
		dst, imm := int(ins.Dst), ins.Imm
		return func(s *execState) int {
			s.regs[dst] = imm
			return next
		}
	case ir.OpMov:
		dst, a := int(ins.Dst), int(ins.A)
		return func(s *execState) int {
			s.regs[dst] = s.regs[a]
			return next
		}

	case ir.OpAdd, ir.OpSub, ir.OpMul, ir.OpDiv, ir.OpMin, ir.OpMax,
		ir.OpBitAnd, ir.OpBitOr, ir.OpBitXor, ir.OpShl, ir.OpShr,
		ir.OpEq, ir.OpNe, ir.OpLt, ir.OpLe, ir.OpGt, ir.OpGe:
		f := binFn(ins.Op, ins.DT)
		dst, a, b := int(ins.Dst), int(ins.A), int(ins.B)
		return func(s *execState) int {
			s.regs[dst] = f(s.regs[a], s.regs[b])
			return next
		}

	case ir.OpNeg, ir.OpAbs,
		ir.OpSqrt, ir.OpExp, ir.OpLog, ir.OpSin, ir.OpCos, ir.OpTan,
		ir.OpFloor, ir.OpCeil, ir.OpRound, ir.OpTrunc:
		f := unFn(ins.Op, ins.DT)
		dst, a := int(ins.Dst), int(ins.A)
		return func(s *execState) int {
			s.regs[dst] = f(s.regs[a])
			return next
		}

	case ir.OpAnd:
		dst, a, b := int(ins.Dst), int(ins.A), int(ins.B)
		return func(s *execState) int {
			s.regs[dst] = s.regs[a] & s.regs[b] & 1
			return next
		}
	case ir.OpOr:
		dst, a, b := int(ins.Dst), int(ins.A), int(ins.B)
		return func(s *execState) int {
			s.regs[dst] = (s.regs[a] | s.regs[b]) & 1
			return next
		}
	case ir.OpXor:
		dst, a, b := int(ins.Dst), int(ins.A), int(ins.B)
		return func(s *execState) int {
			s.regs[dst] = (s.regs[a] ^ s.regs[b]) & 1
			return next
		}
	case ir.OpNot:
		dst, a := int(ins.Dst), int(ins.A)
		return func(s *execState) int {
			s.regs[dst] = (s.regs[a] & 1) ^ 1
			return next
		}

	case ir.OpTruth:
		dst, a := int(ins.Dst), int(ins.A)
		switch ins.DT2 {
		case model.Float64:
			return func(s *execState) int {
				s.regs[dst] = b2u(math.Float64frombits(s.regs[a]) != 0)
				return next
			}
		case model.Float32:
			return func(s *execState) int {
				s.regs[dst] = b2u(math.Float32frombits(uint32(s.regs[a])) != 0)
				return next
			}
		}
		// Non-float truth is "any payload bit set": sign extension cannot
		// zero a nonzero value, so the masked raw decides. Invalid types
		// decode to 0 (mask 0), like model.DecodeInt.
		mask := maskOf(ins.DT2)
		return func(s *execState) int {
			s.regs[dst] = b2u(s.regs[a]&mask != 0)
			return next
		}
	case ir.OpSelect:
		dst, a, b, c := int(ins.Dst), int(ins.A), int(ins.B), int(ins.C)
		return func(s *execState) int {
			if s.regs[a] != 0 {
				s.regs[dst] = s.regs[b]
			} else {
				s.regs[dst] = s.regs[c]
			}
			return next
		}
	case ir.OpCast:
		dst, a := int(ins.Dst), int(ins.A)
		to, from := ins.DT, ins.DT2
		return func(s *execState) int {
			s.regs[dst] = model.Cast(to, from, s.regs[a])
			return next
		}

	case ir.OpLoadIn:
		dst, idx := int(ins.Dst), int(ins.Imm)
		return func(s *execState) int {
			s.regs[dst] = s.in[idx]
			return next
		}
	case ir.OpStoreOut:
		a, idx := int(ins.A), int(ins.Imm)
		return func(s *execState) int {
			s.out[idx] = s.regs[a]
			return next
		}
	case ir.OpLoadState:
		dst, idx := int(ins.Dst), int(ins.Imm)
		return func(s *execState) int {
			s.regs[dst] = s.state[idx]
			return next
		}
	case ir.OpStoreState:
		a, idx := int(ins.A), int(ins.Imm)
		return func(s *execState) int {
			s.state[idx] = s.regs[a]
			return next
		}

	case ir.OpJmp:
		tgt := jumpTo(ins.Imm, end)
		return func(s *execState) int { return tgt }
	case ir.OpJmpIf:
		a, tgt := int(ins.A), jumpTo(ins.Imm, end)
		return func(s *execState) int {
			if s.regs[a] != 0 {
				return tgt
			}
			return next
		}
	case ir.OpJmpIfNot:
		a, tgt := int(ins.A), jumpTo(ins.Imm, end)
		return func(s *execState) int {
			if s.regs[a] == 0 {
				return tgt
			}
			return next
		}

	case ir.OpProbe:
		dec, out := int(ins.A), int(ins.B)
		return func(s *execState) int {
			if s.rec != nil {
				s.rec.Outcome(dec, out)
			}
			return next
		}
	case ir.OpCondProbe:
		id, b := int(ins.A), int(ins.B)
		return func(s *execState) int {
			if s.rec != nil {
				s.rec.Cond(id, s.regs[b] != 0)
			}
			return next
		}

	case ir.OpHalt:
		return func(s *execState) int { return end }
	}
	// Unknown opcodes execute as no-ops, exactly like the reference
	// interpreter's switch falling through every case.
	return func(s *execState) int { return next }
}

// --- monomorphized value functions ------------------------------------------
//
// Each builder runs the opcode × data-type dispatch once at compile time and
// returns a closure whose body is the bare decode/op/encode sequence over
// captured width constants. The specialized paths are transcriptions of
// arith/compare/unaryMath from the reference interpreter — the differential
// rig and the semantics matrix test hold them to bit equality. Bool
// arithmetic and ill-typed combinations (which the verifier rejects but
// random or mutated programs may contain) fall back to the reference helpers
// themselves.
//
// Width tricks the integer paths rely on (w = bit width, mask = 2^w-1):
//   - add/sub/mul/neg and the bitwise ops are determined by the low w bits,
//     so one masked uint64 computation serves signed and unsigned alike;
//   - eq/ne compare masked raws (sign extension is injective);
//   - shift amounts take only the low 5 bits of the raw (w >= 8 > 5), so
//     `raw & 31` equals `uint(decoded) & 31`;
//   - div/min/max/shr and the ordered compares decode for real: sign-extend
//     (signed) or mask (unsigned).

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

// binFn builds the value function of a binary arithmetic, bitwise or
// relational op.
func binFn(op ir.Op, dt model.DType) func(a, b uint64) uint64 {
	if isArith(op) {
		return arithFn(op, dt)
	}
	if isCmp(op) {
		return compareFn(op, dt)
	}
	return bitFn(op, dt)
}

func arithFn(op ir.Op, dt model.DType) func(a, b uint64) uint64 {
	switch dt {
	case model.Float64:
		switch op {
		case ir.OpAdd:
			return func(a, b uint64) uint64 {
				return math.Float64bits(math.Float64frombits(a) + math.Float64frombits(b))
			}
		case ir.OpSub:
			return func(a, b uint64) uint64 {
				return math.Float64bits(math.Float64frombits(a) - math.Float64frombits(b))
			}
		case ir.OpMul:
			return func(a, b uint64) uint64 {
				return math.Float64bits(math.Float64frombits(a) * math.Float64frombits(b))
			}
		case ir.OpDiv:
			return func(a, b uint64) uint64 {
				y := math.Float64frombits(b)
				if y == 0 {
					return 0
				}
				return math.Float64bits(math.Float64frombits(a) / y)
			}
		case ir.OpMin:
			return func(a, b uint64) uint64 {
				return math.Float64bits(math.Min(math.Float64frombits(a), math.Float64frombits(b)))
			}
		case ir.OpMax:
			return func(a, b uint64) uint64 {
				return math.Float64bits(math.Max(math.Float64frombits(a), math.Float64frombits(b)))
			}
		}
	case model.Float32:
		// Decode to float64, operate, round once on encode — the exact
		// sequence of the reference arith() so results are bit-identical.
		switch op {
		case ir.OpAdd:
			return func(a, b uint64) uint64 {
				v := float64(math.Float32frombits(uint32(a))) + float64(math.Float32frombits(uint32(b)))
				return uint64(math.Float32bits(float32(v)))
			}
		case ir.OpSub:
			return func(a, b uint64) uint64 {
				v := float64(math.Float32frombits(uint32(a))) - float64(math.Float32frombits(uint32(b)))
				return uint64(math.Float32bits(float32(v)))
			}
		case ir.OpMul:
			return func(a, b uint64) uint64 {
				v := float64(math.Float32frombits(uint32(a))) * float64(math.Float32frombits(uint32(b)))
				return uint64(math.Float32bits(float32(v)))
			}
		case ir.OpDiv:
			return func(a, b uint64) uint64 {
				y := float64(math.Float32frombits(uint32(b)))
				if y == 0 {
					return uint64(math.Float32bits(0))
				}
				v := float64(math.Float32frombits(uint32(a))) / y
				return uint64(math.Float32bits(float32(v)))
			}
		case ir.OpMin:
			return func(a, b uint64) uint64 {
				v := math.Min(float64(math.Float32frombits(uint32(a))), float64(math.Float32frombits(uint32(b))))
				return uint64(math.Float32bits(float32(v)))
			}
		case ir.OpMax:
			return func(a, b uint64) uint64 {
				v := math.Max(float64(math.Float32frombits(uint32(a))), float64(math.Float32frombits(uint32(b))))
				return uint64(math.Float32bits(float32(v)))
			}
		}
	}
	if dt.IsInteger() {
		mask := maskOf(dt)
		switch op {
		case ir.OpAdd:
			return func(a, b uint64) uint64 { return (a&mask + b&mask) & mask }
		case ir.OpSub:
			return func(a, b uint64) uint64 { return (a&mask - b&mask) & mask }
		case ir.OpMul:
			return func(a, b uint64) uint64 { return (a & mask) * (b & mask) & mask }
		}
		if dt.IsSigned() {
			sh := 64 - uint(dt.Size()*8)
			switch op {
			case ir.OpDiv:
				return func(a, b uint64) uint64 {
					y := int64(b<<sh) >> sh
					if y == 0 {
						return 0
					}
					return uint64((int64(a<<sh)>>sh)/y) & mask
				}
			case ir.OpMin:
				return func(a, b uint64) uint64 {
					x, y := int64(a<<sh)>>sh, int64(b<<sh)>>sh
					if y < x {
						x = y
					}
					return uint64(x) & mask
				}
			case ir.OpMax:
				return func(a, b uint64) uint64 {
					x, y := int64(a<<sh)>>sh, int64(b<<sh)>>sh
					if y > x {
						x = y
					}
					return uint64(x) & mask
				}
			}
		}
		switch op {
		case ir.OpDiv:
			return func(a, b uint64) uint64 {
				y := b & mask
				if y == 0 {
					return 0
				}
				return (a & mask) / y
			}
		case ir.OpMin:
			return func(a, b uint64) uint64 {
				x, y := a&mask, b&mask
				if y < x {
					return y
				}
				return x
			}
		case ir.OpMax:
			return func(a, b uint64) uint64 {
				x, y := a&mask, b&mask
				if y > x {
					return y
				}
				return x
			}
		}
	}
	// Bool arithmetic and invalid types: reference helper verbatim.
	return func(a, b uint64) uint64 { return arith(op, dt, a, b) }
}

func compareFn(op ir.Op, dt model.DType) func(a, b uint64) uint64 {
	switch dt {
	case model.Float64:
		switch op {
		case ir.OpEq:
			return func(a, b uint64) uint64 {
				return b2u(math.Float64frombits(a) == math.Float64frombits(b))
			}
		case ir.OpNe:
			return func(a, b uint64) uint64 {
				return b2u(math.Float64frombits(a) != math.Float64frombits(b))
			}
		case ir.OpLt:
			return func(a, b uint64) uint64 {
				return b2u(math.Float64frombits(a) < math.Float64frombits(b))
			}
		case ir.OpLe:
			return func(a, b uint64) uint64 {
				return b2u(math.Float64frombits(a) <= math.Float64frombits(b))
			}
		case ir.OpGt:
			return func(a, b uint64) uint64 {
				return b2u(math.Float64frombits(a) > math.Float64frombits(b))
			}
		case ir.OpGe:
			return func(a, b uint64) uint64 {
				return b2u(math.Float64frombits(a) >= math.Float64frombits(b))
			}
		}
	case model.Float32:
		switch op {
		case ir.OpEq:
			return func(a, b uint64) uint64 {
				return b2u(math.Float32frombits(uint32(a)) == math.Float32frombits(uint32(b)))
			}
		case ir.OpNe:
			return func(a, b uint64) uint64 {
				return b2u(math.Float32frombits(uint32(a)) != math.Float32frombits(uint32(b)))
			}
		case ir.OpLt:
			return func(a, b uint64) uint64 {
				return b2u(math.Float32frombits(uint32(a)) < math.Float32frombits(uint32(b)))
			}
		case ir.OpLe:
			return func(a, b uint64) uint64 {
				return b2u(math.Float32frombits(uint32(a)) <= math.Float32frombits(uint32(b)))
			}
		case ir.OpGt:
			return func(a, b uint64) uint64 {
				return b2u(math.Float32frombits(uint32(a)) > math.Float32frombits(uint32(b)))
			}
		case ir.OpGe:
			return func(a, b uint64) uint64 {
				return b2u(math.Float32frombits(uint32(a)) >= math.Float32frombits(uint32(b)))
			}
		}
	}
	if dt == model.Bool || dt.IsInteger() {
		mask := maskOf(dt)
		switch op {
		case ir.OpEq:
			return func(a, b uint64) uint64 { return b2u(a&mask == b&mask) }
		case ir.OpNe:
			return func(a, b uint64) uint64 { return b2u(a&mask != b&mask) }
		}
		if dt.IsSigned() {
			sh := 64 - uint(dt.Size()*8)
			switch op {
			case ir.OpLt:
				return func(a, b uint64) uint64 { return b2u(int64(a<<sh)>>sh < int64(b<<sh)>>sh) }
			case ir.OpLe:
				return func(a, b uint64) uint64 { return b2u(int64(a<<sh)>>sh <= int64(b<<sh)>>sh) }
			case ir.OpGt:
				return func(a, b uint64) uint64 { return b2u(int64(a<<sh)>>sh > int64(b<<sh)>>sh) }
			case ir.OpGe:
				return func(a, b uint64) uint64 { return b2u(int64(a<<sh)>>sh >= int64(b<<sh)>>sh) }
			}
		}
		switch op {
		case ir.OpLt:
			return func(a, b uint64) uint64 { return b2u(a&mask < b&mask) }
		case ir.OpLe:
			return func(a, b uint64) uint64 { return b2u(a&mask <= b&mask) }
		case ir.OpGt:
			return func(a, b uint64) uint64 { return b2u(a&mask > b&mask) }
		case ir.OpGe:
			return func(a, b uint64) uint64 { return b2u(a&mask >= b&mask) }
		}
	}
	// Invalid types: reference helper verbatim.
	return func(a, b uint64) uint64 { return compare(op, dt, a, b) }
}

func bitFn(op ir.Op, dt model.DType) func(a, b uint64) uint64 {
	if dt.IsInteger() {
		mask := maskOf(dt)
		switch op {
		case ir.OpBitAnd:
			return func(a, b uint64) uint64 { return a & b & mask }
		case ir.OpBitOr:
			return func(a, b uint64) uint64 { return (a | b) & mask }
		case ir.OpBitXor:
			return func(a, b uint64) uint64 { return (a ^ b) & mask }
		case ir.OpShl:
			return func(a, b uint64) uint64 { return (a & mask << (b & 31)) & mask }
		case ir.OpShr:
			if dt.IsSigned() {
				sh := 64 - uint(dt.Size()*8)
				return func(a, b uint64) uint64 {
					return uint64((int64(a<<sh)>>sh)>>(b&31)) & mask
				}
			}
			return func(a, b uint64) uint64 { return a & mask >> (b & 31) }
		}
	}
	// Bool and non-integer types: reference encode/decode path verbatim.
	switch op {
	case ir.OpBitAnd:
		return func(a, b uint64) uint64 {
			return model.EncodeInt(dt, model.DecodeInt(dt, a)&model.DecodeInt(dt, b))
		}
	case ir.OpBitOr:
		return func(a, b uint64) uint64 {
			return model.EncodeInt(dt, model.DecodeInt(dt, a)|model.DecodeInt(dt, b))
		}
	case ir.OpBitXor:
		return func(a, b uint64) uint64 {
			return model.EncodeInt(dt, model.DecodeInt(dt, a)^model.DecodeInt(dt, b))
		}
	case ir.OpShl:
		return func(a, b uint64) uint64 {
			return model.EncodeInt(dt, model.DecodeInt(dt, a)<<(uint(model.DecodeInt(dt, b))&31))
		}
	case ir.OpShr:
		return func(a, b uint64) uint64 {
			return model.EncodeInt(dt, model.DecodeInt(dt, a)>>(uint(model.DecodeInt(dt, b))&31))
		}
	}
	return func(a, b uint64) uint64 { return 0 }
}

func b2u(v bool) uint64 {
	if v {
		return 1
	}
	return 0
}

// unFn builds the value function of a unary op (neg, abs and the float math
// functions).
func unFn(op ir.Op, dt model.DType) func(uint64) uint64 {
	switch op {
	case ir.OpNeg:
		switch dt {
		case model.Float64:
			return func(a uint64) uint64 { return math.Float64bits(-math.Float64frombits(a)) }
		case model.Float32:
			return func(a uint64) uint64 {
				return uint64(math.Float32bits(float32(-float64(math.Float32frombits(uint32(a))))))
			}
		}
		if dt == model.Bool || dt.IsInteger() {
			// Two's-complement negation is determined by the low payload
			// bits; for Bool, -(a&1) renormalizes to a&1, matching
			// EncodeInt's truthiness canonicalization.
			mask := maskOf(dt)
			return func(a uint64) uint64 { return (0 - a&mask) & mask }
		}
	case ir.OpAbs:
		switch dt {
		case model.Float64:
			return func(a uint64) uint64 { return math.Float64bits(math.Abs(math.Float64frombits(a))) }
		case model.Float32:
			return func(a uint64) uint64 {
				return uint64(math.Float32bits(float32(math.Abs(float64(math.Float32frombits(uint32(a)))))))
			}
		}
		if dt.IsSigned() {
			sh := 64 - uint(dt.Size()*8)
			mask := maskOf(dt)
			return func(a uint64) uint64 {
				v := int64(a<<sh) >> sh
				if v < 0 {
					v = -v
				}
				return uint64(v) & mask
			}
		}
		if dt == model.Bool || dt.IsInteger() {
			mask := maskOf(dt)
			return func(a uint64) uint64 { return a & mask }
		}
	}
	if dt == model.Float64 {
		switch op {
		case ir.OpSqrt:
			return func(a uint64) uint64 {
				x := math.Float64frombits(a)
				if x < 0 {
					return 0
				}
				return math.Float64bits(math.Sqrt(x))
			}
		case ir.OpExp:
			return func(a uint64) uint64 { return math.Float64bits(math.Exp(math.Float64frombits(a))) }
		case ir.OpLog:
			return func(a uint64) uint64 {
				x := math.Float64frombits(a)
				if x <= 0 {
					return 0
				}
				return math.Float64bits(math.Log(x))
			}
		case ir.OpSin:
			return func(a uint64) uint64 { return math.Float64bits(math.Sin(math.Float64frombits(a))) }
		case ir.OpCos:
			return func(a uint64) uint64 { return math.Float64bits(math.Cos(math.Float64frombits(a))) }
		case ir.OpTan:
			return func(a uint64) uint64 { return math.Float64bits(math.Tan(math.Float64frombits(a))) }
		case ir.OpFloor:
			return func(a uint64) uint64 { return math.Float64bits(math.Floor(math.Float64frombits(a))) }
		case ir.OpCeil:
			return func(a uint64) uint64 { return math.Float64bits(math.Ceil(math.Float64frombits(a))) }
		case ir.OpRound:
			return func(a uint64) uint64 { return math.Float64bits(math.Round(math.Float64frombits(a))) }
		case ir.OpTrunc:
			return func(a uint64) uint64 { return math.Float64bits(math.Trunc(math.Float64frombits(a))) }
		}
	}
	// Float32 math, Neg/Abs on invalid types, and math on non-float types
	// take the reference helper: decode through float64, compute, re-encode
	// with the clamping Encode.
	return func(a uint64) uint64 { return unaryMath(op, dt, a) }
}
