// Package vm executes lowered IR programs. It is the in-process stand-in for
// the natively compiled fuzz code of the paper: a flat register machine with
// no interpretation of the model graph and no boxing. Campaigns run the
// direct-threaded backend (Threaded), whose pre-decoded micro-op stream is
// the execution substrate that gives CFTCG its four-orders-of-magnitude
// speed advantage over engine-based simulation.
//
// The reference semantics of every instruction is written once, in step:
// the switch Machine runs nothing else, and step takes every register-pure
// opcode's value from EvalPure, the function the equivalent-mutant prover
// folds constants with. The lockstep tests hold the threaded backend to the
// Machine; the threaded backend runs every instruction that has no dense
// micro-op through step (it has dense kinds only for the shapes the
// benchmark models and their mutants compile to; mop.go lists the rest), and
// replays a fuel-exhausted block prefix through it too.
package vm

import (
	"fmt"
	"math"

	"cftcg/internal/coverage"
	"cftcg/internal/ir"
	"cftcg/internal/model"
)

// DefaultFuel is the per-call instruction budget of a machine. Legitimate
// step functions stay far below it (the largest benchmark model executes a
// few thousand instructions per iteration, and script while-loops are capped
// at mlfunc.MaxWhileIter); a fuzzed input that burns a million instructions
// in one step is wedged, and the campaign wants a Hang finding instead of a
// dead process.
const DefaultFuel = 1 << 20

// HangError reports that one init or step call exhausted its instruction
// fuel. PC is where execution was aborted and Site names the nearest lowered
// loop construct, so the finding points at the model element that spun.
type HangError struct {
	Func string // "init" or "step"
	PC   int
	Fuel int64
	Site string
}

func (e *HangError) Error() string {
	msg := fmt.Sprintf("vm: %s exhausted %d-instruction fuel at pc %d", e.Func, e.Fuel, e.PC)
	if e.Site != "" {
		msg += " (loop " + e.Site + ")"
	}
	return msg
}

// execState is the mutable register/state/output file a program executes
// against; each Machine and each Threaded machine owns one.
type execState struct {
	regs  []uint64
	state []uint64
	out   []uint64
	in    []uint64
	rec   *coverage.Recorder
}

func newExecState(p *ir.Program, rec *coverage.Recorder) execState {
	return execState{
		regs:  make([]uint64, p.NumRegs),
		state: make([]uint64, p.NumState),
		out:   make([]uint64, len(p.Out)),
		rec:   rec,
	}
}

func (s *execState) reg(r int32) uint64 { return s.regs[r] }

// step executes code[pc] and returns the next pc; a pc at or past len(code)
// ends the function. Loads, stores, jumps, probes and halt act on s here;
// every other opcode is register-pure and takes its value from EvalPure.
// Unknown opcodes and nop execute as no-ops.
func (s *execState) step(code []ir.Instr, pc int) int {
	ins := &code[pc]
	switch ins.Op {
	case ir.OpLoadIn:
		s.regs[ins.Dst] = s.in[ins.Imm]
	case ir.OpStoreOut:
		s.out[ins.Imm] = s.regs[ins.A]
	case ir.OpLoadState:
		s.regs[ins.Dst] = s.state[ins.Imm]
	case ir.OpStoreState:
		s.state[ins.Imm] = s.regs[ins.A]

	case ir.OpJmp:
		return int(ins.Imm)
	case ir.OpJmpIf:
		if s.regs[ins.A] != 0 {
			return int(ins.Imm)
		}
	case ir.OpJmpIfNot:
		if s.regs[ins.A] == 0 {
			return int(ins.Imm)
		}
	case ir.OpHalt:
		return len(code)

	case ir.OpProbe:
		if s.rec != nil {
			s.rec.Outcome(int(ins.A), int(ins.B))
		}
	case ir.OpCondProbe:
		if s.rec != nil {
			s.rec.Cond(int(ins.A), s.regs[ins.B] != 0)
		}

	default:
		if v, ok := EvalPure(ins, s.reg); ok {
			s.regs[ins.Dst] = v
		}
	}
	return pc + 1
}

// Machine is the reference interpreter: it executes one program instance an
// instruction at a time through step, charging one unit of fuel per
// instruction before executing it. It owns the register file, the
// persistent state vector, and the output buffer; the coverage recorder is
// shared with the fuzzing loop.
type Machine struct {
	prog *ir.Program
	s    execState
	fuel int64 // per-call instruction budget
	used int64 // instructions consumed by the last call
}

// New creates a machine for the program. rec may be nil to run without
// coverage collection (pure execution benchmarks).
func New(p *ir.Program, rec *coverage.Recorder) *Machine {
	return &Machine{prog: p, s: newExecState(p, rec), fuel: DefaultFuel}
}

// SetFuel sets the per-call instruction budget; n <= 0 restores DefaultFuel.
func (m *Machine) SetFuel(n int64) {
	if n <= 0 {
		n = DefaultFuel
	}
	m.fuel = n
}

// Fuel returns the per-call instruction budget.
func (m *Machine) Fuel() int64 { return m.fuel }

// LastFuelUsed returns how many instructions the most recent Init or Step
// call executed — the fuzzing loop uses it to spot near-hang inputs and
// re-check its wall-clock budget early.
func (m *Machine) LastFuelUsed() int64 { return m.used }

// Program returns the machine's program.
func (m *Machine) Program() *ir.Program { return m.prog }

// Out returns the output values of the last step, one raw value per outport
// field. The slice is reused across steps.
func (m *Machine) Out() []uint64 { return m.s.out }

// State exposes the persistent state vector (tests inspect it).
func (m *Machine) State() []uint64 { return m.s.state }

// Init resets the machine and runs the program's init function — the
// "model initialization code" the fuzz driver calls for every test input.
// It returns a *HangError when the init function exhausts its fuel.
func (m *Machine) Init() error {
	clear(m.s.state)
	clear(m.s.out)
	return m.exec("init", m.prog.Init)
}

// Step runs one model iteration with the given input tuple (one raw value
// per inport field). It returns a *HangError when the step exhausts its
// instruction fuel (a runaway loop on this input).
func (m *Machine) Step(in []uint64) error {
	m.s.in = in
	return m.exec("step", m.prog.Step)
}

func (m *Machine) exec(fn string, code []ir.Instr) error {
	fuel := m.fuel
	for pc := 0; pc < len(code); pc = m.s.step(code, pc) {
		if fuel--; fuel < 0 {
			m.used = m.fuel
			return &HangError{Func: fn, PC: pc, Fuel: m.fuel, Site: m.prog.LoopSiteFor(fn, pc)}
		}
	}
	m.used = m.fuel - fuel
	return nil
}

// arith computes a binary arithmetic op in type dt over raw values.
func arith(op ir.Op, dt model.DType, a, b uint64) uint64 {
	if dt.IsFloat() {
		x := model.DecodeFloat(dt, a)
		y := model.DecodeFloat(dt, b)
		var v float64
		switch op {
		case ir.OpAdd:
			v = x + y
		case ir.OpSub:
			v = x - y
		case ir.OpMul:
			v = x * y
		case ir.OpDiv:
			if y == 0 {
				v = 0 // division is total: x/0 = 0 in both engines
			} else {
				v = x / y
			}
		case ir.OpMin:
			v = math.Min(x, y)
		case ir.OpMax:
			v = math.Max(x, y)
		}
		return model.EncodeFloat(dt, v)
	}
	x := model.DecodeInt(dt, a)
	y := model.DecodeInt(dt, b)
	var v int64
	switch op {
	case ir.OpAdd:
		v = x + y
	case ir.OpSub:
		v = x - y
	case ir.OpMul:
		v = x * y
	case ir.OpDiv:
		if y == 0 {
			v = 0
		} else {
			v = x / y
		}
	case ir.OpMin:
		v = x
		if y < x {
			v = y
		}
	case ir.OpMax:
		v = x
		if y > x {
			v = y
		}
	}
	return model.EncodeInt(dt, v)
}

// compare evaluates a relational op in type dt, returning 0 or 1.
func compare(op ir.Op, dt model.DType, a, b uint64) uint64 {
	var res bool
	if dt.IsFloat() {
		x := model.DecodeFloat(dt, a)
		y := model.DecodeFloat(dt, b)
		switch op {
		case ir.OpEq:
			res = x == y
		case ir.OpNe:
			res = x != y
		case ir.OpLt:
			res = x < y
		case ir.OpLe:
			res = x <= y
		case ir.OpGt:
			res = x > y
		case ir.OpGe:
			res = x >= y
		}
	} else {
		x := model.DecodeInt(dt, a)
		y := model.DecodeInt(dt, b)
		switch op {
		case ir.OpEq:
			res = x == y
		case ir.OpNe:
			res = x != y
		case ir.OpLt:
			res = x < y
		case ir.OpLe:
			res = x <= y
		case ir.OpGt:
			res = x > y
		case ir.OpGe:
			res = x >= y
		}
	}
	if res {
		return 1
	}
	return 0
}

// unaryMath evaluates the floating-point unary functions. Non-float DTs
// round-trip through float64, matching the C library calls the generated
// code would make.
func unaryMath(op ir.Op, dt model.DType, a uint64) uint64 {
	x := model.Decode(dt, a)
	var v float64
	switch op {
	case ir.OpSqrt:
		if x < 0 {
			v = 0
		} else {
			v = math.Sqrt(x)
		}
	case ir.OpExp:
		v = math.Exp(x)
	case ir.OpLog:
		if x <= 0 {
			v = 0
		} else {
			v = math.Log(x)
		}
	case ir.OpSin:
		v = math.Sin(x)
	case ir.OpCos:
		v = math.Cos(x)
	case ir.OpTan:
		v = math.Tan(x)
	case ir.OpFloor:
		v = math.Floor(x)
	case ir.OpCeil:
		v = math.Ceil(x)
	case ir.OpRound:
		v = math.Round(x)
	case ir.OpTrunc:
		v = math.Trunc(x)
	}
	return model.Encode(dt, v)
}
