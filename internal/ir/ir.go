// Package ir defines the typed register program the code generator lowers a
// model into. The program is the in-process equivalent of the C code the
// paper's tool synthesizes: a flat step function over a register file, with
// model state in a separate persistent vector and coverage probes
// (CoverageStatistics() calls) embedded at every instrumented branch.
package ir

import (
	"fmt"

	"cftcg/internal/model"
)

// Op is an instruction opcode.
type Op uint8

// Instruction set. Arithmetic and comparison instructions operate in the
// instruction's DT; Cast converts from DT2 to DT. Booleans are stored
// normalized (0 or 1).
const (
	OpNop Op = iota

	OpConst // dst = Imm (raw bits of DT)
	OpMov   // dst = a

	OpAdd // dst = a + b
	OpSub // dst = a - b
	OpMul // dst = a * b
	OpDiv // dst = a / b (x/0 = 0 — both engines define division totally)
	OpNeg // dst = -a
	OpAbs // dst = |a|
	OpMin // dst = min(a, b)
	OpMax // dst = max(a, b)

	OpEq // dst(bool) = a == b
	OpNe // dst(bool) = a != b
	OpLt // dst(bool) = a < b
	OpLe // dst(bool) = a <= b
	OpGt // dst(bool) = a > b
	OpGe // dst(bool) = a >= b

	OpAnd // dst(bool) = a && b (operands already normalized)
	OpOr  // dst(bool) = a || b
	OpXor // dst(bool) = a != b (as bools)
	OpNot // dst(bool) = !a

	OpBitAnd // dst = a & b (integer DT)
	OpBitOr  // dst = a | b
	OpBitXor // dst = a ^ b
	OpShl    // dst = a << (b & 31)
	OpShr    // dst = a >> (b & 31)

	OpTruth  // dst(bool) = a != 0, a has type DT2
	OpSelect // dst = a != 0 ? b : c
	OpCast   // dst = DT(a), a has type DT2

	OpSqrt  // dst = sqrt(a) (float DT)
	OpExp   // dst = exp(a)
	OpLog   // dst = log(a) (log(x<=0) = 0)
	OpSin   // dst = sin(a)
	OpCos   // dst = cos(a)
	OpTan   // dst = tan(a)
	OpFloor // dst = floor(a)
	OpCeil  // dst = ceil(a)
	OpRound // dst = round-half-away(a)
	OpTrunc // dst = trunc(a)

	OpLoadIn     // dst = input[Imm]
	OpStoreOut   // output[Imm] = a
	OpLoadState  // dst = state[Imm]
	OpStoreState // state[Imm] = a

	OpJmp      // pc = Imm
	OpJmpIf    // if a != 0: pc = Imm
	OpJmpIfNot // if a == 0: pc = Imm

	OpProbe     // record decision outcome: a = decision ID, b = outcome
	OpCondProbe // record condition value: a = condition ID, b = bool register

	OpHalt // end of function
)

var opNames = [...]string{
	OpNop: "nop", OpConst: "const", OpMov: "mov",
	OpAdd: "add", OpSub: "sub", OpMul: "mul", OpDiv: "div",
	OpNeg: "neg", OpAbs: "abs", OpMin: "min", OpMax: "max",
	OpEq: "eq", OpNe: "ne", OpLt: "lt", OpLe: "le", OpGt: "gt", OpGe: "ge",
	OpAnd: "and", OpOr: "or", OpXor: "xor", OpNot: "not",
	OpBitAnd: "band", OpBitOr: "bor", OpBitXor: "bxor", OpShl: "shl", OpShr: "shr",
	OpTruth: "truth", OpSelect: "select", OpCast: "cast",
	OpSqrt: "sqrt", OpExp: "exp", OpLog: "log", OpSin: "sin", OpCos: "cos", OpTan: "tan",
	OpFloor: "floor", OpCeil: "ceil", OpRound: "round", OpTrunc: "trunc",
	OpLoadIn: "loadin", OpStoreOut: "storeout",
	OpLoadState: "loadst", OpStoreState: "storest",
	OpJmp: "jmp", OpJmpIf: "jmpif", OpJmpIfNot: "jmpifn",
	OpProbe: "probe", OpCondProbe: "condprobe",
	OpHalt: "halt",
}

func (o Op) String() string {
	if int(o) < len(opNames) && opNames[o] != "" {
		return opNames[o]
	}
	return fmt.Sprintf("op(%d)", uint8(o))
}

// Instr is one instruction. Dst/A/B/C are register indexes (or IDs for
// probes); Imm carries constants, slot indexes and jump targets.
type Instr struct {
	Op  Op
	DT  model.DType // operation type
	DT2 model.DType // source type (OpCast, OpTruth)
	Dst int32
	A   int32
	B   int32
	C   int32
	Imm uint64
}

// LoopSite marks the backward jump of a lowered loop (a script `while`, a
// chart-internal cycle, …). The VM reports the nearest site when an
// execution exhausts its instruction fuel, so hang findings name the model
// construct that spun rather than a bare program counter.
type LoopSite struct {
	Func  string // "init" or "step"
	PC    int    // address of the backward jump instruction
	Label string // source construct, e.g. "Isqrt/isqrt while"
}

// Program is a complete lowered model: an init function that establishes
// initial state and a step function executed once per model iteration.
type Program struct {
	Name string

	Init []Instr
	Step []Instr

	// LoopSites lists every backward-jump loop header, for hang triage.
	LoopSites []LoopSite

	NumRegs  int
	NumState int

	// In is the tuple layout: one field per root inport, in index order.
	// This is exactly the information the paper's fuzz driver generator
	// extracts from the model parser (§3.1.1).
	In []model.Field
	// Out lists the root outports.
	Out []model.Field

	// StateNames documents state slots for debugging.
	StateNames []string
	// StateTypes records each state slot's data type (used by the
	// constraint solver to decode the concrete initial state).
	StateTypes []model.DType
}

// LoopSiteFor returns the label of the loop site in function fn whose
// backward jump is nearest at or after pc — a loop body precedes its back
// edge, so an execution stuck at pc most plausibly belongs to the first
// back edge that follows it. Falls back to the last site before pc; empty
// when the function has no recorded loops.
func (p *Program) LoopSiteFor(fn string, pc int) string {
	after, before := "", ""
	afterPC, beforePC := -1, -1
	for _, s := range p.LoopSites {
		if s.Func != fn {
			continue
		}
		if s.PC >= pc {
			if afterPC < 0 || s.PC < afterPC {
				after, afterPC = s.Label, s.PC
			}
		} else if s.PC > beforePC {
			before, beforePC = s.Label, s.PC
		}
	}
	if after != "" {
		return after
	}
	return before
}

// TupleSize returns the number of input bytes consumed per model iteration.
func (p *Program) TupleSize() int {
	n := 0
	for _, f := range p.In {
		n += f.Type.Size()
	}
	return n
}

// Layout returns the input tuple layout: the fields of In and TupleSize.
func (p *Program) Layout() model.Layout {
	return model.Layout{Fields: p.In, TupleSize: p.TupleSize()}
}

// Validate checks structural invariants: register indexes in range, jump
// targets in range, state/input/output slots in range. The VM relies on
// these so it can skip bounds checks in its hot loop.
func (p *Program) Validate() error {
	check := func(name string, instrs []Instr) error {
		n := int32(p.NumRegs)
		for pc, in := range instrs {
			bad := func(what string) error {
				return fmt.Errorf("ir: %s: %s[%d] %s: %s out of range", p.Name, name, pc, in.Op, what)
			}
			switch in.Op {
			case OpJmp, OpJmpIf, OpJmpIfNot:
				if in.Imm > uint64(len(instrs)) {
					return bad("jump target")
				}
				if in.Op != OpJmp && (in.A < 0 || in.A >= n) {
					return bad("cond register")
				}
			case OpLoadIn:
				if int(in.Imm) >= len(p.In) {
					return bad("input slot")
				}
				if in.Dst < 0 || in.Dst >= n {
					return bad("dst register")
				}
			case OpStoreOut:
				if int(in.Imm) >= len(p.Out) {
					return bad("output slot")
				}
				if in.A < 0 || in.A >= n {
					return bad("src register")
				}
			case OpLoadState:
				if int(in.Imm) >= p.NumState {
					return bad("state slot")
				}
				if in.Dst < 0 || in.Dst >= n {
					return bad("dst register")
				}
			case OpStoreState:
				if int(in.Imm) >= p.NumState {
					return bad("state slot")
				}
				if in.A < 0 || in.A >= n {
					return bad("src register")
				}
			case OpProbe, OpCondProbe, OpHalt, OpNop:
				if in.Op == OpCondProbe && (in.B < 0 || in.B >= n) {
					return bad("cond register")
				}
			case OpConst:
				if in.Dst < 0 || in.Dst >= n {
					return bad("dst register")
				}
			default:
				if in.Dst < 0 || in.Dst >= n {
					return bad("dst register")
				}
				if in.A < 0 || in.A >= n {
					return bad("a register")
				}
				switch in.Op {
				case OpMov, OpNeg, OpAbs, OpNot, OpTruth, OpCast,
					OpSqrt, OpExp, OpLog, OpSin, OpCos, OpTan,
					OpFloor, OpCeil, OpRound, OpTrunc:
					// unary: B/C unused
				case OpSelect:
					if in.B < 0 || in.B >= n || in.C < 0 || in.C >= n {
						return bad("b/c register")
					}
				default:
					if in.B < 0 || in.B >= n {
						return bad("b register")
					}
				}
			}
		}
		return nil
	}
	if err := check("init", p.Init); err != nil {
		return err
	}
	return check("step", p.Step)
}
