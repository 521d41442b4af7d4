package ir

import (
	"reflect"
	"strings"
	"testing"

	"cftcg/internal/model"
)

func minimalProgram() *Program {
	var regs int32
	a := NewAsm(&regs)
	x := a.LoadIn(model.Int32, 0)
	y := a.ConstVal(model.Int32, 5)
	sum := a.Bin(OpAdd, model.Int32, x, y)
	a.StoreOut(0, sum)
	a.Halt()
	init := NewAsm(&regs)
	init.Halt()
	return &Program{
		Name:    "min",
		Init:    init.Instrs,
		Step:    a.Instrs,
		NumRegs: int(regs),
		In:      []model.Field{{Name: "x", Type: model.Int32}},
		Out:     []model.Field{{Name: "y", Type: model.Int32}},
	}
}

func TestValidateAcceptsMinimal(t *testing.T) {
	if err := minimalProgram().Validate(); err != nil {
		t.Fatalf("minimal program rejected: %v", err)
	}
}

func TestValidateCatchesBadPrograms(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(*Program)
	}{
		{"dst out of range", func(p *Program) { p.Step[0].Dst = 99 }},
		{"input slot", func(p *Program) { p.Step[0].Imm = 5 }},
		{"output slot", func(p *Program) {
			for i := range p.Step {
				if p.Step[i].Op == OpStoreOut {
					p.Step[i].Imm = 3
				}
			}
		}},
		{"jump target", func(p *Program) {
			p.Step = append([]Instr{{Op: OpJmp, Imm: 1000}}, p.Step...)
		}},
		{"state slot", func(p *Program) {
			p.Step = append(p.Step, Instr{Op: OpLoadState, Imm: 2})
		}},
		{"select regs", func(p *Program) {
			p.Step = append(p.Step, Instr{Op: OpSelect, Dst: 0, A: 0, B: 50, C: 0})
		}},
		{"condprobe reg", func(p *Program) {
			p.Step = append(p.Step, Instr{Op: OpCondProbe, A: 0, B: 77})
		}},
	}
	for _, c := range cases {
		p := minimalProgram()
		c.mutate(p)
		if err := p.Validate(); err == nil {
			t.Errorf("%s: bad program accepted", c.name)
		}
	}
}

func TestAsmPatching(t *testing.T) {
	var regs int32
	a := NewAsm(&regs)
	c := a.Const(model.Bool, 1)
	j := a.JmpIfNot(c)
	a.ConstVal(model.Int32, 1)
	j2 := a.Jmp()
	a.Patch(j)
	a.ConstVal(model.Int32, 2)
	a.Patch(j2)
	a.Halt()

	if a.Instrs[j].Imm != 4 {
		t.Errorf("JmpIfNot target: %d, want 4", a.Instrs[j].Imm)
	}
	if a.Instrs[j2].Imm != 5 {
		t.Errorf("Jmp target: %d, want 5", a.Instrs[j2].Imm)
	}
	a.PatchTo(j2, 0)
	if a.Instrs[j2].Imm != 0 {
		t.Error("PatchTo failed")
	}
}

func TestAsmSharedRegisters(t *testing.T) {
	var regs int32
	a1 := NewAsm(&regs)
	a2 := NewAsm(&regs)
	r1 := a1.Reg()
	r2 := a2.Reg()
	r3 := a1.Reg()
	if r1 != 0 || r2 != 1 || r3 != 2 {
		t.Errorf("shared counter broken: %d %d %d", r1, r2, r3)
	}
}

func TestCastIdentityElided(t *testing.T) {
	var regs int32
	a := NewAsm(&regs)
	r := a.Reg()
	if got := a.Cast(model.Int32, model.Int32, r); got != r {
		t.Error("identity cast should not emit")
	}
	if len(a.Instrs) != 0 {
		t.Error("identity cast emitted an instruction")
	}
	if got := a.Truth(model.Bool, r); got != r {
		t.Error("bool truth should pass through")
	}
}

// TestGenProgramValidAndDeterministic: every generated program passes
// Validate, and a seed always regenerates the same program and decisions,
// which the lockstep rig's corpus entries rely on.
func TestGenProgramValidAndDeterministic(t *testing.T) {
	for seed := int64(0); seed < 300; seed++ {
		p, decs := GenProgram(seed)
		if err := p.Validate(); err != nil {
			t.Fatalf("seed %d: generated program invalid: %v", seed, err)
		}
		p2, decs2 := GenProgram(seed)
		if !reflect.DeepEqual(p, p2) || !reflect.DeepEqual(decs, decs2) {
			t.Fatalf("seed %d: regenerated program differs", seed)
		}
	}
}

func TestTupleSize(t *testing.T) {
	p := &Program{In: []model.Field{
		{Type: model.Int8}, {Type: model.Float64}, {Type: model.UInt16},
	}}
	if got := p.TupleSize(); got != 11 {
		t.Errorf("tuple size %d, want 11", got)
	}
}

func TestOpStrings(t *testing.T) {
	if OpAdd.String() != "add" || OpCondProbe.String() != "condprobe" {
		t.Error("op names")
	}
	if !strings.Contains(Op(200).String(), "200") {
		t.Error("unknown op formatting")
	}
}
