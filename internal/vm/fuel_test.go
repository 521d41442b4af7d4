package vm

import (
	"errors"
	"strings"
	"sync"
	"testing"

	"cftcg/internal/ir"
	"cftcg/internal/model"
)

// loopProgram builds a step function that spins forever on a backward jump:
// the canonical hang the execution fuel exists to catch.
func loopProgram() *ir.Program {
	var regs int32
	a := ir.NewAsm(&regs)
	x := a.LoadIn(model.Int32, 0)
	a.StoreOut(0, x)
	back := a.Emit(ir.Instr{Op: ir.OpJmp, Imm: 0}) // jump back to the load
	a.NoteLoop(back, "Spin/forever while")
	a.Halt()
	init := ir.NewAsm(&regs)
	init.Halt()
	p := &ir.Program{
		Name: "Spin", Init: init.Instrs, Step: a.Instrs, NumRegs: int(regs),
		In:  []model.Field{{Name: "x", Type: model.Int32}},
		Out: []model.Field{{Name: "o", Type: model.Int32}},
	}
	for _, s := range a.Loops {
		p.LoopSites = append(p.LoopSites, ir.LoopSite{Func: "step", PC: s.PC, Label: s.Label})
	}
	return p
}

func TestFuelExhaustionReturnsHangError(t *testing.T) {
	p := loopProgram()
	forEachBackend(t, func(t *testing.T, mk makeBackend) {
		m := mk(p, nil)
		m.SetFuel(1000)
		if err := m.Init(); err != nil {
			t.Fatalf("init must not hang: %v", err)
		}
		err := m.Step([]uint64{1})
		if err == nil {
			t.Fatal("infinite loop must exhaust fuel")
		}
		var hang *HangError
		if !errors.As(err, &hang) {
			t.Fatalf("want *HangError, got %T: %v", err, err)
		}
		if hang.Func != "step" || hang.Fuel != 1000 {
			t.Errorf("hang = %+v, want step with fuel 1000", hang)
		}
		if hang.Site != "Spin/forever while" {
			t.Errorf("site = %q, want the noted loop label", hang.Site)
		}
		if !strings.Contains(hang.Error(), "Spin/forever while") {
			t.Errorf("message should name the loop: %q", hang.Error())
		}
		if got := m.LastFuelUsed(); got != 1000 {
			t.Errorf("LastFuelUsed = %d, want the whole budget", got)
		}
	})
}

func TestFuelRechargesPerCall(t *testing.T) {
	// A terminating program must run forever on a per-call budget barely
	// above its cost: fuel is per call, not cumulative.
	p := binProgram(ir.OpAdd, model.Int32)
	forEachBackend(t, func(t *testing.T, mk makeBackend) {
		m := mk(p, nil)
		m.SetFuel(16)
		m.Init()
		for i := 0; i < 10000; i++ {
			if err := m.Step([]uint64{1, 2}); err != nil {
				t.Fatalf("step %d: %v", i, err)
			}
		}
		if used := m.LastFuelUsed(); used <= 0 || used > 16 {
			t.Errorf("LastFuelUsed = %d, want within (0, 16]", used)
		}
	})
}

func TestSetFuelDefaults(t *testing.T) {
	p := binProgram(ir.OpAdd, model.Int32)
	forEachBackend(t, func(t *testing.T, mk makeBackend) {
		m := mk(p, nil)
		if m.Fuel() != DefaultFuel {
			t.Errorf("new machine fuel = %d, want DefaultFuel", m.Fuel())
		}
		m.SetFuel(-5)
		if m.Fuel() != DefaultFuel {
			t.Errorf("SetFuel(-5) = %d, want DefaultFuel restored", m.Fuel())
		}
		m.SetFuel(42)
		if m.Fuel() != 42 {
			t.Errorf("SetFuel(42) = %d", m.Fuel())
		}
	})
}

func TestLoopSiteForPrefersNearestBackEdge(t *testing.T) {
	p := &ir.Program{LoopSites: []ir.LoopSite{
		{Func: "step", PC: 10, Label: "outer"},
		{Func: "step", PC: 6, Label: "inner"},
		{Func: "init", PC: 3, Label: "init-loop"},
	}}
	// A pc inside the inner loop body reports the inner loop: its back edge
	// is the nearest one at-or-after the pc.
	if got := p.LoopSiteFor("step", 5); got != "inner" {
		t.Errorf("pc 5 = %q, want inner", got)
	}
	// Past the inner back edge, only the outer loop can still be spinning.
	if got := p.LoopSiteFor("step", 8); got != "outer" {
		t.Errorf("pc 8 = %q, want outer", got)
	}
	// Past every back edge: fall back to the last one before the pc.
	if got := p.LoopSiteFor("step", 12); got != "outer" {
		t.Errorf("pc 12 = %q, want outer fallback", got)
	}
	if got := p.LoopSiteFor("init", 1); got != "init-loop" {
		t.Errorf("init pc 1 = %q", got)
	}
	if got := p.LoopSiteFor("other", 1); got != "" {
		t.Errorf("unknown fn = %q, want empty", got)
	}
}

// fusedPairProgram emits a step whose whole body is superinstruction food:
// const+cmp+branch guarding a state accumulate, probe+branch diamonds, and a
// mov+jmp join — every shape the fuser rewrites.
func fusedPairProgram() *ir.Program {
	var regs int32
	a := ir.NewAsm(&regs)
	x := a.LoadIn(model.Int32, 0)
	s := a.LoadState(model.Int32, 0)
	acc := a.Bin(ir.OpAdd, model.Int32, s, x)
	a.StoreState(0, acc)
	lim := a.ConstVal(model.Int32, 100)
	cond := a.Bin(ir.OpLt, model.Int32, acc, lim)
	j := a.JmpIfNot(cond)
	a.StoreOut(0, acc)
	j2 := a.Jmp()
	a.Patch(j)
	a.StoreOut(0, lim)
	a.Patch(j2)
	a.Halt()
	init := ir.NewAsm(&regs)
	z := init.ConstVal(model.Int32, 0)
	init.StoreState(0, z)
	init.Halt()
	return &ir.Program{
		Name: "fuelpair", Init: init.Instrs, Step: a.Instrs,
		NumRegs: int(regs), NumState: 1,
		In:  []model.Field{{Name: "x", Type: model.Int32}},
		Out: []model.Field{{Name: "o", Type: model.Int32}},
	}
}

// TestFusedFuelParity pins the superinstruction fuel contract: a fused span
// consumes exactly as much fuel as its unfused instructions, LastFuelUsed is
// identical on every backend, and a budget that lands inside a fused span
// aborts at the precise sub-instruction pc the reference interpreter reports.
func TestFusedFuelParity(t *testing.T) {
	p := fusedPairProgram()
	if CompileThreaded(p).Fused() == 0 {
		t.Fatal("program must contain fused spans for this test to mean anything")
	}

	ref := New(p, nil)
	if err := ref.Init(); err != nil {
		t.Fatal(err)
	}
	if err := ref.Step([]uint64{model.EncodeInt(model.Int32, 7)}); err != nil {
		t.Fatal(err)
	}
	refUsed := ref.LastFuelUsed()

	forEachBackend(t, func(t *testing.T, mk makeBackend) {
		m := mk(p, nil)
		if err := m.Init(); err != nil {
			t.Fatal(err)
		}
		if err := m.Step([]uint64{model.EncodeInt(model.Int32, 7)}); err != nil {
			t.Fatal(err)
		}
		if got := m.LastFuelUsed(); got != refUsed {
			t.Errorf("LastFuelUsed = %d, reference charges %d", got, refUsed)
		}
	})

	// Sweep every budget from 1 to past the full cost: hang pc, hang fuel
	// and partial effects must match the reference at each one.
	in := []uint64{model.EncodeInt(model.Int32, 7)}
	for budget := int64(1); budget <= refUsed+2; budget++ {
		refM := New(p, nil)
		refM.SetFuel(budget)
		refInitErr := refM.Init()
		var refStepErr error
		if refInitErr == nil {
			refStepErr = refM.Step(in)
		}
		forEachBackend(t, func(t *testing.T, mk makeBackend) {
			m := mk(p, nil)
			m.SetFuel(budget)
			gotInitErr := m.Init()
			if msg := sameErr(refInitErr, gotInitErr); msg != "" {
				t.Fatalf("budget %d init: %s", budget, msg)
			}
			if refInitErr != nil {
				return
			}
			gotStepErr := m.Step(in)
			if msg := sameErr(refStepErr, gotStepErr); msg != "" {
				t.Fatalf("budget %d step: %s", budget, msg)
			}
			if m.LastFuelUsed() != refM.LastFuelUsed() {
				t.Fatalf("budget %d: LastFuelUsed %d vs %d", budget, m.LastFuelUsed(), refM.LastFuelUsed())
			}
			if msg := diffWords("out", refM.Out(), m.Out()); msg != "" {
				t.Fatalf("budget %d: %s", budget, msg)
			}
			if msg := diffWords("state", refM.State(), m.State()); msg != "" {
				t.Fatalf("budget %d: %s", budget, msg)
			}
		})
	}
}

// TestFusionDoesNotChangeInstructionCharge compiles with and without fusion
// opportunities blocked (a jump target between every pair kills fusion) and
// checks the charge is the instruction count either way.
func TestFusedSpanChargesPerInstruction(t *testing.T) {
	p := fusedPairProgram()
	m := New(p, nil)
	if err := m.Init(); err != nil {
		t.Fatal(err)
	}
	if err := m.Step([]uint64{model.EncodeInt(model.Int32, 1)}); err != nil {
		t.Fatal(err)
	}
	want := m.LastFuelUsed()

	tm := NewThreaded(p, nil)
	if err := tm.Init(); err != nil {
		t.Fatal(err)
	}
	if err := tm.Step([]uint64{model.EncodeInt(model.Int32, 1)}); err != nil {
		t.Fatal(err)
	}
	if got := tm.LastFuelUsed(); got != want {
		t.Fatalf("threaded charges %d for the step, switch charges %d — fusion must not change the fuel bill", got, want)
	}
}

// TestSharedCodeConcurrentFirstHang: the replay closures are built on the
// first fuel exhaustion of a shared Code. Two goroutines that both exhaust
// fuel for the first time on one fresh Code must race-freely build and use
// the same closures and report identical hangs, matching the reference.
// Run under -race.
func TestSharedCodeConcurrentFirstHang(t *testing.T) {
	p := fusedPairProgram()
	in := []uint64{model.EncodeInt(model.Int32, 7)}
	ref := New(p, nil)
	if err := ref.Init(); err != nil {
		t.Fatal(err)
	}
	if err := ref.Step(in); err != nil {
		t.Fatal(err)
	}
	// A budget one short of the step's cost dies inside the step's last
	// span, after the init has run to completion.
	budget := ref.LastFuelUsed() - 1
	refM := New(p, nil)
	refM.SetFuel(budget)
	if err := refM.Init(); err != nil {
		t.Fatal(err)
	}
	refErr := refM.Step(in)
	if refErr == nil {
		t.Fatal("reference must hang one instruction short of the step's cost")
	}

	for round := 0; round < 20; round++ {
		code := CompileThreaded(p)
		var errs [2]error
		var start, done sync.WaitGroup
		start.Add(1)
		for i := range errs {
			done.Add(1)
			go func(i int) {
				defer done.Done()
				m := NewThreadedFromCode(code, nil)
				m.SetFuel(budget)
				start.Wait()
				if err := m.Init(); err != nil {
					errs[i] = err
					return
				}
				errs[i] = m.Step(in)
			}(i)
		}
		start.Done()
		done.Wait()
		for i, err := range errs {
			if msg := sameErr(refErr, err); msg != "" {
				t.Fatalf("round %d goroutine %d: %s", round, i, msg)
			}
		}
	}
}
