package codegen

import (
	"math/rand"
	"slices"
	"testing"

	"cftcg/internal/coverage"
	"cftcg/internal/interp"
	"cftcg/internal/model"
	"cftcg/internal/stateflow"
	"cftcg/internal/vm"
)

// hierModel wraps a two-level chart whose actions log every entry/exit into
// a trace accumulator, making execution order observable.
func hierModel(t *testing.T) *model.Model {
	t.Helper()
	chart := &stateflow.Chart{
		Name:   "hier",
		Inputs: []stateflow.Var{{Name: "x", Type: model.Int32}},
		Outputs: []stateflow.Var{
			{Name: "trace", Type: model.Int32, Init: 0},
			{Name: "code", Type: model.Int32, Init: 0},
		},
		States: []*stateflow.State{
			{Name: "Off", Entry: "code = 0;", Exit: "trace = trace * 10 + 1;"},
			{Name: "On", Initial: "Idle",
				Entry: "trace = trace * 10 + 2;", Exit: "trace = trace * 10 + 3;",
				During: "trace = trace + 1000000;"},
			{Name: "Idle", Parent: "On",
				Entry: "trace = trace * 10 + 4; code = 1;", Exit: "trace = trace * 10 + 5;"},
			{Name: "Busy", Parent: "On",
				Entry: "trace = trace * 10 + 6; code = 2;", Exit: "trace = trace * 10 + 7;"},
		},
		Transitions: []*stateflow.Transition{
			{From: "Off", To: "On", Guard: "x > 0", Priority: 1},
			{From: "On", To: "Off", Guard: "x < 0", Priority: 1}, // outer
			{From: "Idle", To: "Busy", Guard: "x > 10", Priority: 1},
			{From: "Busy", To: "Idle", Guard: "x == 1", Priority: 1},
		},
		Initial: "Off",
	}
	b := model.NewBuilder("Hier")
	x := b.Inport("x", model.Int32)
	ch := b.Chart("c", chart, x)
	b.Outport("trace", model.Int32, ch.Out(0))
	b.Outport("code", model.Int32, ch.Out(1))
	return b.Model()
}

func TestHierarchicalChartSemantics(t *testing.T) {
	c, err := Compile(hierModel(t))
	if err != nil {
		t.Fatalf("Compile: %v", err)
	}
	rec := coverage.NewRecorder(c.Plan)
	m := vm.New(c.Prog, rec)
	m.Init()
	step := func(x int64) (trace, code int64) {
		rec.BeginStep()
		m.Step([]uint64{model.EncodeInt(model.Int32, x)})
		return model.DecodeInt(model.Int32, m.Out()[0]), model.DecodeInt(model.Int32, m.Out()[1])
	}

	// Step 1: Off -> On (enter On=2, then default child Idle=4).
	trace, code := step(5)
	// exit Off (1), enter On (2), enter Idle (4) => 124.
	if trace != 124 || code != 1 {
		t.Fatalf("Off->On: trace=%d code=%d, want 124/1", trace, code)
	}

	// Step 2: Idle -> Busy within On (exit Idle=5, enter Busy=6).
	trace, code = step(50)
	if trace != 12456 || code != 2 {
		t.Fatalf("Idle->Busy: trace=%d code=%d, want 12456/2", trace, code)
	}

	// Step 3: nothing fires (x=2): On's during adds 1000000.
	trace, _ = step(2)
	if trace != 1012456 {
		t.Fatalf("during: trace=%d, want 1012456", trace)
	}

	// Step 4: outer transition On->Off while Busy: exit Busy (7) then On
	// (3), enter Off. Outer precedence beats Busy->Idle even though x<0
	// matches only the outer guard.
	trace, code = step(-1)
	if trace != 101245673 || code != 0 {
		t.Fatalf("outer exit: trace=%d code=%d, want 101245673/0", trace, code)
	}
}

// TestOuterTransitionPrecedence: when both an outer and an inner guard hold,
// the outer one fires (Stateflow precedence).
func TestOuterTransitionPrecedence(t *testing.T) {
	chart := &stateflow.Chart{
		Name:    "prec",
		Inputs:  []stateflow.Var{{Name: "x", Type: model.Int32}},
		Outputs: []stateflow.Var{{Name: "who", Type: model.Int32, Init: 0}},
		States: []*stateflow.State{
			{Name: "A", Initial: "A1"},
			{Name: "A1", Parent: "A"},
			{Name: "A2", Parent: "A"},
			{Name: "B"},
		},
		Transitions: []*stateflow.Transition{
			{From: "A", To: "B", Guard: "x > 0", Action: "who = 1;"},   // outer
			{From: "A1", To: "A2", Guard: "x > 0", Action: "who = 2;"}, // inner
		},
		Initial: "A",
	}
	b := model.NewBuilder("Prec")
	x := b.Inport("x", model.Int32)
	ch := b.Chart("c", chart, x)
	b.Outport("who", model.Int32, ch.Out(0))
	c, err := Compile(b.Model())
	if err != nil {
		t.Fatal(err)
	}
	m := vm.New(c.Prog, nil)
	m.Init()
	m.Step([]uint64{model.EncodeInt(model.Int32, 7)})
	if got := model.DecodeInt(model.Int32, m.Out()[0]); got != 1 {
		t.Errorf("outer transition must preempt inner: who=%d", got)
	}
}

// TestHierarchicalDifferential: random inputs through VM and engine agree
// on the hierarchical chart.
func TestHierarchicalDifferential(t *testing.T) {
	c, err := Compile(hierModel(t))
	if err != nil {
		t.Fatal(err)
	}
	vmRec := coverage.NewRecorder(c.Plan)
	machine := vm.New(c.Prog, vmRec)
	machine.Init()

	itRec := coverage.NewRecorder(c.Plan)
	eng := interp.New(c.Design, c.Plan, c.Index, itRec)
	if err := eng.Init(); err != nil {
		t.Fatal(err)
	}

	rng := rand.New(rand.NewSource(8))
	for i := 0; i < 500; i++ {
		x := int64(rng.Intn(41) - 20)
		in := []uint64{model.EncodeInt(model.Int32, x)}
		vmRec.BeginStep()
		machine.Step(in)
		itRec.BeginStep()
		outs, err := eng.Step(in)
		if err != nil {
			t.Fatalf("step %d: %v", i, err)
		}
		for k := range outs {
			if outs[k] != machine.Out()[k] {
				t.Fatalf("step %d (x=%d) output %d: vm=%#x interp=%#x", i, x, k, machine.Out()[k], outs[k])
			}
		}
		if !slices.Equal(vmRec.Curr, itRec.Curr) {
			t.Fatalf("step %d: coverage diverges", i)
		}
	}
}
