package codegen

import (
	"math/rand"
	"slices"
	"testing"

	"cftcg/internal/coverage"
	"cftcg/internal/interp"
	"cftcg/internal/model"
	"cftcg/internal/vm"
)

// whileModel: integer square root by repeated subtraction — a genuine
// data-dependent loop.
func whileModel(t *testing.T) *model.Model {
	t.Helper()
	b := model.NewBuilder("Isqrt")
	x := b.Inport("x", model.Int32)
	ml := b.Matlab("isqrt", `
input  int32 x;
output int32 root = 0;
var    int32 n = 0;
var    int32 odd = 1;
n = x;
while (n >= odd) {
    n = n - odd;
    odd = odd + 2;
    root = root + 1;
}
`, x)
	b.Outport("root", model.Int32, ml.Out(0))
	return b.Model()
}

func TestWhileLoopComputes(t *testing.T) {
	c, err := Compile(whileModel(t))
	if err != nil {
		t.Fatalf("Compile: %v", err)
	}
	m := vm.New(c.Prog, nil)
	m.Init()
	cases := []struct{ in, want int64 }{
		{0, 0}, {1, 1}, {3, 1}, {4, 2}, {15, 3}, {16, 4}, {99, 9}, {100, 10}, {1000000, 1000},
	}
	for _, tc := range cases {
		m.Step([]uint64{model.EncodeInt(model.Int32, tc.in)})
		if got := model.DecodeInt(model.Int32, m.Out()[0]); got != tc.want {
			t.Errorf("isqrt(%d) = %d, want %d", tc.in, got, tc.want)
		}
	}
}

func TestWhileLoopIterationCap(t *testing.T) {
	// isqrt needs ~sqrt(x) iterations; beyond MaxWhileIter^2 the cap cuts
	// the loop and the root saturates at the cap.
	c, err := Compile(whileModel(t))
	if err != nil {
		t.Fatal(err)
	}
	m := vm.New(c.Prog, nil)
	m.Init()
	m.Step([]uint64{model.EncodeInt(model.Int32, 2000000000)}) // sqrt ~ 44721 > cap
	got := model.DecodeInt(model.Int32, m.Out()[0])
	if got != 1000 {
		t.Errorf("capped loop: root = %d, want exactly the 1000-iteration cap", got)
	}
}

func TestWhileIsADecision(t *testing.T) {
	c, err := Compile(whileModel(t))
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for i := range c.Plan.Decisions {
		if c.Plan.Decisions[i].Label == "Isqrt/isqrt while@7" {
			found = true
		}
	}
	if !found {
		var labels []string
		for i := range c.Plan.Decisions {
			labels = append(labels, c.Plan.Decisions[i].Label)
		}
		t.Errorf("while decision missing from plan: %v", labels)
	}
	rec := coverage.NewRecorder(c.Plan)
	m := vm.New(c.Prog, rec)
	m.Init()
	rec.BeginStep()
	m.Step([]uint64{model.EncodeInt(model.Int32, 9)})
	rep := rec.Report()
	// One input both enters (true) and exits (false) the loop: full DC.
	if rep.Decision() != 100 {
		t.Errorf("while decision coverage: %v", rep.Decision())
	}
}

func TestWhileDifferential(t *testing.T) {
	c, err := Compile(whileModel(t))
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
	rng := rand.New(rand.NewSource(12))
	for i := 0; i < 300; i++ {
		x := rng.Int63() // includes huge and negative-wrapped values
		in := []uint64{model.EncodeInt(model.Int32, x)}
		vmRec.BeginStep()
		machine.Step(in)
		itRec.BeginStep()
		outs, err := eng.Step(in)
		if err != nil {
			t.Fatal(err)
		}
		if outs[0] != machine.Out()[0] {
			t.Fatalf("step %d (x=%d): vm=%d interp=%d", i, x,
				model.DecodeInt(model.Int32, machine.Out()[0]),
				model.DecodeInt(model.Int32, outs[0]))
		}
		if !slices.Equal(vmRec.Curr, itRec.Curr) {
			t.Fatalf("step %d: coverage diverges", i)
		}
	}
}

func TestWhileLoopRecordsLoopSite(t *testing.T) {
	c, err := Compile(whileModel(t))
	if err != nil {
		t.Fatal(err)
	}
	if len(c.Prog.LoopSites) == 0 {
		t.Fatal("compiled while loop must record a LoopSite")
	}
	s := c.Prog.LoopSites[0]
	if s.Func != "step" {
		t.Errorf("loop func = %q, want step", s.Func)
	}
	if s.Label == "" {
		t.Error("loop site must carry a label")
	}
	if got := c.Prog.LoopSiteFor("step", s.PC-1); got != s.Label {
		t.Errorf("LoopSiteFor inside the body = %q, want %q", got, s.Label)
	}
}
