package interp

import (
	"bytes"
	"math/rand"
	"slices"
	"testing"

	"cftcg/internal/codegen"
	"cftcg/internal/coverage"
	"cftcg/internal/model"
	"cftcg/internal/stateflow"
	"cftcg/internal/vm"
)

// buildMixed builds a model touching many block families: logic, switch,
// saturation, delays, a chart and a MATLAB function — enough surface for a
// meaningful differential check.
func buildMixed(t *testing.T) *model.Model {
	t.Helper()
	b := model.NewBuilder("Mixed")
	mode := b.Inport("Mode", model.Int8)
	level := b.Inport("Level", model.Int32)
	rate := b.Inport("Rate", model.Float64)

	sat := b.Saturation(level, -100, 100)
	absv := b.Abs(sat)
	hot := b.Rel(">", absv, b.ConstT(model.Int32, 50))
	en := b.And(hot, b.Rel("~=", mode, b.ConstT(model.Int8, 0)))
	lim := b.Add("RateLimiter", "", model.Params{"Rising": 2.0, "Falling": -2.0}).From(rate).Out(0)
	picked := b.Switch(en, b.Cast(lim, model.Int32), sat)
	dl := b.UnitDelay(picked, 0)

	chart := &stateflow.Chart{
		Name:    "modes",
		Inputs:  []stateflow.Var{{Name: "lvl", Type: model.Int32}},
		Outputs: []stateflow.Var{{Name: "phase", Type: model.Int32, Init: 0}},
		Locals:  []stateflow.Var{{Name: "ticks", Type: model.Int32}},
		States: []*stateflow.State{
			{Name: "Idle", During: "ticks = 0;"},
			{Name: "Ramp", During: "ticks = ticks + 1;", Entry: "phase = 1;"},
			{Name: "Hold", Entry: "phase = 2;"},
		},
		Transitions: []*stateflow.Transition{
			{From: "Idle", To: "Ramp", Guard: "lvl > 20", Priority: 1},
			{From: "Ramp", To: "Hold", Guard: "ticks >= 3", Priority: 1},
			{From: "Ramp", To: "Idle", Guard: "lvl < 5", Priority: 2},
			{From: "Hold", To: "Idle", Guard: "lvl < 5", Priority: 1},
		},
		Initial: "Idle",
	}
	ch := b.Chart("modes", chart, sat)

	ml := b.Matlab("scale", `
input  int32 x;
input  int32 phase;
output int32 y;
state  int32 peak = 0;
if (x > peak) { peak = x; }
if (phase == 2 && peak > 60) { y = peak; } else { y = x / 2; }
`, dl, ch.Out(0))

	b.Outport("Out", model.Int32, ml.Out(0))
	b.Outport("Phase", model.Int32, ch.Out(0))
	return b.Model()
}

// runBoth executes the same input sequence through the compiled VM and the
// interpretive engine and requires bit-identical outputs and coverage.
func runBoth(t *testing.T, m *model.Model, steps int, seed int64) {
	t.Helper()
	c, err := codegen.Compile(m)
	if err != nil {
		t.Fatalf("Compile: %v", err)
	}
	vmRec := coverage.NewRecorder(c.Plan)
	machine := vm.New(c.Prog, vmRec)
	machine.Init()

	itRec := coverage.NewRecorder(c.Plan)
	eng := New(c.Design, c.Plan, c.Index, itRec)
	if err := eng.Init(); err != nil {
		t.Fatalf("engine init: %v", err)
	}

	rng := rand.New(rand.NewSource(seed))
	fields := c.Prog.In
	in := make([]uint64, len(fields))
	for step := 0; step < steps; step++ {
		for i, f := range fields {
			// Biased random: small values often, full-range sometimes.
			var v int64
			if rng.Intn(3) == 0 {
				v = rng.Int63() // wild bits
			} else {
				v = int64(rng.Intn(201) - 100)
			}
			if f.Type.IsFloat() {
				in[i] = model.EncodeFloat(f.Type, float64(v%1000))
			} else {
				in[i] = model.EncodeInt(f.Type, v)
			}
		}
		vmRec.BeginStep()
		machine.Step(in)
		itRec.BeginStep()
		outs, err := eng.Step(in)
		if err != nil {
			t.Fatalf("engine step %d: %v", step, err)
		}
		for k := range outs {
			if outs[k] != machine.Out()[k] {
				t.Fatalf("step %d output %d: vm=%#x interp=%#x", step, k, machine.Out()[k], outs[k])
			}
		}
		if !slices.Equal(vmRec.Curr, itRec.Curr) {
			for br := 0; br < c.Plan.NumBranches; br++ {
				if vmRec.Hit(br) != itRec.Hit(br) {
					t.Fatalf("step %d: per-iteration coverage diverges at branch %d (%s): vm=%v interp=%v",
						step, br, c.Plan.BranchLabel(br), vmRec.Hit(br), itRec.Hit(br))
				}
			}
		}
	}
	if !bytes.Equal(vmRec.Total, itRec.Total) {
		t.Fatalf("cumulative coverage diverges")
	}
	vr, ir := vmRec.Report(), itRec.Report()
	if vr.Decision() != ir.Decision() || vr.Condition() != ir.Condition() || vr.MCDC() != ir.MCDC() {
		t.Fatalf("reports diverge: vm=%v interp=%v", vr, ir)
	}
}

func TestDifferentialMixed(t *testing.T) {
	m := buildMixed(t)
	for seed := int64(1); seed <= 5; seed++ {
		runBoth(t, m, 300, seed)
	}
}
